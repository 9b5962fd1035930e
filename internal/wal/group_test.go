package wal

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globaldb/internal/redo"
)

// commitOnce appends one txn's records with writer-assigned LSNs and waits
// for durability — the shape of a terminal committing under group commit.
func commitOnce(w *Writer, txn uint64) (uint64, error) {
	lsn, err := w.AppendAssign([]redo.Record{
		{Type: redo.TypeHeapInsert, Txn: txn, Key: []byte(fmt.Sprintf("k-%d", txn)), Value: []byte("v")},
		{Type: redo.TypeCommit, Txn: txn, TS: 1},
	})
	if err != nil {
		return 0, err
	}
	return lsn, w.WaitDurable(context.Background(), lsn)
}

func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	w, err := Open(Options{
		Dir:        t.TempDir(),
		Sync:       SyncGroup,
		Linger:     500 * time.Microsecond,
		FsyncDelay: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const committers = 16
	const rounds = 8
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := commitOnce(w, uint64(c*rounds+r+1)); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := w.GroupStats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	commits := int64(committers * rounds)
	if st.GroupedCommits != commits {
		t.Fatalf("grouped commits = %d, want %d", st.GroupedCommits, commits)
	}
	// The whole point: far fewer fsyncs than commits. With 16 concurrent
	// committers and a lingering syncer even a conservative bound holds.
	if st.Fsyncs >= commits {
		t.Fatalf("fsyncs = %d, commits = %d: no coalescing happened", st.Fsyncs, commits)
	}
	if st.DurableLSN != uint64(commits*2) {
		t.Fatalf("durable LSN = %d, want %d", st.DurableLSN, commits*2)
	}
}

// TestGroupCommitAckedIsRecoverable: any commit whose WaitDurable returned
// must be visible to Recover — without a clean Close. This is the durability
// contract group commit must not weaken.
func TestGroupCommitAckedIsRecoverable(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncGroup, Linger: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var acked atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				lsn, err := commitOnce(w, uint64(c*20+r+1))
				if err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				for {
					cur := acked.Load()
					if lsn <= cur || acked.CompareAndSwap(cur, lsn) {
						break
					}
				}
			}
		}(c)
	}
	wg.Wait()
	// No Close: recover straight from the directory, as a crash would.
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	var maxLSN uint64
	for _, r := range got {
		if r.LSN > maxLSN {
			maxLSN = r.LSN
		}
	}
	if maxLSN < acked.Load() {
		t.Fatalf("recovered up to LSN %d, but LSN %d was acked durable", maxLSN, acked.Load())
	}
	w.Close()
}

// TestGroupCommitHammer is the -race stress: concurrent AppendAssign,
// WaitDurable, explicit Sync, and a Close racing all of them. Every waiter
// must resolve (nil or ErrClosed) — nobody hangs, nothing data-races.
func TestGroupCommitHammer(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir(), Sync: SyncGroup, Linger: 50 * time.Microsecond, MaxBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for r := 0; ; r++ {
				lsn, err := w.AppendAssign([]redo.Record{{Type: redo.TypeHeartbeat, Txn: uint64(c), TS: 1}})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err = w.WaitDurable(ctx, lsn)
				cancel()
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("wait: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 50; i++ {
			if err := w.Sync(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("sync: %v", err)
				return
			}
		}
	}()
	close(start)
	time.Sleep(20 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestWaitDurableContextCancel(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir(), Sync: SyncGroup, Linger: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	// Wait for an LSN that will never be appended.
	if err := w.WaitDurable(ctx, 1<<40); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
}

func TestWaitDurableAfterCloseFailsFutureLSNs(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir(), Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w.AppendAssign(genRecords(3, 21))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		// Parked on an LSN beyond everything appended; Close must fail it.
		errCh <- w.WaitDurable(context.Background(), lsn+100)
	}()
	// Let the waiter park before closing.
	time.Sleep(5 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	// Everything actually appended is durable after Close.
	if err := w.WaitDurable(context.Background(), lsn); err != nil {
		t.Fatalf("appended LSNs must be durable after Close: %v", err)
	}
}

func TestWaitDurableEveryBatchIsImmediate(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir(), Sync: SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lsn, err := w.AppendAssign(genRecords(5, 22))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// SyncEveryBatch advances the watermark inside Append: no parking.
	if err := w.WaitDurable(ctx, lsn); err != nil {
		t.Fatalf("wait under SyncEveryBatch: %v", err)
	}
	if w.DurableLSN() != lsn {
		t.Fatalf("durable = %d, want %d", w.DurableLSN(), lsn)
	}
}

// TestLoneCommitterDoesNotLinger: Options.Linger is an upper bound taken
// only on evidence of concurrent committers. A committer that is alone pays
// its fsync and nothing more — with a linger far longer than the test's
// patience, serial commits still return promptly — and an fsync that would
// release nobody (the waiter's record has not been appended yet) is skipped
// rather than spent.
func TestLoneCommitterDoesNotLinger(t *testing.T) {
	const linger = 2 * time.Second
	w, err := Open(Options{Dir: t.TempDir(), Sync: SyncGroup, Linger: linger})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	start := time.Now()
	for txn := uint64(1); txn <= 5; txn++ {
		if _, err := commitOnce(w, txn); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > linger/2 {
		t.Fatalf("5 serial commits took %v: a lone committer waited out the %v linger", d, linger)
	}
	if got := w.GroupStats().Fsyncs; got != 5 {
		t.Fatalf("fsyncs = %d for 5 serial commits, want 5", got)
	}

	// A waiter parked on an LSN that is not written yet: unsynced records
	// exist (an intent), but syncing them would release nobody.
	if _, err := w.AppendAssign([]redo.Record{{Type: redo.TypeHeapInsert, Txn: 6, Key: []byte("k"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	next := w.NextLSN()
	done := make(chan error, 1)
	go func() { done <- w.WaitDurable(context.Background(), next) }()
	time.Sleep(20 * time.Millisecond) // let the waiter park and the syncer run
	if got := w.GroupStats().Fsyncs; got != 5 {
		t.Fatalf("fsyncs = %d after a wait on an unwritten LSN, want 5 (nothing to release)", got)
	}
	if _, err := w.AppendAssign([]redo.Record{{Type: redo.TypeCommit, Txn: 6, TS: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(linger / 2):
		t.Fatal("commit record appended behind its waiter was never synced")
	}
	if got := w.GroupStats().Fsyncs; got != 6 {
		t.Fatalf("fsyncs = %d, want 6: one fsync for the intent and the commit together", got)
	}
}

// TestGroupCommitCoalescesOnOneP drives the linger gate on one P. The syncer
// is woken by the committer that parks, so on one P it runs before any other
// committer can append: a gate that looks only at parked waiters, or at the
// previous group's size, then sees one commit in every group and never
// lingers again. The gate counts commit records at append time and, on one P,
// yields the P once before it reads them, so concurrent committers still
// share fsyncs.
func TestGroupCommitCoalescesOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, err := Open(Options{Dir: t.TempDir(), Sync: SyncGroup, Linger: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const committers = 8
	const rounds = 15
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := commitOnce(w, uint64(c*rounds+r+1)); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	commits := int64(committers * rounds)
	if st := w.GroupStats(); st.Fsyncs > commits/2 {
		t.Fatalf("fsyncs = %d for %d commits of %d committers on one P: the linger gate latched off", st.Fsyncs, commits, committers)
	}
}
