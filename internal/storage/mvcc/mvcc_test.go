package mvcc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"globaldb/internal/ts"
)

var bg = context.Background()

func mustPut(t *testing.T, s *Store, txn TxnID, key, val string, snap ts.Timestamp) {
	t.Helper()
	if err := s.Put(txn, []byte(key), []byte(val), snap); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func get(t *testing.T, s *Store, key string, snap ts.Timestamp) (string, bool) {
	t.Helper()
	v, ok, err := s.Get(bg, []byte(key), snap, 0)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	return string(v), ok
}

func TestBasicCommitVisibility(t *testing.T) {
	s := NewStore()
	mustPut(t, s, 1, "k", "v1", 0)
	if _, ok := get(t, s, "k", 100); ok {
		t.Fatal("active intent must be invisible")
	}
	if err := s.Commit(1, 10); err != nil {
		t.Fatal(err)
	}
	if v, ok := get(t, s, "k", 10); !ok || v != "v1" {
		t.Fatalf("at snap 10: %q,%v", v, ok)
	}
	if _, ok := get(t, s, "k", 9); ok {
		t.Fatal("snapshot before commit must not see the version")
	}
	if s.LastCommitTS() != 10 {
		t.Fatalf("LastCommitTS = %v", s.LastCommitTS())
	}
}

func TestMultipleVersions(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 5; i++ {
		txn := TxnID(i)
		mustPut(t, s, txn, "k", fmt.Sprintf("v%d", i), ts.Timestamp(i*10-1))
		if err := s.Commit(txn, ts.Timestamp(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		if v, _ := get(t, s, "k", ts.Timestamp(i*10)); v != fmt.Sprintf("v%d", i) {
			t.Fatalf("snap %d: got %q", i*10, v)
		}
		if v, _ := get(t, s, "k", ts.Timestamp(i*10+5)); v != fmt.Sprintf("v%d", i) {
			t.Fatalf("snap %d: got %q", i*10+5, v)
		}
	}
}

func TestDeleteTombstone(t *testing.T) {
	s := NewStore()
	mustPut(t, s, 1, "k", "v", 0)
	s.Commit(1, 10)
	if err := s.Delete(2, []byte("k"), 15); err != nil {
		t.Fatal(err)
	}
	s.Commit(2, 20)
	if _, ok := get(t, s, "k", 15); !ok {
		t.Fatal("pre-delete snapshot must still see the row")
	}
	if _, ok := get(t, s, "k", 25); ok {
		t.Fatal("post-delete snapshot must not see the row")
	}
}

// TestGetVersionNamesTheAnsweringVersion: GetVersion reports the commit
// timestamp of the version that answered, a tombstone's included, and zero
// for the reader's own intent or when nothing is visible.
func TestGetVersionNamesTheAnsweringVersion(t *testing.T) {
	s := NewStore()
	mustPut(t, s, 1, "k", "v", 0)
	s.Commit(1, 10)
	if err := s.Delete(2, []byte("k"), 15); err != nil {
		t.Fatal(err)
	}
	s.Commit(2, 20)
	mustPut(t, s, 3, "k", "mine", 25)
	for _, c := range []struct {
		snap    ts.Timestamp
		reader  TxnID
		ok      bool
		deleted bool
		commit  ts.Timestamp
	}{
		{snap: 5},
		{snap: 15, ok: true, commit: 10},
		{snap: 25, ok: true, deleted: true, commit: 20},
		{snap: 25, reader: 3, ok: true},
	} {
		v, ok, err := s.GetVersion(bg, []byte("k"), c.snap, c.reader)
		if err != nil || ok != c.ok || v.Deleted != c.deleted || v.CommitTS != c.commit {
			t.Fatalf("GetVersion at %v as %d = %+v %v %v, want ok %v deleted %v commit %v",
				c.snap, c.reader, v, ok, err, c.ok, c.deleted, c.commit)
		}
	}
}

func TestWriteWriteConflictIntent(t *testing.T) {
	s := NewStore()
	mustPut(t, s, 1, "k", "a", 100)
	err := s.Put(2, []byte("k"), []byte("b"), 100)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("want ErrWriteConflict, got %v", err)
	}
	// Same transaction may overwrite its own intent.
	mustPut(t, s, 1, "k", "a2", 100)
	s.Commit(1, 110)
	if v, _ := get(t, s, "k", 110); v != "a2" {
		t.Fatalf("got %q", v)
	}
}

func TestFirstCommitterWins(t *testing.T) {
	s := NewStore()
	mustPut(t, s, 1, "k", "v1", 0)
	s.Commit(1, 50)
	// A writer whose snapshot predates commit 50 must fail (lost update).
	err := s.Put(2, []byte("k"), []byte("v2"), 40)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale writer must conflict, got %v", err)
	}
	// A writer with a fresh snapshot succeeds.
	mustPut(t, s, 3, "k", "v3", 60)
	s.Commit(3, 70)
}

func TestAbortDiscardsIntents(t *testing.T) {
	s := NewStore()
	mustPut(t, s, 1, "k", "v", 0)
	mustPut(t, s, 1, "k2", "v2", 0)
	if err := s.Abort(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(t, s, "k", 100); ok {
		t.Fatal("aborted write visible")
	}
	// k2 had no committed versions: the chain must be gone entirely.
	if got := s.Stats().Keys; got != 0 {
		t.Fatalf("keys after abort = %d", got)
	}
	// Writing again after the abort must succeed.
	mustPut(t, s, 2, "k", "v2", 0)
	s.Commit(2, 10)
}

func TestReadYourOwnWrites(t *testing.T) {
	s := NewStore()
	mustPut(t, s, 1, "k", "mine", 0)
	v, ok, err := s.Get(bg, []byte("k"), 0, 1)
	if err != nil || !ok || string(v) != "mine" {
		t.Fatalf("RYOW: %q,%v,%v", v, ok, err)
	}
	// Own deletion hides the row.
	s.Delete(1, []byte("k"), 0)
	_, ok, _ = s.Get(bg, []byte("k"), 0, 1)
	if ok {
		t.Fatal("own delete must hide the row")
	}
}

func TestPendingIntentBlocksReader(t *testing.T) {
	s := NewStore()
	mustPut(t, s, 1, "k", "v1", 0)
	s.Commit(1, 10)
	mustPut(t, s, 2, "k", "v2", 10)
	if err := s.MarkPending(2); err != nil {
		t.Fatal(err)
	}

	got := make(chan string, 1)
	go func() {
		v, _, _ := s.Get(bg, []byte("k"), 100, 0)
		got <- string(v)
	}()
	select {
	case v := <-got:
		t.Fatalf("reader returned %q before pending txn resolved", v)
	case <-time.After(20 * time.Millisecond):
	}
	s.Commit(2, 50)
	select {
	case v := <-got:
		if v != "v2" {
			t.Fatalf("reader got %q, want v2", v)
		}
	case <-time.After(time.Second):
		t.Fatal("reader still blocked after commit")
	}
	if s.Stats().ReaderWaits == 0 {
		t.Fatal("wait counter must increment")
	}
}

func TestPendingAbortUnblocksReader(t *testing.T) {
	s := NewStore()
	mustPut(t, s, 1, "k", "v1", 0)
	s.Commit(1, 10)
	mustPut(t, s, 2, "k", "v2", 10)
	s.MarkPending(2)
	got := make(chan string, 1)
	go func() {
		v, _, _ := s.Get(bg, []byte("k"), 100, 0)
		got <- string(v)
	}()
	time.Sleep(10 * time.Millisecond)
	s.Abort(2)
	select {
	case v := <-got:
		if v != "v1" {
			t.Fatalf("reader got %q, want v1 after abort", v)
		}
	case <-time.After(time.Second):
		t.Fatal("reader still blocked after abort")
	}
}

func TestPreparedIntentBlocksReader(t *testing.T) {
	s := NewStore()
	mustPut(t, s, 7, "k", "v", 0)
	s.MarkPrepared(7)
	st, ok := s.TxnStateOf(7)
	if !ok || st != StatePrepared {
		t.Fatalf("state = %v,%v", st, ok)
	}
	ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
	defer cancel()
	_, _, err := s.Get(ctx, []byte("k"), 100, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("prepared intent must block reader until ctx deadline, got %v", err)
	}
	s.Commit(7, 40)
	if v, ok := get(t, s, "k", 100); !ok || v != "v" {
		t.Fatalf("after commit prepared: %q,%v", v, ok)
	}
}

func TestActiveIntentDoesNotBlockReader(t *testing.T) {
	s := NewStore()
	mustPut(t, s, 1, "k", "v1", 0)
	s.Commit(1, 10)
	mustPut(t, s, 2, "k", "v2", 10) // active, not pending
	ctx, cancel := context.WithTimeout(bg, 200*time.Millisecond)
	defer cancel()
	v, ok, err := s.Get(ctx, []byte("k"), 100, 0)
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("active intent must be skipped: %q,%v,%v", v, ok, err)
	}
}

func TestScanVisibility(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%02d", i)
		txn := TxnID(i + 1)
		mustPut(t, s, txn, k, fmt.Sprintf("v%d", i), 0)
		s.Commit(txn, ts.Timestamp(10*(i+1)))
	}
	// At snap 50, keys 0..4 are visible.
	kvs, err := s.Scan(bg, []byte("k00"), []byte("k99"), 50, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 5 {
		t.Fatalf("scan at 50: %d rows", len(kvs))
	}
	for i, kv := range kvs {
		if want := fmt.Sprintf("k%02d", i); string(kv.Key) != want {
			t.Fatalf("row %d key %q", i, kv.Key)
		}
	}
	// Limit.
	kvs, _ = s.Scan(bg, nil, nil, 1000, 3, 0)
	if len(kvs) != 3 {
		t.Fatalf("limited scan: %d rows", len(kvs))
	}
}

func TestScanSeesOwnWritesAndBlocksOnPending(t *testing.T) {
	s := NewStore()
	mustPut(t, s, 1, "a", "a1", 0)
	s.Commit(1, 10)
	mustPut(t, s, 2, "b", "mine", 10)
	kvs, err := s.Scan(bg, nil, nil, 100, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || string(kvs[1].Value) != "mine" {
		t.Fatalf("scan with own intent: %v", kvs)
	}
	// Another txn's pending intent blocks a foreign scan.
	s.MarkPending(2)
	done := make(chan int, 1)
	go func() {
		kvs, _ := s.Scan(bg, nil, nil, 100, 0, 0)
		done <- len(kvs)
	}()
	select {
	case n := <-done:
		t.Fatalf("scan returned %d rows before pending resolved", n)
	case <-time.After(20 * time.Millisecond):
	}
	s.Commit(2, 50)
	if n := <-done; n != 2 {
		t.Fatalf("scan after resolve: %d rows", n)
	}
}

func TestApplyCommittedOutOfOrder(t *testing.T) {
	s := NewStore()
	// Parallel replay can apply versions out of timestamp order.
	s.ApplyCommitted([]byte("k"), []byte("v30"), false, 30)
	s.ApplyCommitted([]byte("k"), []byte("v10"), false, 10)
	s.ApplyCommitted([]byte("k"), []byte("v20"), false, 20)
	for _, c := range []struct {
		snap ts.Timestamp
		want string
	}{{10, "v10"}, {15, "v10"}, {20, "v20"}, {30, "v30"}, {99, "v30"}} {
		if v, _ := get(t, s, "k", c.snap); v != c.want {
			t.Fatalf("snap %d: got %q want %q", c.snap, v, c.want)
		}
	}
	vs := s.Versions([]byte("k"))
	for i := 1; i < len(vs); i++ {
		if vs[i-1].CommitTS < vs[i].CommitTS {
			t.Fatal("version chain must be newest-first")
		}
	}
}

func TestPrune(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 10; i++ {
		s.ApplyCommitted([]byte("k"), []byte(fmt.Sprintf("v%d", i)), false, ts.Timestamp(i*10))
	}
	removed := s.Prune(55)
	if removed != 4 { // versions 10..40 dropped; 50 kept as the snapshot floor
		t.Fatalf("removed %d versions", removed)
	}
	if v, ok := get(t, s, "k", 55); !ok || v != "v5" {
		t.Fatalf("watermark read after prune: %q,%v", v, ok)
	}
	if v, ok := get(t, s, "k", 100); !ok || v != "v10" {
		t.Fatalf("fresh read after prune: %q,%v", v, ok)
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	s := NewStore()
	const writers = 16
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				txn := TxnID(w*perWriter + i + 1)
				key := []byte(fmt.Sprintf("w%02d-%04d", w, i))
				if err := s.Put(txn, key, []byte("x"), ts.Max); err != nil {
					t.Error(err)
					return
				}
				if err := s.Commit(txn, ts.Timestamp(int(txn)*2)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Stats().Keys; got != writers*perWriter {
		t.Fatalf("keys = %d, want %d", got, writers*perWriter)
	}
	if got := s.Stats().Commits; got != writers*perWriter {
		t.Fatalf("commits = %d", got)
	}
}

func TestConcurrentContendedWriters(t *testing.T) {
	// Many writers race on one key; exactly the winners' chain must be
	// consistent and no committed value may be lost mid-chain.
	s := NewStore()
	var next ts.Timestamp = 1
	var mu sync.Mutex
	nextTS := func() ts.Timestamp {
		mu.Lock()
		defer mu.Unlock()
		next++
		return next
	}
	var wg sync.WaitGroup
	var commits atomic64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				txn := TxnID(w*1000 + i + 1)
				snap := s.LastCommitTS()
				if err := s.Put(txn, []byte("hot"), []byte{byte(w)}, snap); err != nil {
					continue // conflict: fine, retry next iteration
				}
				s.Commit(txn, nextTS())
				commits.add(1)
			}
		}(w)
	}
	wg.Wait()
	if commits.load() == 0 {
		t.Fatal("no writer ever succeeded")
	}
	vs := s.Versions([]byte("hot"))
	if int64(len(vs)) != commits.load() {
		t.Fatalf("chain has %d versions, committed %d", len(vs), commits.load())
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

func TestTxnNotFound(t *testing.T) {
	s := NewStore()
	if err := s.Commit(99, 1); !errors.Is(err, ErrTxnNotFound) {
		t.Fatalf("Commit unknown txn: %v", err)
	}
	if err := s.Abort(99); !errors.Is(err, ErrTxnNotFound) {
		t.Fatalf("Abort unknown txn: %v", err)
	}
}

func TestCommitWatermarkMonotonic(t *testing.T) {
	s := NewStore()
	s.AdvanceCommitWatermark(100)
	s.AdvanceCommitWatermark(50)
	if s.LastCommitTS() != 100 {
		t.Fatalf("watermark moved backwards: %v", s.LastCommitTS())
	}
}
