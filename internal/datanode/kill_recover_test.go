package datanode

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"globaldb/internal/netsim"
	"globaldb/internal/redo"
	"globaldb/internal/repl"
	"globaldb/internal/ts"
	"globaldb/internal/wal"
)

// TestKillAndRecoverAckedCommitsDurable is the group-commit durability
// contract end to end: commits acked under wal.SyncGroup must survive the
// primary's crash, here the close of its WAL writer right after the last
// ack. Concurrent committers hammer one primary; every ack the client
// observed must be visible after WAL replay.
func TestKillAndRecoverAckedCommitsDurable(t *testing.T) {
	dir := t.TempDir()
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.SetLink("east", "west", 2*time.Millisecond, 0)
	p := NewPrimary(n, "dn0", "east", 0, repl.Async, 1)
	w, err := p.AttachWAL(wal.Options{
		Dir:    dir,
		Sync:   wal.SyncGroup,
		Linger: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(n, "east")

	type acked struct {
		key, val []byte
		ts       ts.Timestamp
	}
	const committers = 8
	const rounds = 15
	var mu sync.Mutex
	var acks []acked
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				txn := uint64(g*rounds + r + 1)
				commitTS := ts.Timestamp(1000 + txn)
				k := []byte(fmt.Sprintf("g%d-r%d", g, r))
				v := []byte(fmt.Sprintf("v%d", txn))
				if err := c.Write(bg, "dn0", txn, ts.Max, []WriteOp{{Key: k, Value: v}}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if err := c.Commit(bg, "dn0", txn, commitTS, false); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				// The ack is in hand: this write is a durability promise.
				mu.Lock()
				acks = append(acks, acked{key: k, val: v, ts: commitTS})
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	st := p.WAL().GroupStats()
	if st.Fsyncs >= int64(committers*rounds) {
		t.Fatalf("fsyncs=%d for %d commits: group commit not coalescing", st.Fsyncs, committers*rounds)
	}
	if err := w.Close(); err != nil { // crash
		t.Fatal(err)
	}
	p.Endpoint().SetDown(true)

	n2 := netsim.New(netsim.Config{TimeScale: 0.2})
	p2, closer2, err := RecoverPrimary(n2, "dn0", "east", 0,
		wal.Options{Dir: dir, Sync: wal.SyncGroup}, repl.Async, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closer2.Close()
	for _, a := range acks {
		versions := p2.Store().Versions(a.key)
		found := false
		for _, ver := range versions {
			if ver.CommitTS == a.ts && string(ver.Value) == string(a.val) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("acked commit lost: key=%s ts=%v versions=%v", a.key, a.ts, versions)
		}
	}
}

// TestRecoverRebuildsInDoubtState: prepare records survive a crash with
// their anchor, resolved 2PC outcomes are queryable, and the in-doubt set
// contains exactly the unresolved transactions.
func TestRecoverRebuildsInDoubtState(t *testing.T) {
	dir := t.TempDir()
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.SetLink("east", "west", 2*time.Millisecond, 0)
	p := NewPrimary(n, "dn0", "east", 0, repl.Async, 1)
	w, err := p.AttachWAL(wal.Options{Dir: dir, Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(n, "east")

	// Txn 1: prepared and committed (resolved outcome must survive).
	if err := c.Write(bg, "dn0", 1, ts.Max, []WriteOp{{Key: []byte("a"), Value: []byte("1")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare(bg, "dn0", 1, "dn-anchor"); err != nil {
		t.Fatal(err)
	}
	if err := c.CommitPrepared(bg, "dn0", 1, 500, false); err != nil {
		t.Fatal(err)
	}
	// Txn 2: prepared, never resolved (in doubt across the crash).
	if err := c.Write(bg, "dn0", 2, ts.Max, []WriteOp{{Key: []byte("b"), Value: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare(bg, "dn0", 2, "dn-anchor"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	p.Endpoint().SetDown(true)

	n2 := netsim.New(netsim.Config{TimeScale: 0.2})
	n2.SetLink("east", "west", 2*time.Millisecond, 0)
	_, closer2, err := RecoverPrimary(n2, "dn0", "east", 0,
		wal.Options{Dir: dir, Sync: wal.SyncGroup}, repl.Async, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closer2.Close()
	c2 := NewClient(n2, "east")
	txns, err := c2.InDoubt(bg, "dn0")
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 1 || txns[0].Txn != 2 || txns[0].Anchor != "dn-anchor" {
		t.Fatalf("in-doubt = %+v, want txn 2 anchored at dn-anchor", txns)
	}
	st, err := c2.TxnStatus(bg, "dn0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Known || !st.Committed || st.TS != 500 {
		t.Fatalf("txn 1 status = %+v, want known commit at 500", st)
	}
	if st, _ := c2.TxnStatus(bg, "dn0", 2); st.Known || !st.Prepared {
		t.Fatalf("txn 2 status = %+v, want unresolved prepared", st)
	}
}

// TestTruncationKeepsAckedCommitsInWAL: every acked commit is in the
// recovered WAL while redo truncation runs every millisecond. A replica in
// the primary's own region acknowledges at once, so truncation follows the
// log's head closely, while a slowed device sync makes every append slow and
// heartbeats (which no ack waits for) keep the log moving. Truncation drops
// records only from the in-memory log: each was written to the WAL when it
// was appended.
func TestTruncationKeepsAckedCommitsInWAL(t *testing.T) {
	dir := t.TempDir()
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.AddRegion("east")
	p := NewPrimary(n, "dn0", "east", 0, repl.Async, 1)
	w, err := p.AttachWAL(wal.Options{
		Dir:        dir,
		Sync:       wal.SyncEveryBatch,
		FsyncDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShipperForTest(n, p, NewReplica(n, "dn0r0", "east", 0))
	defer sh.Stop()
	c := NewClient(n, "east")
	ctx, cancel := context.WithTimeout(bg, 20*time.Second)
	defer cancel()

	stop := make(chan struct{})
	var bgWork sync.WaitGroup
	bgWork.Add(2)
	go func() { // the GC loop's truncation, far more often
		defer bgWork.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				p.Repl().Truncate()
			}
		}
	}()
	go func() { // log traffic nobody waits for
		defer bgWork.Done()
		for hb := ts.Timestamp(1); ; hb++ {
			select {
			case <-stop:
				return
			case <-time.After(500 * time.Microsecond):
				if err := c.Heartbeat(ctx, "dn0", hb); err != nil {
					t.Errorf("heartbeat: %v", err)
					return
				}
			}
		}
	}()

	const committers, rounds = 4, 25
	type acked struct {
		key string
		ts  ts.Timestamp
	}
	var mu sync.Mutex
	var acks []acked
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				txn := uint64(g*rounds + r + 1)
				commitTS := ts.Timestamp(1_000_000 + txn)
				k := fmt.Sprintf("g%d-r%d", g, r)
				if err := c.Write(ctx, "dn0", txn, ts.Max, []WriteOp{{Key: []byte(k), Value: []byte("v")}}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if err := c.Commit(ctx, "dn0", txn, commitTS, false); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				mu.Lock()
				acks = append(acks, acked{key: k, ts: commitTS})
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	bgWork.Wait()
	if p.Log().Retained() >= int(p.Log().LastLSN()) {
		t.Fatalf("nothing was truncated: %d of %d records retained", p.Log().Retained(), p.Log().LastLSN())
	}
	if err := w.Close(); err != nil { // crash
		t.Fatal(err)
	}
	p.Endpoint().SetDown(true)

	recs, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	committed := make(map[ts.Timestamp]bool)
	for _, r := range recs {
		if r.Type == redo.TypeCommit {
			committed[r.TS] = true
		}
	}
	for _, a := range acks {
		if !committed[a.ts] {
			t.Fatalf("acked commit of %s at %v is not in the recovered WAL", a.key, a.ts)
		}
	}
}

// TestFailedWALAppendAcksNothingAfter: a WAL write error is fail-stop. The
// request whose append failed gets the error, and so does every later
// commit on that primary — promptly, not at its deadline — while a commit
// acked before the failure stays acked. The write fails because a directory
// sits where the next segment file must be created.
func TestFailedWALAppendAcksNothingAfter(t *testing.T) {
	dir := t.TempDir()
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.AddRegion("east")
	p := NewPrimary(n, "dn0", "east", 0, repl.Async, 1)
	// A one-byte segment limit makes every append open a new segment.
	w, err := p.AttachWAL(wal.Options{Dir: dir, Sync: wal.SyncGroup, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c := NewClient(n, "east")
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	put := func(txn uint64) error {
		return c.Write(ctx, "dn0", txn, ts.Max, []WriteOp{{Key: []byte(fmt.Sprint("k", txn)), Value: []byte("v")}})
	}
	if err := put(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx, "dn0", 1, 100, false); err != nil {
		t.Fatal(err)
	}
	if err := put(2); err != nil {
		t.Fatal(err)
	}
	// Segment files are named after their first LSN (wal.Segments).
	next := fmt.Sprintf("wal-%020d.log", p.Log().LastLSN()+1)
	if err := os.Mkdir(filepath.Join(dir, next), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx, "dn0", 2, 200, false); err == nil {
		t.Fatal("the commit whose WAL append failed was acked")
	}
	if err := w.WaitDurable(ctx, p.Log().LastLSN()); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("durability wait past the lost write: %v, want the write error", err)
	}
	if err := put(3); err == nil {
		t.Fatal("a write after the lost one was acked")
	}
	if err := c.Commit(ctx, "dn0", 3, 300, false); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("commit after the lost write: %v, want the write error", err)
	}
	if err := w.WaitDurable(ctx, 2); err != nil {
		t.Fatalf("the commit acked before the failure: %v", err)
	}
}

// TestAttachWALWritesBacklogFirst: a WAL attached to a primary that has
// already logged records starts with that backlog, so the WAL holds the log
// from LSN 1; a WAL whose next LSN the log no longer holds, or has not
// reached, is refused.
func TestAttachWALWritesBacklogFirst(t *testing.T) {
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.AddRegion("east")
	p := NewPrimary(n, "dn0", "east", 0, repl.Async, 1)
	c := NewClient(n, "east")
	runTxns(t, c, "dn0", 5, 1, 100)
	backlog := p.Log().LastLSN()

	dir := t.TempDir()
	w, err := p.AttachWAL(wal.Options{Dir: dir, Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if w.NextLSN() != backlog+1 {
		t.Fatalf("WAL continues at %d after attach, want %d", w.NextLSN(), backlog+1)
	}
	runTxns(t, c, "dn0", 5, 10, 200)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	logged := logFrom(t, p, 1)
	if len(recs) != len(logged) || len(recs) <= int(backlog) {
		t.Fatalf("WAL holds %d records, the log %d", len(recs), len(logged))
	}
	for i, r := range recs {
		if r.LSN != logged[i].LSN || r.Type != logged[i].Type || r.Txn != logged[i].Txn || r.TS != logged[i].TS {
			t.Fatalf("WAL record %v, log record %v", r, logged[i])
		}
	}

	// The log of a second primary, truncated past LSN 1, no longer holds
	// what a fresh WAL needs; the first primary's WAL runs past the second's
	// log.
	q := NewPrimary(n, "dn1", "east", 1, repl.Async, 1)
	runTxns(t, c, "dn1", 2, 1, 100)
	q.Log().Truncate(3)
	if _, err := q.AttachWAL(wal.Options{Dir: t.TempDir()}); err == nil {
		t.Fatal("attached a WAL that misses the truncated records")
	}
	if _, err := q.AttachWAL(wal.Options{Dir: dir}); err == nil {
		t.Fatal("attached a WAL that ends past the log")
	}
}
