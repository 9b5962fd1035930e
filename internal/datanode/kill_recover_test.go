package datanode

import (
	"context"
	"fmt"
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
// contract end to end: commits acked under wal.SyncGroup must survive a
// crash that does NOT drain the archiver (Archiver.Kill). Concurrent
// committers hammer one primary; every ack the client observed must be
// visible after WAL replay.
func TestKillAndRecoverAckedCommitsDurable(t *testing.T) {
	dir := t.TempDir()
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.SetLink("east", "west", 2*time.Millisecond, 0)
	p := NewPrimary(n, "dn0", "east", 0, repl.Async, 1)
	arch, err := p.AttachWALOptions(wal.Options{
		Dir:    dir,
		Sync:   wal.SyncGroup,
		Linger: 200 * time.Microsecond,
	}, 0)
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
	if err := arch.Kill(); err != nil { // crash: no drain, no final sync
		t.Fatal(err)
	}
	p.Endpoint().SetDown(true)

	n2 := netsim.New(netsim.Config{TimeScale: 0.2})
	p2, closer2, err := RecoverPrimaryOptions(n2, "dn0", "east", 0,
		wal.Options{Dir: dir, Sync: wal.SyncGroup}, repl.Async, 1, 0)
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
	arch, err := p.AttachWALOptions(wal.Options{Dir: dir, Sync: wal.SyncGroup}, 0)
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
	if err := arch.Kill(); err != nil {
		t.Fatal(err)
	}
	p.Endpoint().SetDown(true)

	n2 := netsim.New(netsim.Config{TimeScale: 0.2})
	n2.SetLink("east", "west", 2*time.Millisecond, 0)
	_, closer2, err := RecoverPrimaryOptions(n2, "dn0", "east", 0,
		wal.Options{Dir: dir, Sync: wal.SyncGroup}, repl.Async, 1, 0)
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

// TestTruncationWaitsForWALArchiver: redo truncation must not outrun the WAL
// archiver, which tails the same in-memory log as the shippers. A replica in
// the primary's own region acknowledges at once while a slowed device sync
// holds the archiver back, heartbeats (which no ack waits for) keep the log
// running ahead of it, and a truncation round runs every millisecond. With
// only the shippers consulted the archiver's next read finds its records
// gone, which is terminal, and durability ends without a sound.
func TestTruncationWaitsForWALArchiver(t *testing.T) {
	dir := t.TempDir()
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.AddRegion("east")
	p := NewPrimary(n, "dn0", "east", 0, repl.Async, 1)
	arch, err := p.AttachWALOptions(wal.Options{
		Dir:        dir,
		Sync:       wal.SyncEveryBatch,
		FsyncDelay: 2 * time.Millisecond,
	}, 16)
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
					t.Errorf("commit (archiver error: %v): %v", arch.Err(), err)
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
	if err := arch.Err(); err != nil {
		t.Fatalf("archiver stopped: %v", err)
	}
	if p.Log().Retained() >= int(p.Log().LastLSN()) {
		t.Fatalf("nothing was truncated: %d of %d records retained", p.Log().Retained(), p.Log().LastLSN())
	}
	if err := arch.Kill(); err != nil { // crash: no drain
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
