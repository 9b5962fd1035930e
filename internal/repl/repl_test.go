package repl

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"globaldb/internal/netsim"
	"globaldb/internal/redo"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
)

var bg = context.Background()

// writeTxn appends a transaction's records to a log: heap writes, PENDING
// COMMIT, then COMMIT.
func writeTxn(log *redo.Log, txn uint64, commitTS ts.Timestamp, kv map[string]string) {
	var recs []redo.Record
	for k, v := range kv {
		recs = append(recs, redo.Record{Type: redo.TypeHeapInsert, Txn: txn, Key: []byte(k), Value: []byte(v)})
	}
	recs = append(recs, redo.Record{Type: redo.TypePendingCommit, Txn: txn})
	recs = append(recs, redo.Record{Type: redo.TypeCommit, Txn: txn, TS: commitTS})
	log.AppendBatch(recs)
}

func TestApplierBasicReplay(t *testing.T) {
	log := redo.NewLog()
	writeTxn(log, 1, 100, map[string]string{"a": "1", "b": "2"})
	writeTxn(log, 2, 200, map[string]string{"a": "3"})
	recs, _ := log.ReadFrom(1, 0)

	a := NewApplier(mvcc.NewStore())
	applied, err := a.Apply(recs)
	if err != nil {
		t.Fatal(err)
	}
	if applied != uint64(len(recs)) {
		t.Fatalf("applied = %d", applied)
	}
	if a.MaxCommitTS() != 200 {
		t.Fatalf("MaxCommitTS = %v", a.MaxCommitTS())
	}
	v, ok, _ := a.Store().Get(bg, []byte("a"), 150, 0)
	if !ok || string(v) != "1" {
		t.Fatalf("a@150 = %q,%v", v, ok)
	}
	v, ok, _ = a.Store().Get(bg, []byte("a"), 200, 0)
	if !ok || string(v) != "3" {
		t.Fatalf("a@200 = %q,%v", v, ok)
	}
}

func TestApplierIdempotentAndGapDetection(t *testing.T) {
	log := redo.NewLog()
	writeTxn(log, 1, 100, map[string]string{"k": "v"})
	recs, _ := log.ReadFrom(1, 0)
	a := NewApplier(mvcc.NewStore())
	if _, err := a.Apply(recs); err != nil {
		t.Fatal(err)
	}
	// Re-applying the same batch must be a no-op.
	applied, err := a.Apply(recs)
	if err != nil || applied != uint64(len(recs)) {
		t.Fatalf("re-apply: %d %v", applied, err)
	}
	// A gap must be rejected with the current position.
	writeTxn(log, 2, 200, map[string]string{"k": "v2"})
	writeTxn(log, 3, 300, map[string]string{"k": "v3"})
	tail, _ := log.ReadFrom(uint64(len(recs))+4, 0) // skip txn 2's records
	if _, err := a.Apply(tail); err == nil {
		t.Fatal("gap must be detected")
	}
	if a.MaxCommitTS() != 100 {
		t.Fatal("gapped batch must not apply")
	}
}

func TestApplierAbortDiscards(t *testing.T) {
	log := redo.NewLog()
	log.AppendBatch([]redo.Record{
		{Type: redo.TypeHeapInsert, Txn: 1, Key: []byte("k"), Value: []byte("v")},
		{Type: redo.TypePendingCommit, Txn: 1},
		{Type: redo.TypeAbort, Txn: 1},
	})
	recs, _ := log.ReadFrom(1, 0)
	a := NewApplier(mvcc.NewStore())
	if _, err := a.Apply(recs); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := a.Store().Get(bg, []byte("k"), ts.Max, 0); ok {
		t.Fatal("aborted write visible on replica")
	}
}

func TestApplierPendingBlocksReaderUntilCommit(t *testing.T) {
	a := NewApplier(mvcc.NewStore())
	a.Apply([]redo.Record{
		{LSN: 1, Type: redo.TypeHeapInsert, Txn: 1, Key: []byte("k"), Value: []byte("v")},
		{LSN: 2, Type: redo.TypePendingCommit, Txn: 1},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, ok, err := a.Store().Get(bg, []byte("k"), ts.Max, 0)
		if err != nil || !ok || string(v) != "v" {
			t.Errorf("read after commit: %q %v %v", v, ok, err)
		}
	}()
	select {
	case <-done:
		t.Fatal("reader must block on a pending-commit tuple")
	case <-time.After(20 * time.Millisecond):
	}
	a.Apply([]redo.Record{{LSN: 3, Type: redo.TypeCommit, Txn: 1, TS: 50}})
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("reader stuck after commit replay")
	}
}

func TestApplierTwoPhaseCommitRecords(t *testing.T) {
	a := NewApplier(mvcc.NewStore())
	a.Apply([]redo.Record{
		{LSN: 1, Type: redo.TypeHeapInsert, Txn: 9, Key: []byte("k"), Value: []byte("v")},
		{LSN: 2, Type: redo.TypePrepare, Txn: 9},
	})
	// Prepared tuples block readers.
	ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
	defer cancel()
	if _, _, err := a.Store().Get(ctx, []byte("k"), ts.Max, 0); err == nil {
		t.Fatal("prepared tuple must block reads")
	}
	a.Apply([]redo.Record{{LSN: 3, Type: redo.TypeCommitPrepared, Txn: 9, TS: 77}})
	v, ok, err := a.Store().Get(bg, []byte("k"), 77, 0)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("after COMMIT PREPARED: %q %v %v", v, ok, err)
	}
	if a.MaxCommitTS() != 77 {
		t.Fatalf("MaxCommitTS = %v", a.MaxCommitTS())
	}
}

func TestApplierHeartbeatAndDDL(t *testing.T) {
	a := NewApplier(mvcc.NewStore())
	var ddlSeen []redo.Record
	a.SetDDLHook(func(r redo.Record) { ddlSeen = append(ddlSeen, r) })
	a.Apply([]redo.Record{
		{LSN: 1, Type: redo.TypeHeartbeat, TS: 500},
		{LSN: 2, Type: redo.TypeDDL, Txn: 42, TS: 600, Key: []byte("tbl"), Value: []byte("schema")},
	})
	if a.MaxCommitTS() != 600 {
		t.Fatalf("watermark = %v", a.MaxCommitTS())
	}
	if a.MaxDDLTS() != 600 {
		t.Fatalf("MaxDDLTS = %v", a.MaxDDLTS())
	}
	if len(ddlSeen) != 1 || ddlSeen[0].Txn != 42 {
		t.Fatalf("DDL hook: %v", ddlSeen)
	}
}

// TestApplierNotifyApplied: the channel is closed by the next replay, and a
// waiter that takes it before checking the watermark cannot miss one.
func TestApplierNotifyApplied(t *testing.T) {
	a := NewApplier(mvcc.NewStore())
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	ch := a.NotifyApplied()
	if closed(ch) || a.NotifyApplied() != ch {
		t.Fatal("waiters between two replays share one open channel")
	}
	a.Apply([]redo.Record{{LSN: 1, Type: redo.TypeHeartbeat, TS: 5}})
	if !closed(ch) || a.MaxCommitTS() != 5 {
		t.Fatal("Apply must close the channel after the watermark has moved")
	}
	ch = a.NotifyApplied()
	if closed(ch) {
		t.Fatal("a channel taken after a replay waits for the next one")
	}
	a.Apply([]redo.Record{{LSN: 2, Type: redo.TypeHeartbeat, TS: 6}})
	if !closed(ch) || a.AppliedLSN() != 2 {
		t.Fatal("a second Apply must close the channel taken after the first")
	}
}

// streamKeys is the keyspace randomStream writes.
const streamKeys = 40

// randomStream builds a redo stream the way a primary logs one: up to three
// transactions open at once on disjoint keys (the primary refuses a foreign
// intent, so a key is free again only once its holder resolved), each
// resolved by COMMIT, PREPARE then COMMIT PREPARED, PREPARE then ABORT
// PREPARED, or ABORT, with heartbeats between. Later transactions rewrite
// and delete keys earlier ones committed.
func randomStream(rng *rand.Rand, txns int) []redo.Record {
	log := redo.NewLog()
	held := map[string]uint64{} // key -> open transaction holding its intent
	var open []uint64
	var commitTS ts.Timestamp = 10
	for next := uint64(1); next <= uint64(txns) || len(open) > 0; {
		if next <= uint64(txns) && (len(open) == 0 || len(open) < 3 && rng.Intn(2) == 0) {
			txn := next
			next++
			var recs []redo.Record
			for i := 0; i < 1+rng.Intn(8); i++ {
				k := fmt.Sprintf("key-%03d", rng.Intn(streamKeys))
				if h, ok := held[k]; ok && h != txn {
					continue
				}
				held[k] = txn
				r := redo.Record{Type: redo.TypeHeapUpdate, Txn: txn, Key: []byte(k), Value: []byte(fmt.Sprintf("v-%d-%d", txn, i))}
				if rng.Intn(6) == 0 {
					r.Type, r.Value = redo.TypeHeapDelete, nil
				}
				recs = append(recs, r)
			}
			if len(recs) > 0 {
				log.AppendBatch(recs)
			}
			open = append(open, txn)
			continue
		}
		i := rng.Intn(len(open))
		txn := open[i]
		open = append(open[:i], open[i+1:]...)
		for k, h := range held {
			if h == txn {
				delete(held, k)
			}
		}
		commitTS += ts.Timestamp(1 + rng.Intn(5))
		switch rng.Intn(10) {
		case 0:
			log.Append(redo.Record{Type: redo.TypeAbort, Txn: txn})
		case 1:
			log.AppendBatch([]redo.Record{{Type: redo.TypePrepare, Txn: txn}, {Type: redo.TypeAbortPrepared, Txn: txn}})
		case 2, 3:
			log.AppendBatch([]redo.Record{{Type: redo.TypePrepare, Txn: txn}, {Type: redo.TypeCommitPrepared, Txn: txn, TS: commitTS}})
		default:
			log.AppendBatch([]redo.Record{{Type: redo.TypePendingCommit, Txn: txn}, {Type: redo.TypeCommit, Txn: txn, TS: commitTS}})
		}
		if rng.Intn(5) == 0 {
			log.Append(redo.Record{Type: redo.TypeHeartbeat, TS: commitTS})
		}
	}
	recs, _ := log.ReadFrom(1, 0)
	return recs
}

// TestChunkedReplayMatchesOneBatch: a replica sees the stream in batches,
// and not once each. The shipper resends unacked batches (at-least-once),
// and the endpoint's reorder stash replays parked batches that overlap what
// it has applied since, so every chunk here repeats part of the previous
// one; now and then the chunk after it arrives first and must be refused
// untouched. Fed that way, Apply reaches the same versions, watermark and
// open intents as one Apply of the whole stream.
func TestChunkedReplayMatchesOneBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := randomStream(rng, 300)

	whole := NewApplier(mvcc.NewStore())
	if _, err := whole.Apply(recs); err != nil {
		t.Fatal(err)
	}

	chunked := NewApplier(mvcc.NewStore())
	prev := 0
	for i := 0; i < len(recs); {
		n := min(1+rng.Intn(32), len(recs)-i)
		if j := i + n; j < len(recs) && rng.Intn(4) == 0 {
			if applied, err := chunked.Apply(recs[j:min(j+8, len(recs))]); err == nil || applied != uint64(i) {
				t.Fatalf("early chunk at LSN %d: applied %d, err %v; want a gap error at %d", j+1, applied, err, i)
			}
		}
		from := i - rng.Intn(prev+1)
		if applied, err := chunked.Apply(recs[from : i+n]); err != nil || applied != uint64(i+n) {
			t.Fatalf("chunk [%d, %d): applied %d, err %v", from+1, i+n+1, applied, err)
		}
		prev = n
		i += n
	}

	if whole.AppliedLSN() != chunked.AppliedLSN() || whole.MaxCommitTS() != chunked.MaxCommitTS() {
		t.Fatalf("watermarks differ: LSN %d vs %d, commit %v vs %v",
			whole.AppliedLSN(), chunked.AppliedLSN(), whole.MaxCommitTS(), chunked.MaxCommitTS())
	}
	if a, b := whole.Store().Stats(), chunked.Store().Stats(); a.ActiveTxns != b.ActiveTxns || a.Versions != b.Versions {
		t.Fatalf("stores differ: %+v vs %+v", a, b)
	}
	for i := 0; i < streamKeys; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		a, b := whole.Store().Versions(key), chunked.Store().Versions(key)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d versions", key, len(a), len(b))
		}
		for j := range a {
			if a[j].CommitTS != b[j].CommitTS || a[j].Deleted != b[j].Deleted || !bytes.Equal(a[j].Value, b[j].Value) {
				t.Fatalf("%s version %d differs: %+v vs %+v", key, j, a[j], b[j])
			}
		}
	}
}

// shipRig wires one primary log to one replica applier across a simulated
// WAN link.
type shipRig struct {
	net     *netsim.Network
	log     *redo.Log
	applier *Applier
	shipper *Shipper
	mgr     *Manager
	ep      *netsim.Endpoint
}

func newShipRig(t *testing.T, rtt time.Duration, bw float64, cfg ShipperConfig, mode Mode) *shipRig {
	t.Helper()
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.SetLink("primary", "replica", rtt, bw)
	r := &shipRig{net: n, log: redo.NewLog(), applier: NewApplier(mvcc.NewStore())}
	r.mgr = NewManager(r.log, mode, 1)
	r.ep = ServeApplier(n, "repl-ep", "replica", r.applier)
	r.shipper = NewShipper(cfg, n, "primary", "repl-ep", r.log, r.mgr.AckHook())
	r.mgr.AddShipper(r.shipper)
	r.shipper.Start()
	t.Cleanup(r.shipper.Stop)
	return r
}

func waitFor(t *testing.T, what string, timeout time.Duration, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestShipperDeliversAndAcks(t *testing.T) {
	r := newShipRig(t, 30*time.Millisecond, 0, DefaultShipperConfig(), Async)
	for i := 0; i < 10; i++ {
		writeTxn(r.log, uint64(i+1), ts.Timestamp((i+1)*10), map[string]string{fmt.Sprintf("k%d", i): "v"})
	}
	last := r.log.LastLSN()
	waitFor(t, "replica catch-up", 5*time.Second, func() bool { return r.shipper.AckedLSN() == last })
	if r.applier.MaxCommitTS() != 100 {
		t.Fatalf("MaxCommitTS = %v", r.applier.MaxCommitTS())
	}
	st := r.shipper.Stats()
	if st.Batches == 0 || st.Records != int64(last) {
		t.Fatalf("stats: %+v", st)
	}
	if r.shipper.Lag() != 0 {
		t.Fatalf("lag = %d", r.shipper.Lag())
	}
}

func TestShipperCompressionShrinksWire(t *testing.T) {
	r := newShipRig(t, 10*time.Millisecond, 0, DefaultShipperConfig(), Async)
	big := bytes.Repeat([]byte("AAAA"), 256)
	for i := 0; i < 50; i++ {
		writeTxn(r.log, uint64(i+1), ts.Timestamp((i+1)*10), map[string]string{fmt.Sprintf("k%d", i): string(big)})
	}
	last := r.log.LastLSN()
	waitFor(t, "catch-up", 5*time.Second, func() bool { return r.shipper.AckedLSN() == last })
	st := r.shipper.Stats()
	if st.WireBytes >= st.RawBytes/2 {
		t.Fatalf("compression ineffective: wire=%d raw=%d", st.WireBytes, st.RawBytes)
	}
}

func TestSyncQuorumWaitsForReplica(t *testing.T) {
	r := newShipRig(t, 50*time.Millisecond, 0, DefaultShipperConfig(), SyncQuorum)
	writeTxn(r.log, 1, 10, map[string]string{"k": "v"})
	lsn := r.log.LastLSN()
	start := time.Now()
	if err := r.mgr.WaitDurable(bg, lsn); err != nil {
		t.Fatal(err)
	}
	// One-way 25ms × 0.2 scale = 5ms each way; the wait must reflect it.
	if e := time.Since(start); e < 5*time.Millisecond {
		t.Fatalf("sync wait returned too fast: %v", e)
	}
	if r.shipper.AckedLSN() < lsn {
		t.Fatal("WaitDurable returned before the replica acked")
	}
}

func TestAsyncDoesNotWait(t *testing.T) {
	r := newShipRig(t, 100*time.Millisecond, 0, DefaultShipperConfig(), Async)
	writeTxn(r.log, 1, 10, map[string]string{"k": "v"})
	start := time.Now()
	if err := r.mgr.WaitDurable(bg, r.log.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 5*time.Millisecond {
		t.Fatalf("async commit waited %v", e)
	}
}

func TestShipperRecoversFromReplicaOutage(t *testing.T) {
	r := newShipRig(t, 10*time.Millisecond, 0, DefaultShipperConfig(), Async)
	writeTxn(r.log, 1, 10, map[string]string{"a": "1"})
	waitFor(t, "initial ship", 5*time.Second, func() bool { return r.shipper.AckedLSN() == r.log.LastLSN() })

	r.ep.SetDown(true)
	writeTxn(r.log, 2, 20, map[string]string{"b": "2"})
	time.Sleep(30 * time.Millisecond)
	if r.applier.MaxCommitTS() != 10 {
		t.Fatal("records applied while replica was down")
	}
	r.ep.SetDown(false)
	waitFor(t, "recovery", 5*time.Second, func() bool { return r.shipper.AckedLSN() == r.log.LastLSN() })
	if r.applier.MaxCommitTS() != 20 {
		t.Fatalf("MaxCommitTS after recovery = %v", r.applier.MaxCommitTS())
	}
	if r.shipper.Stats().SendFailures == 0 {
		t.Fatal("outage must be visible in stats")
	}
}

func TestManagerTruncate(t *testing.T) {
	r := newShipRig(t, 5*time.Millisecond, 0, DefaultShipperConfig(), Async)
	for i := 0; i < 20; i++ {
		writeTxn(r.log, uint64(i+1), ts.Timestamp((i+1)*10), map[string]string{"k": "v"})
	}
	last := r.log.LastLSN()
	waitFor(t, "catch-up", 5*time.Second, func() bool { return r.mgr.MinAckedLSN() == last })
	r.mgr.Truncate()
	if _, err := r.log.ReadFrom(last-1, 1); err == nil {
		t.Fatal("log must be truncated below the acked prefix")
	}
	if recs, err := r.log.ReadFrom(last, 1); err != nil || len(recs) != 1 {
		t.Fatalf("the last acknowledged record was truncated: %v", err)
	}
	// New appends still ship.
	writeTxn(r.log, 99, 999, map[string]string{"z": "end"})
	waitFor(t, "post-truncate ship", 5*time.Second, func() bool { return r.shipper.AckedLSN() == r.log.LastLSN() })
}
