package datanode

import (
	"context"
	"errors"
	"testing"
	"time"

	"globaldb/internal/netsim"
	"globaldb/internal/redo"
	"globaldb/internal/repl"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
)

var bg = context.Background()

type rig struct {
	net     *netsim.Network
	primary *Primary
	replica *Replica
	client  *Client
}

// newRig builds one primary in "east" with one replica in "west" and a
// client in "east".
func newRig(t *testing.T, mode repl.Mode) *rig {
	t.Helper()
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.SetLink("east", "west", 20*time.Millisecond, 0)
	r := &rig{net: n}
	r.primary = NewPrimary(n, "dn0", "east", 0, mode, 1)
	r.replica = NewReplica(n, "dn0r0", "west", 0)
	sh := NewShipperForTest(n, r.primary, r.replica)
	t.Cleanup(sh.Stop)
	r.client = NewClient(n, "east")
	return r
}

// NewShipperForTest wires a shipper from primary to replica with default
// config and registers it with the primary's manager.
func NewShipperForTest(n *netsim.Network, p *Primary, r *Replica) *repl.Shipper {
	sh := repl.NewShipper(repl.DefaultShipperConfig(), n, p.Region(), ReplEndpointName(r.ID()), p.Log(), p.Repl().AckHook())
	p.Repl().AddShipper(sh)
	sh.Start()
	return sh
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWriteCommitReadCycle(t *testing.T) {
	r := newRig(t, repl.Async)
	ops := []WriteOp{{Key: []byte("k1"), Value: []byte("v1")}, {Key: []byte("k2"), Value: []byte("v2")}}
	if err := r.client.Write(bg, "dn0", 1, 0, ops); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Pending(bg, "dn0", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Commit(bg, "dn0", 1, 100, false); err != nil {
		t.Fatal(err)
	}
	v, found, err := r.client.Read(bg, "dn0", []byte("k1"), 100, 0)
	if err != nil || !found || string(v) != "v1" {
		t.Fatalf("read: %q %v %v", v, found, err)
	}
	// The replica converges to the same state.
	waitFor(t, "replica replay", func() bool { return r.replica.Applier().MaxCommitTS() >= 100 })
	v, found, err = r.client.Read(bg, "dn0r0", []byte("k2"), 100, 0)
	if err != nil || !found || string(v) != "v2" {
		t.Fatalf("replica read: %q %v %v", v, found, err)
	}
}

func TestWriteConflictPropagates(t *testing.T) {
	r := newRig(t, repl.Async)
	if err := r.client.Write(bg, "dn0", 1, 0, []WriteOp{{Key: []byte("k"), Value: []byte("a")}}); err != nil {
		t.Fatal(err)
	}
	err := r.client.Write(bg, "dn0", 2, 0, []WriteOp{{Key: []byte("k"), Value: []byte("b")}})
	if err == nil {
		t.Fatal("conflicting write must fail")
	}
	// Loser aborts; winner proceeds.
	if err := r.client.Abort(bg, "dn0", 2); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Pending(bg, "dn0", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Commit(bg, "dn0", 1, 10, false); err != nil {
		t.Fatal(err)
	}
}

func TestAbortCleansReplica(t *testing.T) {
	r := newRig(t, repl.Async)
	r.client.Write(bg, "dn0", 5, 0, []WriteOp{{Key: []byte("x"), Value: []byte("ghost")}})
	r.client.Pending(bg, "dn0", 5)
	if err := r.client.Abort(bg, "dn0", 5); err != nil {
		t.Fatal(err)
	}
	// Write a later txn so we can detect replay completion.
	r.client.Write(bg, "dn0", 6, 0, []WriteOp{{Key: []byte("y"), Value: []byte("real")}})
	r.client.Pending(bg, "dn0", 6)
	r.client.Commit(bg, "dn0", 6, 50, false)
	waitFor(t, "replay", func() bool { return r.replica.Applier().MaxCommitTS() >= 50 })
	_, found, err := r.client.Read(bg, "dn0r0", []byte("x"), ts.Max, 0)
	if err != nil || found {
		t.Fatalf("aborted write on replica: found=%v err=%v", found, err)
	}
}

func TestDeleteOp(t *testing.T) {
	r := newRig(t, repl.Async)
	r.client.Write(bg, "dn0", 1, 0, []WriteOp{{Key: []byte("k"), Value: []byte("v")}})
	r.client.Pending(bg, "dn0", 1)
	r.client.Commit(bg, "dn0", 1, 10, false)
	if err := r.client.Write(bg, "dn0", 2, 10, []WriteOp{{Delete: true, Key: []byte("k")}}); err != nil {
		t.Fatal(err)
	}
	r.client.Pending(bg, "dn0", 2)
	r.client.Commit(bg, "dn0", 2, 20, false)
	if _, found, _ := r.client.Read(bg, "dn0", []byte("k"), 20, 0); found {
		t.Fatal("deleted key visible")
	}
	if _, found, _ := r.client.Read(bg, "dn0", []byte("k"), 10, 0); !found {
		t.Fatal("pre-delete snapshot must see the key")
	}
	waitFor(t, "replay", func() bool { return r.replica.Applier().MaxCommitTS() >= 20 })
	if _, found, _ := r.client.Read(bg, "dn0r0", []byte("k"), 20, 0); found {
		t.Fatal("deleted key visible on replica")
	}
}

func TestScanOnPrimaryAndReplica(t *testing.T) {
	r := newRig(t, repl.Async)
	ops := []WriteOp{
		{Key: []byte("a1"), Value: []byte("1")},
		{Key: []byte("a2"), Value: []byte("2")},
		{Key: []byte("b1"), Value: []byte("3")},
	}
	r.client.Write(bg, "dn0", 1, 0, ops)
	r.client.Pending(bg, "dn0", 1)
	r.client.Commit(bg, "dn0", 1, 10, false)
	kvs, err := scanAll(r.client, "dn0", []byte("a"), []byte("b"), 10, 0)
	if err != nil || len(kvs) != 2 {
		t.Fatalf("primary scan: %v %v", kvs, err)
	}
	waitFor(t, "replay", func() bool { return r.replica.Applier().MaxCommitTS() >= 10 })
	kvs, err = scanAll(r.client, "dn0r0", nil, nil, 10, 2)
	if err != nil || len(kvs) != 2 {
		t.Fatalf("replica limited scan: %v %v", kvs, err)
	}
}

// scanAll drains a range on one node page by page, as the coordinator's
// cursors do; limit <= 0 means no limit.
func scanAll(c *Client, node string, start, end []byte, snap ts.Timestamp, limit int) ([]mvcc.KV, error) {
	var out []mvcc.KV
	for {
		resp, err := c.ScanPageFrag(bg, node, start, end, snap, limit-len(out), 0, nil, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, resp.KVs...)
		if !resp.More || (limit > 0 && len(out) >= limit) {
			return out, nil
		}
		start = resp.Next
	}
}

func TestTwoPhaseCommitFlow(t *testing.T) {
	r := newRig(t, repl.Async)
	r.client.Write(bg, "dn0", 9, 0, []WriteOp{{Key: []byte("k"), Value: []byte("v")}})
	if err := r.client.Prepare(bg, "dn0", 9, "dn0"); err != nil {
		t.Fatal(err)
	}
	// Prepared intents block readers on the primary too.
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	_, _, err := r.client.Read(ctx, "dn0", []byte("k"), ts.Max, 0)
	cancel()
	if err == nil {
		t.Fatal("prepared tuple must block reads")
	}
	if err := r.client.CommitPrepared(bg, "dn0", 9, 30, false); err != nil {
		t.Fatal(err)
	}
	v, found, err := r.client.Read(bg, "dn0", []byte("k"), 30, 0)
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("after commit prepared: %q %v %v", v, found, err)
	}
	waitFor(t, "replay", func() bool { return r.replica.Applier().MaxCommitTS() >= 30 })
}

func TestAbortPreparedFlow(t *testing.T) {
	r := newRig(t, repl.Async)
	r.client.Write(bg, "dn0", 9, 0, []WriteOp{{Key: []byte("k"), Value: []byte("v")}})
	r.client.Prepare(bg, "dn0", 9, "dn0")
	if err := r.client.AbortPrepared(bg, "dn0", 9); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := r.client.Read(bg, "dn0", []byte("k"), ts.Max, 0); found {
		t.Fatal("aborted prepared write visible")
	}
}

func TestHeartbeatAdvancesReplica(t *testing.T) {
	r := newRig(t, repl.Async)
	if err := r.client.Heartbeat(bg, "dn0", 777); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "heartbeat replay", func() bool { return r.replica.Applier().MaxCommitTS() >= 777 })
	st, err := r.client.Status(bg, "dn0r0", StatusReq{})
	if err != nil || st.LastCommitTS < 777 {
		t.Fatalf("replica status: %+v %v", st, err)
	}
	if st.Primary {
		t.Fatal("replica must not report primary role")
	}
}

func TestDDLRecordReachesReplica(t *testing.T) {
	r := newRig(t, repl.Async)
	if err := r.client.DDL(bg, "dn0", 42, 900, []byte(`{"name":"t"}`)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ddl replay", func() bool { return r.replica.Applier().MaxDDLTS() >= 900 })
}

// TestStatusLoadAndRole pins what a status answer says about the node: its
// role, and as Load the reads and writes in flight — not the status request
// that is asking, which would make every idle node report 1 and inflate
// every routing cost by the same amount.
func TestStatusLoadAndRole(t *testing.T) {
	r := newRig(t, repl.Async)
	status := func(node string) StatusResp {
		t.Helper()
		st, err := r.client.Status(bg, node, StatusReq{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := status("dn0"); !st.Primary || st.Load != 0 {
		t.Fatalf("idle primary: %+v, want Primary and Load 0", st)
	}
	if st := status("dn0r0"); st.Primary || st.Load != 0 {
		t.Fatalf("idle replica: %+v, want a replica and Load 0", st)
	}

	// Park n reads per node on an unresolved intent: a PENDING COMMIT
	// transaction blocks readers on the primary and, once replayed, on the
	// replica, until its outcome arrives.
	const n = 3
	if err := r.client.WriteThen(bg, "dn0", 1, 0, []WriteOp{{Key: []byte("k"), Value: []byte("v")}}, ThenPending, ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "PENDING COMMIT replay", func() bool {
		return r.replica.Applier().AppliedLSN() == r.primary.Log().LastLSN()
	})
	reads := make(chan error, 2*n)
	for _, node := range []string{"dn0", "dn0r0"} {
		for i := 0; i < n; i++ {
			go func(node string) {
				_, _, err := r.client.Read(bg, node, []byte("k"), ts.Max, 0)
				reads <- err
			}(node)
		}
	}
	waitFor(t, "reads to park", func() bool {
		return r.primary.inflight.Load() == n && r.replica.inflight.Load() == n
	})
	if st := status("dn0"); st.Load != n {
		t.Fatalf("primary Load = %d with %d reads parked", st.Load, n)
	}
	if st := status("dn0r0"); st.Load != n {
		t.Fatalf("replica Load = %d with %d reads parked", st.Load, n)
	}
	if err := r.client.Commit(bg, "dn0", 1, 100, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*n; i++ {
		if err := <-reads; err != nil {
			t.Fatalf("parked read: %v", err)
		}
	}
	if p, rep := status("dn0"), status("dn0r0"); p.Load != 0 || rep.Load != 0 {
		t.Fatalf("Load after the reads returned: primary %d, replica %d", p.Load, rep.Load)
	}
}

// TestStatusLongPollAnswersOnAdvance: a status request with Wait parks at the
// replica until replay passes After, is not load while it is parked, and is
// answered with the new watermark the moment the batch is applied.
func TestStatusLongPollAnswersOnAdvance(t *testing.T) {
	r := newRig(t, repl.Async)
	if err := r.client.Heartbeat(bg, "dn0", 500); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first heartbeat replay", func() bool { return r.replica.Applier().MaxCommitTS() == 500 })

	type answer struct {
		st  StatusResp
		err error
	}
	parked := make(chan answer, 1)
	go func() {
		st, err := r.client.Status(bg, "dn0r0", StatusReq{After: 500, Wait: time.Minute})
		parked <- answer{st, err}
	}()
	// A plain status overtakes the parked one and does not see it as load.
	st, err := r.client.Status(bg, "dn0r0", StatusReq{})
	if err != nil || st.LastCommitTS != 500 || st.Load != 0 {
		t.Fatalf("plain status beside a parked one: %+v %v", st, err)
	}
	select {
	case a := <-parked:
		t.Fatalf("long poll answered with nothing new: %+v %v", a.st, a.err)
	default:
	}

	if err := r.client.Heartbeat(bg, "dn0", 600); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-parked:
		if a.err != nil || a.st.LastCommitTS != 600 || a.st.AppliedLSN != r.primary.Log().LastLSN() {
			t.Fatalf("long poll answer: %+v %v", a.st, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll still parked after the watermark passed After")
	}

	// Already past After: answered at once, Wait or not.
	start := time.Now()
	if st, err := r.client.Status(bg, "dn0r0", StatusReq{After: 500, Wait: time.Minute}); err != nil || st.LastCommitTS != 600 {
		t.Fatalf("status past After: %+v %v", st, err)
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("status past After took %v", e)
	}
}

// TestStatusLongPollRunsOutAndCancels: with nothing to report the replica
// answers when Wait runs out, with the watermark it has; a cancelled caller
// is released at once; and a primary does not park at all.
func TestStatusLongPollRunsOutAndCancels(t *testing.T) {
	r := newRig(t, repl.Async)
	const wait = 30 * time.Millisecond
	start := time.Now()
	st, err := r.client.Status(bg, "dn0r0", StatusReq{After: 0, Wait: wait})
	if err != nil || st.LastCommitTS != 0 {
		t.Fatalf("timed-out long poll: %+v %v", st, err)
	}
	if e := time.Since(start); e < wait {
		t.Fatalf("long poll with nothing to report answered after %v, before Wait (%v) ran out", e, wait)
	}

	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := r.client.Status(ctx, "dn0r0", StatusReq{After: 0, Wait: time.Minute})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled long poll: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled long poll still parked")
	}

	start = time.Now()
	if st, err := r.client.Status(bg, "dn0", StatusReq{After: ts.Max, Wait: time.Minute}); err != nil || !st.Primary {
		t.Fatalf("primary status: %+v %v", st, err)
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("a primary parked a status request for %v", e)
	}
}

func TestSyncReplicationCommitLatency(t *testing.T) {
	r := newRig(t, repl.SyncQuorum)
	r.client.Write(bg, "dn0", 1, 0, []WriteOp{{Key: []byte("k"), Value: []byte("v")}})
	r.client.Pending(bg, "dn0", 1)
	start := time.Now()
	if err := r.client.Commit(bg, "dn0", 1, 10, false); err != nil {
		t.Fatal(err)
	}
	// Scaled one-way is 2ms; a sync commit pays at least the shipping
	// round trip on top of the client RTT (client is local to primary).
	if e := time.Since(start); e < 4*time.Millisecond {
		t.Fatalf("sync commit returned in %v; replication wait missing", e)
	}
	if r.primary.Repl().MinAckedLSN() < r.primary.Log().LastLSN() {
		t.Fatal("commit acked before the replica applied it")
	}
}

func TestCommitUnknownTxnFails(t *testing.T) {
	r := newRig(t, repl.Async)
	if err := r.client.Commit(bg, "dn0", 999, 5, false); err == nil {
		t.Fatal("committing an unknown txn must fail")
	}
}

func TestEndpointDownFailsFast(t *testing.T) {
	r := newRig(t, repl.Async)
	r.primary.Endpoint().SetDown(true)
	if _, _, err := r.client.Read(bg, "dn0", []byte("k"), 1, 0); !errors.Is(err, netsim.ErrEndpointDown) {
		t.Fatalf("down primary: %v", err)
	}
}

func TestPromotionFromReplicaStore(t *testing.T) {
	r := newRig(t, repl.Async)
	r.client.Write(bg, "dn0", 1, 0, []WriteOp{{Key: []byte("k"), Value: []byte("v")}})
	r.client.Pending(bg, "dn0", 1)
	r.client.Commit(bg, "dn0", 1, 10, false)
	waitFor(t, "replay", func() bool { return r.replica.Applier().MaxCommitTS() >= 10 })

	// Primary dies; replica's store is promoted under a new endpoint.
	r.primary.Endpoint().SetDown(true)
	promoted := NewPrimaryFromStore(r.net, "dn0-promoted", "west", 0, r.replica.Applier().Store(), repl.Async, 1)
	v, found, err := r.client.Read(bg, "dn0-promoted", []byte("k"), 10, 0)
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("promoted read: %q %v %v", v, found, err)
	}
	// Writes continue on the promoted primary.
	if err := r.client.Write(bg, "dn0-promoted", 2, 10, []WriteOp{{Key: []byte("k2"), Value: []byte("v2")}}); err != nil {
		t.Fatal(err)
	}
	r.client.Pending(bg, "dn0-promoted", 2)
	if err := r.client.Commit(bg, "dn0-promoted", 2, 20, false); err != nil {
		t.Fatal(err)
	}
	if promoted.Store().LastCommitTS() != 20 {
		t.Fatalf("promoted watermark = %v", promoted.Store().LastCommitTS())
	}
}

func TestReplicaPendingCommitLockDuringLag(t *testing.T) {
	// A reader at a fresh snapshot that touches a pending tuple on the
	// replica must wait for the commit record rather than miss the txn.
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.SetLink("east", "west", 20*time.Millisecond, 0)
	p := NewPrimary(n, "p", "east", 0, repl.Async, 1)
	rep := NewReplica(n, "r", "west", 0)
	// Ship manually so we control batch boundaries.
	cli := NewClient(n, "west")

	p.Store().Put(1, []byte("k"), []byte("v"), 0)
	p.Log().Append(redo.Record{Type: redo.TypeHeapUpdate, Txn: 1, Key: []byte("k"), Value: []byte("v")})
	p.Store().MarkPending(1)
	p.Log().Append(redo.Record{Type: redo.TypePendingCommit, Txn: 1})

	// Replay only the prefix (heap + pending) to the replica.
	recs, _ := p.Log().ReadFrom(1, 0)
	if _, err := rep.Applier().Apply(recs); err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		v, _, _ := cli.Read(bg, "r", []byte("k"), ts.Max, 0)
		got <- string(v)
	}()
	select {
	case v := <-got:
		t.Fatalf("read returned %q during pending window", v)
	case <-time.After(30 * time.Millisecond):
	}
	// Now the commit record arrives.
	p.Store().Commit(1, 99)
	p.Log().Append(redo.Record{Type: redo.TypeCommit, Txn: 1, TS: 99})
	recs, _ = p.Log().ReadFrom(3, 0)
	if _, err := rep.Applier().Apply(recs); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "v" {
			t.Fatalf("reader got %q", v)
		}
	case <-time.After(time.Second):
		t.Fatal("reader stuck after commit replay")
	}
}
