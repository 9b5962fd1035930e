package datanode

import (
	"context"
	"errors"
	"testing"
	"time"

	"globaldb/internal/clock"
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

// pushSink registers a push endpoint in the client's region and returns the
// channel its pushes land on.
func (r *rig) pushSink(name string) <-chan StatusPush {
	got := make(chan StatusPush, 16)
	r.client.ServePushes(name, func(p StatusPush) { got <- p })
	return got
}

// noPush fails if a push lands on got within a few round trips.
func noPush(t *testing.T, got <-chan StatusPush, after string) {
	t.Helper()
	select {
	case p := <-got:
		t.Fatalf("%s: pushed %+v", after, p)
	case <-time.After(30 * time.Millisecond):
	}
}

// TestReplicaPushesEachAdvance: once a probe has named an endpoint, a replica
// sends it one StatusPush for every batch that moves its applied watermark,
// carrying the new watermark and replay position; a batch that commits
// nothing sends none, and neither does a replica that is down or that no
// probe has subscribed.
func TestReplicaPushesEachAdvance(t *testing.T) {
	r := newRig(t, repl.Async)
	got := r.pushSink("sink")
	heartbeat := func(stamp ts.Timestamp) {
		t.Helper()
		if err := r.client.Heartbeat(bg, "dn0", stamp); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "heartbeat replay", func() bool { return r.replica.Applier().MaxCommitTS() == stamp })
	}
	heartbeat(500)
	noPush(t, got, "an advance before any probe subscribed")

	st, err := r.client.Status(bg, "dn0r0", StatusReq{PushTo: "sink"})
	if err != nil || st.LastCommitTS != 500 {
		t.Fatalf("subscribing probe: %+v %v", st, err)
	}
	heartbeat(600)
	select {
	case p := <-got:
		if p.Node != "dn0r0" || p.Status.LastCommitTS != 600 || p.Status.AppliedLSN != r.primary.Log().LastLSN() {
			t.Fatalf("push %+v, want dn0r0 at 600, LSN %d", p, r.primary.Log().LastLSN())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no push for an advance")
	}
	noPush(t, got, "one advance")

	// Staged intents replay without moving the watermark.
	if err := r.client.Write(bg, "dn0", 1, 0, []WriteOp{{Key: []byte("k"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "write replay", func() bool { return r.replica.Applier().AppliedLSN() == r.primary.Log().LastLSN() })
	noPush(t, got, "a batch that committed nothing")

	// Down for readers (and status) while replay goes on: a crashed node
	// tells nobody anything.
	r.replica.Endpoint().SetDown(true)
	heartbeat(700)
	noPush(t, got, "an advance while down")
	r.replica.Endpoint().SetDown(false)
	heartbeat(800)
	if p := <-got; p.Status.LastCommitTS != 800 {
		t.Fatalf("push after the restart: %+v", p)
	}
}

// TestStatusProbeAnswersAtOnce: a probe never parks, a replica or a primary;
// a later probe's PushTo replaces the endpoint an earlier one named, a probe
// without one leaves it as it is, and a primary, whose watermark the RCP
// does not use, pushes nothing.
func TestStatusProbeAnswersAtOnce(t *testing.T) {
	r := newRig(t, repl.Async)
	first, second := r.pushSink("first"), r.pushSink("second")
	for _, node := range []string{"dn0r0", "dn0"} {
		start := time.Now()
		if _, err := r.client.Status(bg, node, StatusReq{PushTo: "first"}); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("a probe of %s took %v", node, took)
		}
	}
	for i, probe := range []StatusReq{{PushTo: "second"}, {}} {
		if _, err := r.client.Status(bg, "dn0r0", probe); err != nil {
			t.Fatal(err)
		}
		stamp := ts.Timestamp(100 * (i + 1))
		if err := r.client.Heartbeat(bg, "dn0", stamp); err != nil {
			t.Fatal(err)
		}
		select {
		case p := <-second:
			if p.Node != "dn0r0" || p.Status.LastCommitTS != stamp {
				t.Fatalf("push %+v, want dn0r0 at %v", p, stamp)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("probe %d: no push to the endpoint the last PushTo named", i)
		}
	}
	noPush(t, first, "a replaced subscription (or a primary)")
}

// TestStampHeartbeat: under GClock a primary stamps its own log, with no
// message, at its clock's lower bound, and a ThenCommit right after it
// commits above the stamp by its clock alone. Without an oracle in GClock
// mode it stamps nothing and says so; a crashed primary stamps nothing.
func TestStampHeartbeat(t *testing.T) {
	r := newRig(t, repl.Async)
	if _, ok := r.primary.StampHeartbeat(); ok {
		t.Fatal("a primary without an oracle stamped a heartbeat")
	}
	oracle := gclockOracle("dn0", clock.Real())
	r.primary.SetOracle(oracle)
	for _, mode := range []ts.Mode{ts.ModeGTM, ts.ModeDUAL} {
		oracle.SetMode(mode)
		if _, ok := r.primary.StampHeartbeat(); ok {
			t.Fatalf("stamped a heartbeat in %v mode", mode)
		}
	}
	if n := r.primary.Log().LastLSN(); n != 0 {
		t.Fatalf("%d records logged without a stamp", n)
	}
	oracle.SetMode(ts.ModeGClock)

	shipped, local := r.net.LinkStats("east", "west").Messages, r.net.LinkStats("east", "east").Messages
	stamp, ok := r.primary.StampHeartbeat()
	if !ok || stamp > ts.FromTime(time.Now()) {
		t.Fatalf("StampHeartbeat = %v %v, want a stamp true time has passed", stamp, ok)
	}
	if typ, _ := r.primary.Log().TypeAt(1); typ != redo.TypeHeartbeat || r.primary.Store().LastCommitTS() != stamp {
		t.Fatalf("logged %v, watermark %v; want a heartbeat at %v", typ, r.primary.Store().LastCommitTS(), stamp)
	}
	waitFor(t, "stamp replay", func() bool { return r.replica.Applier().MaxCommitTS() == stamp })
	if ships := r.net.LinkStats("east", "west").Messages - shipped; ships != 1 || r.net.LinkStats("east", "east").Messages != local {
		t.Fatalf("%d messages went to the replica, want the one redo batch, and none to the primary", ships)
	}
	resp, err := r.client.WriteCommit(bg, "dn0", 1, ts.Max, []WriteOp{{Key: []byte("k"), Value: []byte("v")}}, false, 0)
	if err != nil || resp.CommitTS <= stamp || resp.FloorBump != 0 {
		t.Fatalf("ThenCommit after the stamp: %+v %v, want above %v with no floor bump", resp, err, stamp)
	}

	r.primary.Endpoint().SetDown(true)
	last := r.primary.Log().LastLSN()
	if _, ok := r.primary.StampHeartbeat(); !ok || r.primary.Log().LastLSN() != last {
		t.Fatal("a crashed primary stamped its log, or asked for a HeartbeatReq")
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
	p.Log().AppendBatch([]redo.Record{redo.Record{Type: redo.TypeHeapUpdate, Txn: 1, Key: []byte("k"), Value: []byte("v")}})
	p.Store().MarkPending(1)
	p.Log().AppendBatch([]redo.Record{redo.Record{Type: redo.TypePendingCommit, Txn: 1}})

	// Replay only the prefix (heap + pending) to the replica.
	if _, err := rep.Applier().Apply(logFrom(t, p, 1)); err != nil {
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
	p.Log().AppendBatch([]redo.Record{redo.Record{Type: redo.TypeCommit, Txn: 1, TS: 99}})
	if _, err := rep.Applier().Apply(logFrom(t, p, 3)); err != nil {
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
