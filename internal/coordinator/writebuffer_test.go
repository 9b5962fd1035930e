package coordinator

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"globaldb/internal/clock"
	"globaldb/internal/datanode"
	"globaldb/internal/gtm"
	"globaldb/internal/netsim"
	"globaldb/internal/obs"
	"globaldb/internal/repl"
	"globaldb/internal/ror"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/table"
	"globaldb/internal/ts"
	"globaldb/internal/tso"
)

var bg = context.Background()

// geoRegions is the three-city triangle; shard i's primary lives in
// geoRegions[i], so every CN has one home shard and two remote ones.
var geoRegions = []string{"xian", "langzhong", "dongguan"}

// geoRig is a quiet three-region deployment — primaries only, no replicas,
// no RCP collector, clock-based timestamps on the CNs and, as cluster.Open
// wires them, on the primaries — so every message on a link belongs to the
// transaction under test and per-link counts are exact.
type geoRig struct {
	net       *netsim.Network
	routing   *Routing
	primaries []*datanode.Primary
	device    *clock.Device
	seq       uint64
}

// gclockOracle returns an oracle in GClock mode over a fresh node clock.
func (r *geoRig) gclockOracle(name string, client *gtm.Client) *tso.Oracle {
	oracle := tso.New(name, clock.NewNode(clock.DefaultNodeConfig(), clock.Real(), r.device), client)
	oracle.SetMode(ts.ModeGClock)
	return oracle
}

func newGeoRig(t *testing.T) *geoRig {
	t.Helper()
	n := netsim.New(netsim.Config{TimeScale: 0.02})
	n.SetLink("xian", "langzhong", 25*time.Millisecond, 0)
	n.SetLink("langzhong", "dongguan", 35*time.Millisecond, 0)
	n.SetLink("xian", "dongguan", 55*time.Millisecond, 0)
	gtm.Serve(n, "langzhong", gtm.NewServer())
	r := &geoRig{net: n, routing: NewRouting(len(geoRegions)), device: clock.NewDevice("all", clock.Real())}
	for shard, region := range geoRegions {
		p := datanode.NewPrimary(n, fmt.Sprintf("dn%d", shard), region, shard, repl.Async, 1)
		p.SetOracle(r.gclockOracle(p.ID(), nil))
		r.primaries = append(r.primaries, p)
		r.routing.SetPrimary(shard, p.ID())
	}
	return r
}

// cn builds a computing node homed in region, its tracker seeded with the
// topology's round trips the way cluster.Open seeds it.
func (r *geoRig) cn(t *testing.T, region string) *CN {
	t.Helper()
	r.seq++
	oracle := r.gclockOracle("cn-"+region, gtm.NewClient(r.net, region))
	cn := New(DefaultConfig(), oracle.Name(), region, r.seq, datanode.NewClient(r.net, region), oracle, r.routing, table.NewCatalog())
	tr := ror.NewTracker()
	for shard, p := range r.primaries {
		oneWay, err := r.net.OneWay(region, p.Region(), 0)
		if err != nil {
			t.Fatal(err)
		}
		tr.AddNode(shard, p.ID(), p.Region(), true, 2*oneWay)
	}
	cn.SetTracker(tr)
	t.Cleanup(cn.Quiesce)
	return cn
}

// sent counts the messages region has put on the wire toward every region,
// its own included: the requests a CN there has issued.
func (r *geoRig) sent(region string) int64 {
	var n int64
	for _, to := range geoRegions {
		n += r.net.LinkStats(region, to).Messages
	}
	return n
}

func (r *geoRig) unresolved(shard int) int { return r.primaries[shard].Store().Stats().ActiveTxns }

func gkey(shard, i int) []byte { return []byte(fmt.Sprintf("s%d-key-%04d", shard, i)) }

func begin(t *testing.T, cn *CN) *Txn {
	t.Helper()
	txn, err := cn.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	return txn
}

// seed commits one key per shard so read-modify-write shapes have a row.
func seed(t *testing.T, cn *CN, shards ...int) {
	t.Helper()
	for _, shard := range shards {
		txn := begin(t, cn)
		if err := txn.Put(bg, shard, gkey(shard, 1), []byte("seed")); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(bg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGetAnswersFromWriteBuffer: reads of keys the transaction has written
// are served from the CN's buffer — latest value, deletes as not-found — and
// cost no RPC at all.
func TestGetAnswersFromWriteBuffer(t *testing.T) {
	r := newGeoRig(t)
	cn := r.cn(t, "xian")
	txn := begin(t, cn)
	before := r.sent("xian")
	k := gkey(2, 7)
	if err := txn.Put(bg, 2, k, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Put(bg, 2, k, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := txn.Get(bg, 2, k); err != nil || !found || string(v) != "v2" {
		t.Fatalf("get after put: %q %v %v", v, found, err)
	}
	if err := txn.Delete(bg, 2, k); err != nil {
		t.Fatal(err)
	}
	if _, found, err := txn.Get(bg, 2, k); err != nil || found {
		t.Fatalf("get after delete: found=%v err=%v", found, err)
	}
	if got := r.sent("xian") - before; got != 0 {
		t.Fatalf("buffered writes and reads sent %d messages, want 0", got)
	}
	if err := txn.Commit(bg); err != nil {
		t.Fatal(err)
	}
	// The rewrites collapsed: one delete reached the primary, and it holds.
	check := begin(t, cn)
	if _, found, _ := check.Get(bg, 2, k); found {
		t.Fatal("deleted key visible after commit")
	}
	check.Commit(bg)
}

// drain reads a transaction's view of [start, end) on one shard through a
// synchronous cursor: one ScanPage message per page and none ahead, so the
// message counts below stay exact.
func drain(txn *Txn, shard int, start, end []byte) ([]mvcc.KV, error) {
	cur := txn.ScanCursor(bg, shard, ScanSpec{Start: start, End: end, Prefetch: -1})
	defer cur.Close()
	var kvs []mvcc.KV
	for cur.NextBatch(bg) {
		kvs = append(kvs, cur.Batch()...)
	}
	return kvs, cur.Err()
}

// TestScanFlushesBufferedWritesOnce: a scan of a shard with buffered writes
// first makes them intents at the primary (one plain Write), so the data
// node evaluates the scan over them; later scans flush nothing more.
func TestScanFlushesBufferedWritesOnce(t *testing.T) {
	r := newGeoRig(t)
	cn := r.cn(t, "xian")
	txn := begin(t, cn)
	txn.Put(bg, 1, gkey(1, 1), []byte("a"))
	txn.Put(bg, 1, gkey(1, 2), []byte("b"))
	before := r.sent("xian")
	kvs, err := drain(txn, 1, gkey(1, 0), gkey(1, 9))
	if err != nil || len(kvs) != 2 {
		t.Fatalf("scan over buffered writes: %v %v", kvs, err)
	}
	if got := r.sent("xian") - before; got != 2 {
		t.Fatalf("first scan sent %d messages, want 2 (Write, ScanPage)", got)
	}
	kvs, err = drain(txn, 1, gkey(1, 0), gkey(1, 9))
	if err != nil || len(kvs) != 2 {
		t.Fatalf("scan over flushed writes: %v %v", kvs, err)
	}
	if got := r.sent("xian") - before; got != 3 {
		t.Fatalf("second scan re-flushed: %d messages in all, want 3", got)
	}
	// A key written after the flush is buffered again and read from there.
	txn.Put(bg, 1, gkey(1, 3), []byte("c"))
	if v, found, _ := txn.Get(bg, 1, gkey(1, 3)); !found || string(v) != "c" {
		t.Fatalf("get of re-buffered key: %q %v", v, found)
	}
	if err := txn.Commit(bg); err != nil {
		t.Fatal(err)
	}
}

// TestScanCursorSurfacesFlushConflict: the flush before a scan is where a
// write-write conflict can surface; the cursor carries it as its error.
func TestScanCursorSurfacesFlushConflict(t *testing.T) {
	r := newGeoRig(t)
	cn := r.cn(t, "xian")
	holder := begin(t, cn)
	holder.Put(bg, 0, gkey(0, 5), []byte("h"))
	if _, err := drain(holder, 0, gkey(0, 0), gkey(0, 9)); err != nil {
		t.Fatal(err)
	}
	loser := begin(t, cn)
	loser.Put(bg, 0, gkey(0, 5), []byte("l"))
	for _, cur := range loser.ScanCursors(bg, 3, ScanSpec{Start: gkey(0, 0), End: gkey(0, 9)}) {
		if cur.NextBatch(bg) || !errors.Is(cur.Err(), mvcc.ErrWriteConflict) {
			t.Fatalf("cursor after a conflicting flush: err = %v", cur.Err())
		}
		cur.Close()
	}
	loser.Abort(bg)
	if err := holder.Commit(bg); err != nil {
		t.Fatal(err)
	}
	if n := r.unresolved(0); n != 0 {
		t.Fatalf("%d transactions left unresolved on shard 0", n)
	}
}

// TestWriteBufferFlushesAtPageSize: a shard's buffer is bounded — the op
// that fills it to DefaultScanPageSize sends one plain Write — so bulk
// transactions do not sit on the CN.
func TestWriteBufferFlushesAtPageSize(t *testing.T) {
	r := newGeoRig(t)
	cn := r.cn(t, "xian")
	txn := begin(t, cn)
	before := r.sent("xian")
	for i := 0; i < datanode.DefaultScanPageSize-1; i++ {
		if err := txn.Put(bg, 1, gkey(1, i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.sent("xian") - before; got != 0 {
		t.Fatalf("%d messages before the buffer filled, want 0", got)
	}
	if err := txn.Put(bg, 1, gkey(1, datanode.DefaultScanPageSize-1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := r.sent("xian") - before; got != 1 {
		t.Fatalf("filling the buffer sent %d messages, want 1", got)
	}
	if n := r.unresolved(1); n != 1 {
		t.Fatalf("primary holds %d open transactions after the flush, want 1", n)
	}
	txn.Put(bg, 1, gkey(1, 9000), []byte("tail"))
	if err := txn.Commit(bg); err != nil {
		t.Fatal(err)
	}
	check := begin(t, cn)
	for _, i := range []int{0, datanode.DefaultScanPageSize - 1, 9000} {
		if _, found, err := check.Get(bg, 1, gkey(1, i)); err != nil || !found {
			t.Fatalf("key %d after commit: found=%v err=%v", i, found, err)
		}
	}
	check.Commit(bg)
}

// TestAbortOfUnflushedBufferSendsNothing: writes that never left the CN
// need no rollback — Abort sends no message and the primaries never hear of
// the transaction.
func TestAbortOfUnflushedBufferSendsNothing(t *testing.T) {
	r := newGeoRig(t)
	cn := r.cn(t, "xian")
	txn := begin(t, cn)
	before := r.sent("xian")
	txn.Put(bg, 0, gkey(0, 3), []byte("x"))
	txn.Put(bg, 2, gkey(2, 3), []byte("y"))
	if err := txn.Abort(bg); err != nil {
		t.Fatal(err)
	}
	if got := r.sent("xian") - before; got != 0 {
		t.Fatalf("abort of buffered writes sent %d messages, want 0", got)
	}
	for _, shard := range []int{0, 2} {
		if n := r.unresolved(shard); n != 0 {
			t.Fatalf("shard %d knows %d transactions", shard, n)
		}
	}
	if cn.Stats().Aborts != 1 {
		t.Fatalf("aborts = %d, want 1", cn.Stats().Aborts)
	}
	// A flushed shard is rolled back, an unflushed one left alone.
	txn = begin(t, cn)
	txn.Put(bg, 2, gkey(2, 4), []byte("y"))
	if _, err := drain(txn, 2, gkey(2, 0), gkey(2, 9)); err != nil {
		t.Fatal(err)
	}
	txn.Put(bg, 0, gkey(0, 4), []byte("x"))
	homeBefore := r.net.LinkStats("xian", "xian").Messages
	if err := txn.Abort(bg); err != nil {
		t.Fatal(err)
	}
	if n := r.unresolved(2); n != 0 {
		t.Fatalf("flushed shard still holds %d transactions after abort", n)
	}
	if got := r.net.LinkStats("xian", "xian").Messages - homeBefore; got != 0 {
		t.Fatalf("abort sent %d messages to the unflushed home shard", got)
	}
}

// TestCrossRegionMessagesPerTransaction is the deterministic round-trip
// gate: it pins how many messages the canonical write transactions put on a
// WAN link, which is what their latency is made of.
func TestCrossRegionMessagesPerTransaction(t *testing.T) {
	r := newGeoRig(t)
	xian := r.cn(t, "xian")
	seed(t, xian, 0, 2)
	wan := func(from, to string) int64 { return r.net.LinkStats(from, to).Messages }

	// A remote read-modify-write costs its read plus one message under
	// GClock — the primary's clock issues the commit timestamp — and plus two
	// when the primary's oracle is in DUAL or GTM mode: the same request, the
	// same handler, which then stops after PENDING COMMIT and leaves the
	// timestamp to the CN.
	for _, tc := range []struct {
		primaryMode ts.Mode
		want        int64
		shape       string
	}{
		{ts.ModeGClock, 2, "Read, Write+Commit"},
		{ts.ModeDUAL, 3, "Read, Write+Pending, Commit"},
		{ts.ModeGTM, 3, "Read, Write+Pending, Commit"},
	} {
		name := "remote read-modify-write"
		if tc.primaryMode != ts.ModeGClock {
			name += ", primary in " + tc.primaryMode.String()
		}
		t.Run(name, func(t *testing.T) {
			r.primaries[2].Oracle().SetMode(tc.primaryMode)
			defer r.primaries[2].Oracle().SetMode(ts.ModeGClock)
			before := wan("xian", "dongguan")
			txn := begin(t, xian)
			v, found, err := txn.Get(bg, 2, gkey(2, 1))
			if err != nil || !found {
				t.Fatalf("read: %v %v", found, err)
			}
			if err := txn.Put(bg, 2, gkey(2, 1), append(v, '+')); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(bg); err != nil {
				t.Fatal(err)
			}
			if got := wan("xian", "dongguan") - before; got != tc.want {
				t.Fatalf("%d cross-region messages, want %d (%s)", got, tc.want, tc.shape)
			}
			if vs := r.primaries[2].Store().Versions(gkey(2, 1)); len(vs) == 0 || vs[0].CommitTS != txn.CommitTS() || txn.CommitTS() == 0 {
				t.Fatalf("committed versions %v, transaction reports %v", vs, txn.CommitTS())
			}
			if lower := xian.Oracle().Clock().Now().Lower(); lower <= txn.CommitTS() {
				t.Fatalf("acked with the CN clock at %v, not past the commit timestamp %v", lower, txn.CommitTS())
			}
			if n := r.unresolved(2); n != 0 {
				t.Fatalf("remote shard left %d transactions unresolved", n)
			}
		})
	}

	t.Run("home+remote two-phase commit", func(t *testing.T) {
		release := make(chan struct{})
		xian.SetResolveDropHook(func(uint64) bool { <-release; return false })
		defer xian.SetResolveDropHook(nil)
		before := wan("xian", "dongguan")
		txn := begin(t, xian)
		if _, _, err := txn.Get(bg, 2, gkey(2, 1)); err != nil {
			t.Fatal(err)
		}
		txn.Put(bg, 0, gkey(0, 1), []byte("home"))
		txn.Put(bg, 2, gkey(2, 1), []byte("remote"))
		if err := txn.Commit(bg); err != nil {
			t.Fatal(err)
		}
		// Acked, phase two held back: the remote shard has seen the read and
		// the fused Write+Prepare, and no decision message — the anchor is
		// the home shard, so decision durability was a local WAL wait.
		if got := wan("xian", "dongguan") - before; got != 2 {
			t.Fatalf("%d cross-region messages before the ack, want 2 (Read, Write+Prepare)", got)
		}
		inDoubt, err := datanode.NewClient(r.net, "dongguan").InDoubt(bg, "dn2")
		if err != nil || len(inDoubt) != 1 || inDoubt[0].Anchor != "dn0" {
			t.Fatalf("remote participant in doubt: %+v %v, want one txn anchored at dn0", inDoubt, err)
		}
		close(release)
		xian.Quiesce()
		if got := wan("xian", "dongguan") - before; got != 3 {
			t.Fatalf("%d cross-region messages in all, want 3 (+ background CommitPrepared)", got)
		}
		if n := r.unresolved(2); n != 0 {
			t.Fatalf("remote shard left %d transactions unresolved", n)
		}
	})

	t.Run("anchor is the nearest participant, not the lowest shard", func(t *testing.T) {
		dongguan := r.cn(t, "dongguan")
		release := make(chan struct{})
		dongguan.SetResolveDropHook(func(uint64) bool { <-release; return false })
		before := wan("dongguan", "xian")
		txn := begin(t, dongguan)
		txn.Put(bg, 0, gkey(0, 1), []byte("far"))
		txn.Put(bg, 2, gkey(2, 1), []byte("near"))
		if err := txn.Commit(bg); err != nil {
			t.Fatal(err)
		}
		if got := wan("dongguan", "xian") - before; got != 1 {
			t.Fatalf("%d messages to the far shard before the ack, want 1 (Write+Prepare)", got)
		}
		if v := r.primaries[2].Store().Versions(gkey(2, 1)); len(v) == 0 || v[0].CommitTS != txn.CommitTS() {
			t.Fatalf("anchor (home shard 2) not committed at the ack: %v", v)
		}
		close(release)
		dongguan.Quiesce()
		if got := wan("dongguan", "xian") - before; got != 2 {
			t.Fatalf("%d messages to the far shard in all, want 2", got)
		}
	})

	t.Run("no home shard: lowest latency wins", func(t *testing.T) {
		// From Xi'an, Langzhong (25 ms) is nearer than Dongguan (55 ms).
		release := make(chan struct{})
		xian.SetResolveDropHook(func(uint64) bool { <-release; return false })
		defer xian.SetResolveDropHook(nil)
		txn := begin(t, xian)
		txn.Put(bg, 2, gkey(2, 8), []byte("far"))
		txn.Put(bg, 1, gkey(1, 8), []byte("nearer"))
		if err := txn.Commit(bg); err != nil {
			t.Fatal(err)
		}
		inDoubt, err := datanode.NewClient(r.net, "dongguan").InDoubt(bg, "dn2")
		if err != nil || len(inDoubt) != 1 || inDoubt[0].Anchor != "dn1" {
			t.Fatalf("far participant in doubt: %+v %v, want one txn anchored at dn1", inDoubt, err)
		}
		close(release)
		xian.Quiesce()
	})
}

// TestThenCommitOnlyUnderGClock pins when a coordinator delegates the commit
// timestamp to the primary and what it leaves behind to tell: only with its
// own oracle in GClock mode and for a transaction that did not begin under
// GTM; the counter and the commit span name the path that ran.
func TestThenCommitOnlyUnderGClock(t *testing.T) {
	r := newGeoRig(t)
	xian := r.cn(t, "xian")
	wan := func(from, to string) int64 { return r.net.LinkStats(from, to).Messages }

	t.Run("a CN outside GClock mode does not delegate", func(t *testing.T) {
		// The primary would issue; the CN's own mode says the cluster is in
		// transition, so the timestamp comes from the GTM server as before.
		xian.Oracle().SetMode(ts.ModeDUAL)
		defer xian.Oracle().SetMode(ts.ModeGClock)
		before, oneMsg := wan("xian", "dongguan"), metricOneMsgCommits.Value()
		txn := begin(t, xian)
		txn.Put(bg, 2, gkey(2, 2), []byte("dual"))
		if err := txn.Commit(bg); err != nil {
			t.Fatal(err)
		}
		if got := wan("xian", "dongguan") - before; got != 2 {
			t.Fatalf("%d cross-region messages, want 2 (Write+Pending, Commit)", got)
		}
		if got := metricOneMsgCommits.Value() - oneMsg; got != 0 {
			t.Fatalf("one-message commit counter moved by %d on the two-message path", got)
		}
	})

	t.Run("a GTM-begun transaction still aborts after the switch", func(t *testing.T) {
		xian.Oracle().SetMode(ts.ModeGTM)
		txn := begin(t, xian)
		xian.Oracle().SetMode(ts.ModeGClock)
		txn.Put(bg, 2, gkey(2, 3), []byte("stale"))
		if err := txn.Commit(bg); !errors.Is(err, gtm.ErrOldModeAborted) {
			t.Fatalf("commit of a GTM-begun transaction on a GClock node: %v, want Fig. 2's abort", err)
		}
		if n := r.unresolved(2); n != 0 {
			t.Fatalf("aborted transaction left %d unresolved on the remote shard", n)
		}
		if vs := r.primaries[2].Store().Versions(gkey(2, 3)); len(vs) != 0 {
			t.Fatalf("aborted write committed: %v", vs)
		}
	})

	t.Run("the commit span and counter say which path ran", func(t *testing.T) {
		commit := func() string {
			trace := obs.NewTrace("test")
			txn := begin(t, xian)
			txn.Put(bg, 2, gkey(2, 4), []byte("traced"))
			if err := txn.Commit(obs.WithSpan(bg, trace.Root())); err != nil {
				t.Fatal(err)
			}
			trace.Root().End()
			return strings.Join(trace.Render(), "\n")
		}
		oneMsg := metricOneMsgCommits.Value()
		if out := commit(); !strings.Contains(out, "path=one-message floor-bump=") {
			t.Fatalf("commit span of a one-message commit:\n%s", out)
		}
		if got := metricOneMsgCommits.Value() - oneMsg; got != 1 {
			t.Fatalf("one-message commit counter moved by %d, want 1", got)
		}
		r.primaries[2].Oracle().SetMode(ts.ModeGTM)
		defer r.primaries[2].Oracle().SetMode(ts.ModeGClock)
		if out := commit(); !strings.Contains(out, "path=two-message") {
			t.Fatalf("commit span of a two-message commit:\n%s", out)
		}
	})
}

// TestCommitConflictAbortsEveryParticipant: a fused Write+Prepare that loses
// a write-write conflict on one shard rolls the transaction back on all of
// them, including shards whose message staged cleanly.
func TestCommitConflictAbortsEveryParticipant(t *testing.T) {
	r := newGeoRig(t)
	cn := r.cn(t, "xian")
	winner := begin(t, cn)
	loser := begin(t, cn)
	winner.Put(bg, 1, gkey(1, 5), []byte("w"))
	loser.Put(bg, 0, gkey(0, 5), []byte("l0"))
	loser.Put(bg, 1, gkey(1, 5), []byte("l1"))
	loser.Put(bg, 2, gkey(2, 5), []byte("l2"))
	if err := winner.Commit(bg); err != nil {
		t.Fatal(err)
	}
	if err := loser.Commit(bg); !errors.Is(err, mvcc.ErrWriteConflict) {
		t.Fatalf("loser commit: %v, want write-write conflict", err)
	}
	for shard := range geoRegions {
		if n := r.unresolved(shard); n != 0 {
			t.Fatalf("shard %d left %d transactions unresolved", shard, n)
		}
		if inDoubt, _ := datanode.NewClient(r.net, "xian").InDoubt(bg, r.primaries[shard].ID()); len(inDoubt) != 0 {
			t.Fatalf("shard %d still in doubt: %+v", shard, inDoubt)
		}
	}
	check := begin(t, cn)
	if _, found, _ := check.Get(bg, 0, gkey(0, 5)); found {
		t.Fatal("aborted write visible on a shard that staged cleanly")
	}
	if v, _, _ := check.Get(bg, 1, gkey(1, 5)); string(v) != "w" {
		t.Fatalf("contended key = %q, want the winner's value", v)
	}
	check.Commit(bg)
}
