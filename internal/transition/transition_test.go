package transition

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globaldb/internal/clock"
	"globaldb/internal/gtm"
	"globaldb/internal/netsim"
	"globaldb/internal/ts"
	"globaldb/internal/tso"
)

var bg = context.Background()

type rig struct {
	server  *gtm.Server
	oracles []*tso.Oracle
	ctl     *Controller
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	net := netsim.New(netsim.Config{})
	net.AddRegion("r")
	server := gtm.NewServer()
	gtm.Serve(net, "r", server)
	r := &rig{server: server}
	nodes := make([]Node, 0, n)
	for i := 0; i < n; i++ {
		dev := clock.NewDevice("r", clock.Real())
		nc := clock.NewNode(clock.DefaultNodeConfig(), clock.Real(), dev)
		stop := nc.Start()
		t.Cleanup(stop)
		o := tso.New("cn"+string(rune('0'+i)), nc, gtm.NewClient(net, "r"))
		r.oracles = append(r.oracles, o)
		nodes = append(nodes, o)
	}
	r.ctl = NewController(server, nodes...)
	return r
}

func TestToGClockSwitchesEverything(t *testing.T) {
	r := newRig(t, 3)
	if err := r.ctl.ToGClock(bg); err != nil {
		t.Fatal(err)
	}
	if r.server.Mode() != ts.ModeGClock {
		t.Fatalf("server mode = %v", r.server.Mode())
	}
	for _, o := range r.oracles {
		if o.Mode() != ts.ModeGClock {
			t.Fatalf("%s mode = %v", o.Name(), o.Mode())
		}
	}
	// Idempotent.
	if err := r.ctl.ToGClock(bg); err != nil {
		t.Fatal(err)
	}
}

func TestToGTMSwitchesBackWithFloor(t *testing.T) {
	r := newRig(t, 2)
	if err := r.ctl.ToGClock(bg); err != nil {
		t.Fatal(err)
	}
	// Issue GClock commits so the server must floor above them.
	var maxCommit ts.Timestamp
	for i := 0; i < 5; i++ {
		c, finish, err := r.oracles[0].Commit(bg, ts.ModeGClock)
		if err != nil {
			t.Fatal(err)
		}
		finish(bg)
		maxCommit = c
	}
	if err := r.ctl.ToGTM(bg); err != nil {
		t.Fatal(err)
	}
	if r.server.Mode() != ts.ModeGTM {
		t.Fatalf("server mode = %v", r.server.Mode())
	}
	b, err := r.oracles[1].Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Snap <= maxCommit {
		t.Fatalf("first GTM timestamp %v must exceed last GClock commit %v", b.Snap, maxCommit)
	}
	for _, o := range r.oracles {
		if o.Mode() != ts.ModeGTM {
			t.Fatalf("%s mode = %v", o.Name(), o.Mode())
		}
	}
}

func TestRoundTripTwiceStaysMonotonic(t *testing.T) {
	r := newRig(t, 2)
	o := r.oracles[0]
	var last ts.Timestamp
	commitOne := func() {
		t.Helper()
		b, err := o.Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		c, finish, err := o.Commit(bg, b.Mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := finish(bg); err != nil {
			t.Fatal(err)
		}
		if c <= last {
			t.Fatalf("commit %v after %v: monotonicity broken across transitions", c, last)
		}
		last = c
	}
	commitOne() // GTM
	if err := r.ctl.ToGClock(bg); err != nil {
		t.Fatal(err)
	}
	commitOne() // GClock
	if err := r.ctl.ToGTM(bg); err != nil {
		t.Fatal(err)
	}
	commitOne() // GTM again
	if err := r.ctl.ToGClock(bg); err != nil {
		t.Fatal(err)
	}
	commitOne() // GClock again
}

// TestZeroDowntimeUnderLoad drives continuous transactions on every node
// through a full GTM→GClock→GTM cycle. The cluster must keep committing:
// the only tolerated failures are stale GTM-mode transactions aborting at
// the mode boundary (which a client would simply retry), and every node's
// commit timestamps must be strictly increasing — the external-consistency
// invariant the DUAL-mode waits exist to protect.
func TestZeroDowntimeUnderLoad(t *testing.T) {
	r := newRig(t, 3)
	var stop atomic.Bool
	var aborted, committed atomic.Int64
	var wg sync.WaitGroup
	for _, o := range r.oracles {
		wg.Add(1)
		go func(o *tso.Oracle) {
			defer wg.Done()
			var prev ts.Timestamp
			for !stop.Load() {
				b, err := o.Begin(bg)
				if err != nil {
					if errors.Is(err, gtm.ErrOldModeAborted) {
						aborted.Add(1)
						continue
					}
					t.Errorf("begin: %v", err)
					return
				}
				c, finish, err := o.Commit(bg, b.Mode)
				if err != nil {
					if errors.Is(err, gtm.ErrOldModeAborted) {
						aborted.Add(1)
						continue
					}
					t.Errorf("commit: %v", err)
					return
				}
				if err := finish(bg); err != nil {
					t.Errorf("finish: %v", err)
					return
				}
				if c <= prev {
					t.Errorf("%s: commit %v not after %v", o.Name(), c, prev)
					return
				}
				prev = c
				committed.Add(1)
			}
		}(o)
	}

	time.Sleep(30 * time.Millisecond)
	if err := r.ctl.ToGClock(bg); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := r.ctl.ToGTM(bg); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if committed.Load() < 100 {
		t.Fatalf("only %d commits across the transition; the cluster effectively stalled", committed.Load())
	}
	t.Logf("committed=%d aborted(stale GTM)=%d", committed.Load(), aborted.Load())
}

// TestListing1Anomaly reproduces the scenario of Listing 1. Node3's clock
// reads far ahead (within a large but honest error bound); its DUAL request
// raises the server's internal timestamp. A GTM-mode transaction then
// commits with an even larger DUAL timestamp. Without the prescribed
// 2×Terrmax wait, a GClock-mode transaction beginning immediately afterwards
// on an accurate node would receive a smaller snapshot and miss the commit.
// With the wait, the snapshot exceeds the commit timestamp.
func TestListing1Anomaly(t *testing.T) {
	net := netsim.New(netsim.Config{})
	net.AddRegion("r")
	server := gtm.NewServer()
	gtm.Serve(net, "r", server)
	server.SetMode(ts.ModeDUAL)

	mkClock := func(syncRTT time.Duration, skew time.Duration) *clock.Node {
		dev := clock.NewDevice("r", clock.Real())
		cfg := clock.DefaultNodeConfig()
		cfg.SyncRTT = syncRTT
		nc := clock.NewNode(cfg, clock.Real(), dev)
		stop := nc.Start()
		t.Cleanup(stop)
		nc.SetFaultSkew(skew)
		return nc
	}

	// Node3: clock 20ms ahead, honestly reported via a 25ms error bound.
	n3clock := mkClock(25*time.Millisecond, 20*time.Millisecond)
	n3 := tso.New("node3", n3clock, gtm.NewClient(net, "r"))
	n3.SetMode(ts.ModeDUAL)

	// Node3 sends its large GClock timestamp to the GTM server (the
	// "Send large GClock timestamp ts3" step).
	b3, err := n3.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}

	// Node1: an old GTM-mode transaction commits via the DUAL-mode server.
	n1 := tso.New("node1", mkClock(60*time.Microsecond, 0), gtm.NewClient(net, "r"))
	n1.SetMode(ts.ModeGTM)

	// First, demonstrate the anomaly exists without the wait: ask the
	// server directly and compare against an immediate accurate reading.
	rawResp, err := server.Handle(gtm.Request{Mode: ts.ModeGTM})
	if err != nil {
		t.Fatal(err)
	}
	accurate := mkClock(60*time.Microsecond, 0)
	if snapNow := accurate.Now().Upper(); snapNow >= rawResp.TS {
		t.Skipf("clock advanced too far to exhibit the anomaly window (snap %v >= ts1 %v)", snapNow, rawResp.TS)
	}
	if rawResp.Wait == 0 {
		t.Fatal("server must prescribe a wait for GTM transactions during DUAL mode")
	}

	// Now the protocol-following path: Commit honors the wait.
	c1, _, err := n1.Commit(bg, ts.ModeGTM)
	if err != nil {
		t.Fatal(err)
	}

	// Node2: already in GClock mode with an accurate clock, begins after
	// node1's commit returned.
	n2 := tso.New("node2", mkClock(60*time.Microsecond, 0), gtm.NewClient(net, "r"))
	n2.SetMode(ts.ModeGClock)
	b2, err := n2.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Snap <= c1 {
		t.Fatalf("Listing 1 anomaly: Trx2 snapshot %v <= Trx1 commit %v; Trx2 would miss Trx1's update", b2.Snap, c1)
	}
	_ = b3
}

// TestManualSleepInjection verifies the dwell uses the controller's Sleep.
func TestManualSleepInjection(t *testing.T) {
	r := newRig(t, 1)
	var slept []time.Duration
	r.ctl.Sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	if err := r.ctl.ToGClock(bg); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 {
		t.Fatalf("dwell sleeps = %v", slept)
	}
	if slept[0] < r.ctl.MinDwell {
		t.Fatalf("dwell %v below MinDwell", slept[0])
	}
	// The dwell must be at least 2×Terrmax observed during the transition.
	if want := 2 * r.server.TerrMax(); slept[0] < want {
		t.Fatalf("dwell %v < 2×Terrmax %v", slept[0], want)
	}
}

func TestTransitionCancelable(t *testing.T) {
	r := newRig(t, 1)
	r.ctl.MinDwell = time.Hour
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	err := r.ctl.ToGClock(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

// TestTransitionReplaceNode: a retired node stops issuing, the timestamps it
// handed out — including one far ahead of any live clock, as a floor bump or
// a failed device produces — are floored over by a later ToGTM that never
// asks it, and its replacement joins in the current mode and follows later
// transitions.
func TestTransitionReplaceNode(t *testing.T) {
	r := newRig(t, 2)
	if err := r.ctl.ToGClock(bg); err != nil {
		t.Fatal(err)
	}
	old := r.oracles[1]
	ahead, _, ok := old.IssueAbove(ts.FromTime(time.Now().Add(time.Minute)))
	if !ok {
		t.Fatal("node in GClock mode issued nothing")
	}
	dev := clock.NewDevice("r", clock.Real())
	fresh := tso.New("fresh", clock.NewNode(clock.DefaultNodeConfig(), clock.Real(), dev), nil)
	if err := r.ctl.Replace(old, fresh); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := old.IssueAbove(0); ok {
		t.Fatal("retired node still issues timestamps")
	}
	if fresh.Mode() != ts.ModeGClock {
		t.Fatalf("replacement joined in %v mode, want the server's GClock", fresh.Mode())
	}
	if err := r.ctl.Replace(old, fresh); err == nil {
		t.Fatal("replacing a node the controller no longer has must fail")
	}
	if err := r.ctl.ToGTM(bg); err != nil {
		t.Fatal(err)
	}
	if fresh.Mode() != ts.ModeGTM {
		t.Fatalf("replacement did not follow the transition: %v", fresh.Mode())
	}
	b, err := r.oracles[0].Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Snap <= ahead {
		t.Fatalf("first GTM timestamp %v is not above %v, issued by the retired node", b.Snap, ahead)
	}
}
