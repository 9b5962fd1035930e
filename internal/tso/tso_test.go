package tso

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"globaldb/internal/clock"
	"globaldb/internal/gtm"
	"globaldb/internal/netsim"
	"globaldb/internal/ts"
)

var bg = context.Background()

// rig wires a GTM server and n oracles over a zero-latency network.
type rig struct {
	net     *netsim.Network
	server  *gtm.Server
	oracles []*Oracle
	stops   []func()
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	r := &rig{net: netsim.New(netsim.Config{}), server: gtm.NewServer()}
	r.net.AddRegion("r")
	gtm.Serve(r.net, "r", r.server)
	for i := 0; i < n; i++ {
		dev := clock.NewDevice("r", clock.Real())
		nc := clock.NewNode(clock.DefaultNodeConfig(), clock.Real(), dev)
		stop := nc.Start()
		r.stops = append(r.stops, stop)
		o := New("cn"+string(rune('0'+i)), nc, gtm.NewClient(r.net, "r"))
		r.oracles = append(r.oracles, o)
	}
	t.Cleanup(func() {
		for _, s := range r.stops {
			s()
		}
	})
	return r
}

func TestGTMModeBeginCommit(t *testing.T) {
	r := newRig(t, 1)
	o := r.oracles[0]
	if o.Mode() != ts.ModeGTM {
		t.Fatal("oracle must start in GTM mode")
	}
	b1, err := o.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	c1, finish, err := o.Commit(bg, b1.Mode)
	if err != nil {
		t.Fatal(err)
	}
	if err := finish(bg); err != nil {
		t.Fatal(err)
	}
	if c1 <= b1.Snap {
		t.Fatalf("commit %v must exceed begin %v", c1, b1.Snap)
	}
	b2, _ := o.Begin(bg)
	if b2.Snap <= c1 {
		t.Fatalf("next begin %v must exceed previous commit %v", b2.Snap, c1)
	}
}

func TestGClockModeLocalTimestamps(t *testing.T) {
	r := newRig(t, 1)
	o := r.oracles[0]
	o.SetMode(ts.ModeGClock)
	b, err := o.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Mode != ts.ModeGClock {
		t.Fatalf("mode = %v", b.Mode)
	}
	// GClock timestamps are epoch-scale.
	if b.Snap < ts.Timestamp(1e15) {
		t.Fatalf("GClock snapshot %v is not epoch time", b.Snap)
	}
	c, finish, err := o.Commit(bg, b.Mode)
	if err != nil {
		t.Fatal(err)
	}
	if c <= b.Snap {
		t.Fatalf("commit %v <= begin %v", c, b.Snap)
	}
	if err := finish(bg); err != nil {
		t.Fatal(err)
	}
	// Commit wait completed: the clock's lower bound has passed c.
	if o.Clock().Now().Lower() <= c {
		t.Fatal("finish returned before the commit wait elapsed")
	}
	// No GTM requests were made.
	if st := r.server.Stats(); st.IssuedGTM != 0 && st.IssuedDual != 0 {
		t.Fatalf("GClock mode must not hit the GTM server: %+v", st)
	}
}

func TestGClockExternalConsistencyAcrossNodes(t *testing.T) {
	// R.1: commit-wait on node A finishes before node B begins => B's
	// snapshot exceeds A's commit timestamp. Run many rounds alternating.
	r := newRig(t, 2)
	a, b := r.oracles[0], r.oracles[1]
	a.SetMode(ts.ModeGClock)
	b.SetMode(ts.ModeGClock)
	for i := 0; i < 50; i++ {
		w, x := a, b
		if i%2 == 1 {
			w, x = b, a
		}
		c, finish, err := w.Commit(bg, ts.ModeGClock)
		if err != nil {
			t.Fatal(err)
		}
		if err := finish(bg); err != nil {
			t.Fatal(err)
		}
		snap, err := x.Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Snap <= c {
			t.Fatalf("round %d: snapshot %v <= prior commit %v (R.1 violated)", i, snap.Snap, c)
		}
	}
}

// TestGClockBeginSkipsTheWait: a GClock Begin returns Tclock + Terr at once,
// with the clock's lower bound at that reading as Settled, and records no
// invocation wait; a commit issued afterwards on the same oracle still lands
// above the snapshot. The centralized modes settle nothing.
func TestGClockBeginSkipsTheWait(t *testing.T) {
	r := newRig(t, 1)
	o := r.oracles[0]
	o.SetMode(ts.ModeGClock)
	inv := metricInvocationWait.Snapshot().Count
	s, err := o.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode != ts.ModeGClock || s.Snap == 0 || s.Settled == 0 || s.Settled >= s.Snap {
		t.Fatalf("Begin = %+v, want a GClock snapshot above a non-zero Settled", s)
	}
	if got := metricInvocationWait.Snapshot().Count - inv; got != 0 {
		t.Fatalf("a GClock Begin recorded %d invocation waits, want 0", got)
	}
	if lower := o.Clock().Now().Lower(); lower < s.Settled {
		t.Fatalf("Settled %v is above a later lower bound %v", s.Settled, lower)
	}
	if c, _, err := o.Commit(bg, s.Mode); err != nil || c <= s.Snap {
		t.Fatalf("Commit right after Begin = %v, %v; want above the snapshot %v", c, err, s.Snap)
	}
	o.SetMode(ts.ModeGTM)
	if s, err = o.Begin(bg); err != nil || s.Settled != 0 {
		t.Fatalf("GTM Begin = %+v, %v; want Settled 0", s, err)
	}
}

// TestCommitAboveFloor: a commit timestamp lands above the floor it is given,
// whether the clock issues it (GClock) or the GTM server (DUAL), and a DUAL
// commit's prescribed wait covers the floor's lift.
func TestCommitAboveFloor(t *testing.T) {
	r := newRig(t, 1)
	o := r.oracles[0]
	o.SetMode(ts.ModeGClock)
	floor := o.Clock().Now().Upper().Add(2 * time.Millisecond)
	c, finish, err := o.CommitAbove(bg, ts.ModeGClock, floor)
	if err != nil || c <= floor {
		t.Fatalf("GClock CommitAbove(%v) = %v, %v", floor, c, err)
	}
	if err := finish(bg); err != nil || o.Clock().Now().Lower() <= c {
		t.Fatalf("finish returned before the clock passed %v: %v", c, err)
	}
	r.server.SetMode(ts.ModeDUAL)
	o.SetMode(ts.ModeDUAL)
	floor = o.Clock().Now().Upper().Add(2 * time.Millisecond)
	if c, _, err = o.CommitAbove(bg, ts.ModeDUAL, floor); err != nil || c <= floor {
		t.Fatalf("DUAL CommitAbove(%v) = %v, %v", floor, c, err)
	}
	if now := o.Clock().Now(); now.Upper() < c {
		t.Fatalf("DUAL CommitAbove returned at %v, before the clock reached %v", now, c)
	}
}

// TestWaitHistograms: each DUAL invocation wait, GClock commit wait
// (Commit's finish, Adopt) and read wait (SettleRead) is one sample in its
// histogram; a GTM-mode or GClock-mode Begin records none.
func TestWaitHistograms(t *testing.T) {
	r := newRig(t, 1)
	o := r.oracles[0]
	invocations := func() int64 { return metricInvocationWait.Snapshot().Count }
	commitWaits := func() int64 { return metricCommitWait.Snapshot().Count }
	inv, cw := invocations(), commitWaits()
	if _, err := o.Begin(bg); err != nil {
		t.Fatal(err)
	}
	o.SetMode(ts.ModeGClock)
	b, err := o.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := invocations() - inv; got != 0 {
		t.Fatalf("a GTM and a GClock Begin recorded %d invocation waits, want 0", got)
	}
	c, finish, err := o.Commit(bg, b.Mode)
	if err != nil {
		t.Fatal(err)
	}
	if err := finish(bg); err != nil {
		t.Fatal(err)
	}
	if err := o.Adopt(bg, c); err != nil {
		t.Fatal(err)
	}
	if got := commitWaits() - cw; got != 2 {
		t.Fatalf("a commit wait and an Adopt recorded %d commit waits, want 2", got)
	}

	// SettleRead has its own histogram and leaves the clock past t.
	rw := metricReadWait.Snapshot().Count
	s, err := o.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SettleRead(bg, s.Snap); err != nil {
		t.Fatal(err)
	}
	if lower := o.Clock().Now().Lower(); lower <= s.Snap {
		t.Fatalf("SettleRead(%v) returned with the clock's lower bound at %v", s.Snap, lower)
	}
	if got := metricReadWait.Snapshot().Count - rw; got != 1 {
		t.Fatalf("a SettleRead recorded %d read waits, want 1", got)
	}
	if commitWaits()-cw != 2 || invocations()-inv != 0 {
		t.Fatal("a SettleRead counted as a commit or invocation wait")
	}

	// A DUAL Begin honors the server's wait, which is its invocation wait.
	r.server.SetMode(ts.ModeDUAL)
	o.SetMode(ts.ModeDUAL)
	if _, err := o.Begin(bg); err != nil {
		t.Fatal(err)
	}
	if got := invocations() - inv; got != 1 {
		t.Fatalf("a DUAL Begin recorded %d invocation waits, want 1", got)
	}
}

func TestDualModeWaitsAndMonotonicity(t *testing.T) {
	r := newRig(t, 1)
	o := r.oracles[0]
	r.server.SetMode(ts.ModeDUAL)
	o.SetMode(ts.ModeDUAL)
	var last ts.Timestamp
	for i := 0; i < 10; i++ {
		b, err := o.Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		if b.Snap <= last {
			t.Fatalf("DUAL timestamps not monotonic: %v after %v", b.Snap, last)
		}
		last = b.Snap
		c, _, err := o.Commit(bg, b.Mode)
		if err != nil {
			t.Fatal(err)
		}
		if c <= b.Snap {
			t.Fatalf("commit %v <= begin %v", c, b.Snap)
		}
		last = c
	}
	if r.server.Stats().IssuedDual != 20 {
		t.Fatalf("server stats: %+v", r.server.Stats())
	}
}

func TestOldGTMTxnAbortsAfterSwitch(t *testing.T) {
	r := newRig(t, 1)
	o := r.oracles[0]
	b, err := o.Begin(bg) // GTM-mode txn
	if err != nil {
		t.Fatal(err)
	}
	// The cluster completes a transition while the txn runs.
	r.server.SetMode(ts.ModeDUAL)
	r.server.SetMode(ts.ModeGClock)
	o.SetMode(ts.ModeGClock)
	_, _, err = o.Commit(bg, b.Mode)
	if !errors.Is(err, gtm.ErrOldModeAborted) {
		t.Fatalf("stale GTM txn commit: %v", err)
	}
}

func TestReportingForwardsCommits(t *testing.T) {
	r := newRig(t, 1)
	o := r.oracles[0]
	o.SetMode(ts.ModeGClock)
	o.SetReporting(true)
	c, finish, err := o.Commit(bg, ts.ModeGClock)
	if err != nil {
		t.Fatal(err)
	}
	finish(bg)
	// The report is async; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for r.server.TSMax() < c {
		if time.Now().After(deadline) {
			t.Fatalf("server TSMax %v never reached commit %v", r.server.TSMax(), c)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestClockStateCoversIssued(t *testing.T) {
	r := newRig(t, 1)
	o := r.oracles[0]
	o.SetMode(ts.ModeGClock)
	c, _, err := o.Commit(bg, ts.ModeGClock)
	if err != nil {
		t.Fatal(err)
	}
	st := o.ClockState()
	if st.Upper() < c {
		t.Fatalf("ClockState upper %v below issued commit %v", st.Upper(), c)
	}
}

func TestGTMFetchPaysNetworkLatency(t *testing.T) {
	// The heart of the baseline's Fig. 1a problem: a remote CN pays the
	// round trip per timestamp in GTM mode and nothing in GClock mode.
	n := netsim.New(netsim.Config{})
	n.SetLink("hub", "edge", 30*time.Millisecond, 0)
	server := gtm.NewServer()
	gtm.Serve(n, "hub", server)
	dev := clock.NewDevice("edge", clock.Real())
	nc := clock.NewNode(clock.DefaultNodeConfig(), clock.Real(), dev)
	stop := nc.Start()
	defer stop()
	o := New("edge-cn", nc, gtm.NewClient(n, "edge"))

	start := time.Now()
	if _, err := o.Begin(bg); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("GTM begin must pay the WAN round trip")
	}

	o.SetMode(ts.ModeGClock)
	start = time.Now()
	if _, err := o.Begin(bg); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 10*time.Millisecond {
		t.Fatalf("GClock begin took %v; must not touch the network", time.Since(start))
	}
}

func TestConcurrentMixedModeClients(t *testing.T) {
	r := newRig(t, 3)
	r.server.SetMode(ts.ModeDUAL)
	r.oracles[0].SetMode(ts.ModeGTM)
	r.oracles[1].SetMode(ts.ModeDUAL)
	r.oracles[2].SetMode(ts.ModeGClock)
	var wg sync.WaitGroup
	for _, o := range r.oracles {
		wg.Add(1)
		go func(o *Oracle) {
			defer wg.Done()
			var prev ts.Timestamp
			for i := 0; i < 30; i++ {
				b, err := o.Begin(bg)
				if err != nil {
					t.Error(err)
					return
				}
				c, finish, err := o.Commit(bg, b.Mode)
				if err != nil {
					t.Error(err)
					return
				}
				if err := finish(bg); err != nil {
					t.Error(err)
					return
				}
				if c <= prev {
					t.Errorf("%s: commit %v after %v not monotonic", o.Name(), c, prev)
					return
				}
				prev = c
			}
		}(o)
	}
	wg.Wait()
}

// TestIssueAboveFloorAndModes: a delegated issuance reads the clock unless
// the floor is ahead of it, in which case it issues floor+1 and ClockState
// still covers the value; outside GClock mode it issues nothing.
func TestIssueAboveFloorAndModes(t *testing.T) {
	r := newRig(t, 1)
	o := r.oracles[0]
	for _, mode := range []ts.Mode{ts.ModeGTM, ts.ModeDUAL} {
		o.SetMode(mode)
		if got, _, ok := o.IssueAbove(0); ok || got != 0 {
			t.Fatalf("IssueAbove in %v mode issued %v", mode, got)
		}
	}
	o.SetMode(ts.ModeGClock)
	before := o.Clock().Now()
	got, bump, ok := o.IssueAbove(before.Lower())
	if !ok || bump != 0 || got < before.Upper() {
		t.Fatalf("clock ahead of the floor: issued %v bump %v ok %v, reading was %v", got, bump, ok, before)
	}
	floor := ts.FromTime(time.Now().Add(time.Hour))
	got, bump, ok = o.IssueAbove(floor)
	if !ok || got != floor+1 || bump <= 0 {
		t.Fatalf("floor ahead of the clock: issued %v bump %v ok %v, want %v", got, bump, ok, floor+1)
	}
	if st := o.ClockState(); st.Upper() < got {
		t.Fatalf("ClockState upper %v below the bumped %v", st.Upper(), got)
	}
}

// TestLowerBoundStampsBelowLaterIssues: LowerBound answers only in GClock
// mode, issues nothing, and sits below what the node's clock issues after it
// and below true time when it was read.
func TestLowerBoundStampsBelowLaterIssues(t *testing.T) {
	r := newRig(t, 1)
	o := r.oracles[0]
	for _, mode := range []ts.Mode{ts.ModeGTM, ts.ModeDUAL} {
		o.SetMode(mode)
		if got, ok := o.LowerBound(); ok || got != 0 {
			t.Fatalf("LowerBound in %v mode = %v", mode, got)
		}
	}
	o.SetMode(ts.ModeGClock)
	stamp, ok := o.LowerBound()
	if !ok || stamp > ts.FromTime(time.Now()) {
		t.Fatalf("LowerBound = %v %v, want a GClock stamp true time has passed", stamp, ok)
	}
	if o.maxIssued != 0 {
		t.Fatalf("LowerBound recorded %v as issued", o.maxIssued)
	}
	if later, _, _ := o.IssueAbove(0); later <= stamp {
		t.Fatalf("a timestamp issued after the stamp, %v, is not above it, %v", later, stamp)
	}
}

// TestTransitionVsDelegatedIssuance races IssueAbove against the switch out
// of GClock mode: because the mode check and the issuance share the oracle's
// lock, a ClockState read after SetMode covers every timestamp handed out
// before it, and none is handed out after.
func TestTransitionVsDelegatedIssuance(t *testing.T) {
	r := newRig(t, 1)
	o := r.oracles[0]
	for round := 0; round < 50; round++ {
		o.SetMode(ts.ModeGClock)
		var wg sync.WaitGroup
		issued := make([]ts.Timestamp, 4)
		for g := range issued {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				floor := ts.Timestamp(0)
				for {
					got, _, ok := o.IssueAbove(floor)
					if !ok {
						return
					}
					issued[g], floor = got, got
				}
			}(g)
		}
		o.SetMode(ts.ModeDUAL)
		covered := o.ClockState().Upper()
		wg.Wait()
		for g, got := range issued {
			if got > covered {
				t.Fatalf("round %d: goroutine %d was issued %v, above the post-switch ClockState %v", round, g, got, covered)
			}
		}
	}
}

// TestAdoptWaitsAndReports: adopting a timestamp issued elsewhere performs
// the commit wait on this node's clock and, while reporting is on, forwards
// the timestamp to the GTM server.
func TestAdoptWaitsAndReports(t *testing.T) {
	r := newRig(t, 2)
	issuer, cn := r.oracles[0], r.oracles[1]
	issuer.SetMode(ts.ModeGClock)
	cn.SetMode(ts.ModeGClock)
	cn.SetReporting(true)
	got, _, ok := issuer.IssueAbove(ts.FromTime(time.Now().Add(2 * time.Millisecond)))
	if !ok {
		t.Fatal("issuer in GClock mode issued nothing")
	}
	if err := cn.Adopt(bg, got); err != nil {
		t.Fatal(err)
	}
	if lower := cn.Clock().Now().Lower(); lower <= got {
		t.Fatalf("Adopt returned with the adopter's clock at %v, not past %v", lower, got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for r.server.TSMax() < got {
		if time.Now().After(deadline) {
			t.Fatalf("server TSMax %v never reached the adopted %v", r.server.TSMax(), got)
		}
		time.Sleep(time.Millisecond)
	}
	cctx, cancel := context.WithCancel(bg)
	cancel()
	far, _, _ := issuer.IssueAbove(ts.FromTime(time.Now().Add(time.Hour)))
	if err := cn.Adopt(cctx, far); !errors.Is(err, context.Canceled) {
		t.Fatalf("Adopt under a cancelled context: %v", err)
	}
}
