// Package tso implements the timestamp oracle each computing node uses to
// begin and commit transactions — and each shard primary uses, under GClock,
// to issue a single-shard transaction's commit timestamp on the computing
// node's behalf (IssueAbove there, Adopt back at the computing node).
//
// The oracle dispatches on the node's transaction management mode (Sec. III):
//
//	GTM    — fetch a counter timestamp from the central GTM server, paying
//	         a network round trip (the baseline's bottleneck).
//	GClock — read the local synchronized clock: TS = Tclock + Terr, and
//	         commit-wait before acknowledging. No round trip, and no wait at
//	         invocation (see below).
//	DUAL   — transition bridge: obtain a clock reading, exchange it with
//	         the GTM server for TS_DUAL = max(TS_GTM, TS_GClock)+1, and
//	         honor the server-prescribed wait (Figs. 2–3).
//
// Sec. III makes a GClock snapshot stable with an invocation wait, "wait
// until Tclock > TS", about 2·Terr. Begin does not wait. Three rules, one per
// layer, keep the snapshot stable and reads in real-time order instead:
//
//   - Read floor. A shard primary keeps the highest snapshot it has served a
//     read or a write at, and issues every commit timestamp above it
//     (IssueAbove's floor), so no commit lands at or below a snapshot the
//     primary has already served. A commit already in flight when the read
//     arrives is pending or prepared there, and the read waits for it.
//   - Prepare floor. A PREPARE ack carries the participant's read floor, and
//     a two-phase commit's timestamp is issued above the highest one
//     (CommitAbove); a DUAL-mode commit passes the same floor to the GTM
//     server, which issues above it.
//   - Settle. A commit is visible before its commit wait ends, so a read may
//     return a version whose timestamp true time has not reached. Before such
//     a result leaves the computing node, the clock's lower bound must pass
//     the newest version it carries (SettleRead), or a read that starts
//     afterwards on a trailing clock could miss it. A version below
//     TxnTS.Settled, the lower bound when the snapshot was read, needs no
//     settle; nor does a replica read at the RCP, which sits below every
//     clock's lower bound.
//
// The one-read context of a point statement (coordinator.CN.ReadOnce) reads
// once, so it needs no stable snapshot: its read raises no floor, a write it
// makes is checked against the version it read, and it settles at Commit.
//
// Timestamps are always fetched under the node's *current* mode. A
// transaction records the mode it began under only to enforce the one abort
// rule of Fig. 2: a transaction that began under GTM and reaches commit
// after the node has completed the switch to GClock must abort — its
// counter-scale snapshot is incompatible with clock-scale commit
// timestamps. Every other combination commits safely: an old DUAL or GClock
// transaction committing on a GTM-mode node simply "gets TS_GTM and
// commits" (Fig. 3), which the server's TSMax floor makes monotonic.
//
// Mode reads and local timestamp issuance happen under one lock, so the
// transition controller's snapshot of ClockState() is guaranteed to cover
// every timestamp this node issued before it switched modes — the property
// that lets the GTM floor be computed without quiescing the cluster.
// Issuance is strictly increasing per oracle, so a commit issued here is
// above every snapshot issued here before it.
//
// Every GClock wait — Commit's finish, Adopt and SettleRead — is
// clock.Node.WaitUntilAfter. With the paper's parameters it lasts about
// 2·Terr ≈ 120 µs, below the OS timer granularity, so it is spun out: one
// node clock reading turns the gap into a deadline on the clock's source,
// which is then polled without a lock, with a context check and a yield of
// the P only every few µs. A waiting transaction therefore holds one core
// for its wait but leaves the scheduler to the other goroutines. Waits
// longer than 200 µs sleep on a timer.
//
// The waits are observable on obs.Default: the commit wait (Commit's
// finish, Adopt) lands in tso_commit_wait_seconds, a settle in
// tso_read_wait_seconds, and the only invocation wait left, a DUAL-mode
// Begin's server-prescribed one, in tso_invocation_wait_seconds.
package tso

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"globaldb/internal/clock"
	"globaldb/internal/gtm"
	"globaldb/internal/obs"
	"globaldb/internal/ts"
)

// Metric names of the two GClock waits.
const (
	// MetricInvocationWait is the time Begin spends in an invocation wait
	// (seconds): under DUAL, the server-prescribed one. A GClock Begin does
	// not wait.
	MetricInvocationWait = "tso_invocation_wait_seconds"
	// MetricCommitWait is the time a GClock commit spends in the commit wait
	// before it may be acknowledged (seconds).
	MetricCommitWait = "tso_commit_wait_seconds"
	// MetricReadWait is the time a GClock read spends settling: waiting out
	// the commit of the newest version it returns (seconds).
	MetricReadWait = "tso_read_wait_seconds"
)

var (
	metricInvocationWait = obs.Default.Histogram(MetricInvocationWait)
	metricCommitWait     = obs.Default.Histogram(MetricCommitWait)
	metricReadWait       = obs.Default.Histogram(MetricReadWait)
)

// TxnTS is the timestamp state a transaction carries from begin.
type TxnTS struct {
	// Snap is the snapshot (invocation) timestamp.
	Snap ts.Timestamp
	// Mode is the management mode the transaction began under.
	Mode ts.Mode
	// Settled is, under GClock, the clock's lower bound when Snap was read:
	// true time had passed it then, so a read returning a version committed
	// below it owes no settle (SettleRead). Zero in the other modes, which
	// never settle.
	Settled ts.Timestamp
}

// Oracle issues timestamps on one node: a computing node, or a shard primary
// (which only ever calls IssueAbove and may be built without a GTM client).
type Oracle struct {
	name  string
	clock *clock.Node
	gtm   *gtm.Client

	mu        sync.Mutex
	mode      ts.Mode
	maxIssued ts.Timestamp // largest local GClock timestamp issued here

	reporting atomic.Bool // also forward GClock commits to the GTM server
}

// New returns an oracle in GTM mode. client may be nil for a node that never
// calls Begin or Commit and never reports.
func New(name string, clk *clock.Node, client *gtm.Client) *Oracle {
	return &Oracle{name: name, clock: clk, gtm: client, mode: ts.ModeGTM}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Name identifies the oracle's node.
func (o *Oracle) Name() string { return o.name }

// Mode returns the node's current transaction management mode.
func (o *Oracle) Mode() ts.Mode {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.mode
}

// SetMode switches the node's mode for subsequently issued timestamps.
func (o *Oracle) SetMode(m ts.Mode) {
	o.mu.Lock()
	o.mode = m
	o.mu.Unlock()
}

// SetReporting enables forwarding GClock commit timestamps to the GTM
// server (Fig. 3's "Send TS_GClock, Terr — no response needed"). The floor
// guarantee does not depend on it — ClockState() snapshots cover every
// issued timestamp — but it mirrors the paper's wire protocol and gives the
// server earlier visibility during GClock→GTM transitions.
func (o *Oracle) SetReporting(on bool) { o.reporting.Store(on) }

// ClockState returns the node's largest issued GClock timestamp merged with
// its current clock reading and error bound. Because issuance happens under
// the same lock as mode switches, a ClockState taken after SetMode covers
// every timestamp issued under the previous mode.
func (o *Oracle) ClockState() ts.Interval {
	iv := o.clock.Now()
	o.mu.Lock()
	if o.maxIssued > iv.Clock {
		iv.Clock = o.maxIssued
	}
	o.mu.Unlock()
	return iv
}

// Clock exposes the node clock (health checks, commit waits in tests).
func (o *Oracle) Clock() *clock.Node { return o.clock }

// issueLocal atomically reads the mode and, if it is GClock, issues the
// local timestamp Tclock + Terr, raised to floor+1 when the clock has not
// passed floor yet, and above every timestamp issued here before. iv is the
// clock reading it was issued from. ok is false when the mode is not GClock.
func (o *Oracle) issueLocal(floor ts.Timestamp) (t ts.Timestamp, iv ts.Interval, ok bool) {
	iv = o.clock.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.mode != ts.ModeGClock {
		return 0, iv, false
	}
	t = iv.Upper()
	if t <= floor {
		t = floor + 1
	}
	if t <= o.maxIssued {
		t = o.maxIssued + 1
	}
	o.maxIssued = t
	return t, iv, true
}

// IssueAbove issues a commit timestamp strictly above floor: Tclock + Terr,
// or floor+1 when that is larger; bump is how far the floor pushed it past
// the clock (zero when the clock won). ok is false, and nothing is issued,
// unless the node is in GClock mode.
//
// It is the entry point of a node that commits on a coordinator's behalf: a
// shard primary finishing a single-shard transaction reads its own
// synchronized clock where the data is (Sec. III) instead of waiting for a
// second message carrying a reading of the coordinator's. The floor is the
// higher of the primary's commit watermark — timestamps already logged there
// that came from other clocks (heartbeats, DDL, 2PC decisions) and that this
// clock may trail by up to its error bound — and its read floor, the highest
// snapshot it has served. The issued value, bump included, is recorded under
// the same lock as the mode check, so ClockState() covers it the way it
// covers Begin's and Commit's.
func (o *Oracle) IssueAbove(floor ts.Timestamp) (t ts.Timestamp, bump time.Duration, ok bool) {
	t, iv, ok := o.issueLocal(floor)
	if !ok {
		return 0, 0, false
	}
	return t, t.Sub(iv.Upper()), true
}

// LowerBound returns the clock's lower bound, Tclock - Terr, a timestamp true
// time has already passed; ok is false unless the node is in GClock mode,
// checked under the same lock as IssueAbove's. It issues nothing: the value
// is below every timestamp the node's clock can issue from now on.
//
// It is a shard primary's heartbeat stamp. A heartbeat tells replicas that
// the shard holds no commit below it still to come, so it must sit below
// every commit timestamp issued after it, whichever clock issues that one. A
// later commit timestamp is an upper bound read later, on this clock or on a
// coordinator's, so it is above true time now, and so above this bound.
func (o *Oracle) LowerBound() (t ts.Timestamp, ok bool) {
	iv := o.clock.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.mode != ts.ModeGClock {
		return 0, false
	}
	return iv.Lower(), true
}

// Begin obtains an invocation timestamp under the node's current mode. Under
// GClock it is Tclock + Terr, at least true time, so above every commit
// acknowledged before Begin was called, and it is returned without the
// invocation wait: the read floor keeps it stable and the settle keeps reads
// in real-time order (see the package doc). Under DUAL it honors the
// server-prescribed wait.
func (o *Oracle) Begin(ctx context.Context) (TxnTS, error) {
	if t, iv, ok := o.issueLocal(0); ok {
		return TxnTS{Snap: t, Mode: ts.ModeGClock, Settled: iv.Lower()}, nil
	}
	mode := o.Mode()
	resp, err := o.callGTM(ctx, mode, 0, metricInvocationWait)
	if err != nil {
		return TxnTS{}, err
	}
	return TxnTS{Snap: resp.TS, Mode: mode}, nil
}

// SettleRead finishes a GClock read that returned a version committed at t,
// which true time may not have reached yet (a commit is visible before its
// commit wait ends): it waits until the clock's lower bound passes t, the
// reader's half of the commit wait. Every snapshot taken after it returns,
// on any node, covers t.
func (o *Oracle) SettleRead(ctx context.Context, t ts.Timestamp) error {
	return waitObserved(ctx, o.clock, t, metricReadWait)
}

// Commit obtains a commit timestamp for a transaction begun under
// beginMode: CommitAbove with no floor.
func (o *Oracle) Commit(ctx context.Context, beginMode ts.Mode) (ts.Timestamp, func(context.Context) error, error) {
	return o.CommitAbove(ctx, beginMode, 0)
}

// CommitAbove obtains a commit timestamp above floor for a transaction begun
// under beginMode, fetching under the node's *current* mode. floor is the
// highest read floor the participants' acks returned, so the commit lands
// above every snapshot they have served: under GClock it is IssueAbove's
// floor, under DUAL the server issues above it. A GTM counter ignores it. The
// returned finish function performs the commit wait and must run after the
// commit has applied, before acknowledging the client.
//
// It returns gtm.ErrOldModeAborted when a GTM-mode transaction reaches
// commit after the node has switched to GClock (Fig. 2's abort rule).
func (o *Oracle) CommitAbove(ctx context.Context, beginMode ts.Mode, floor ts.Timestamp) (ts.Timestamp, func(context.Context) error, error) {
	if t, iv, ok := o.issueLocal(floor); ok {
		if beginMode == ts.ModeGTM {
			return 0, nil, gtm.ErrOldModeAborted
		}
		o.report(t, iv.Err)
		finish := func(fctx context.Context) error {
			return waitObserved(fctx, o.clock, t, metricCommitWait)
		}
		return t, finish, nil
	}
	// Centralized path: GTM-begun transactions identify themselves so a
	// DUAL-mode server applies the Listing 1 wait and a GClock-mode server
	// aborts them; DUAL/GClock-begun transactions request DUAL timestamps.
	reqMode := beginMode
	if reqMode != ts.ModeGTM {
		reqMode = ts.ModeDUAL
	}
	resp, err := o.callGTM(ctx, reqMode, floor, nil)
	if err != nil {
		return 0, nil, err
	}
	return resp.TS, func(context.Context) error { return nil }, nil
}

// Adopt finishes, on this node, a commit whose timestamp t another node's
// oracle issued on its behalf (IssueAbove at the shard primary): it forwards
// t to the GTM server when reporting is on, as Commit does for timestamps
// issued here, and performs the commit wait against this node's own clock.
// Like Commit's finish, it must return before the client is acknowledged.
func (o *Oracle) Adopt(ctx context.Context, t ts.Timestamp) error {
	// t is already an upper bound; the issuer's error bound reaches the
	// server through the issuer's own ClockState.
	o.report(t, 0)
	return waitObserved(ctx, o.clock, t, metricCommitWait)
}

// waitObserved waits until clk's lower bound passes t and records how long
// that took in h.
func waitObserved(ctx context.Context, clk *clock.Node, t ts.Timestamp, h *obs.Histogram) error {
	start := time.Now()
	err := clk.WaitUntilAfter(ctx, t)
	h.Observe(time.Since(start))
	return err
}

// report forwards a GClock commit timestamp to the GTM server while
// reporting is on: one-way and advisory, it never blocks the commit path.
func (o *Oracle) report(t ts.Timestamp, errBound time.Duration) {
	if !o.reporting.Load() {
		return
	}
	go func() {
		rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = o.gtm.Report(rctx, ts.Interval{Clock: t, Err: errBound})
	}()
}

// callGTM performs a timestamp fetch for GTM or DUAL mode, honoring the
// server-prescribed anomaly-avoidance wait before returning and recording it
// in h when h is not nil. A DUAL request carries floor (see CommitAbove).
func (o *Oracle) callGTM(ctx context.Context, mode ts.Mode, floor ts.Timestamp, h *obs.Histogram) (gtm.Response, error) {
	req := gtm.Request{Mode: mode}
	if mode == ts.ModeDUAL {
		req.GClock = o.clock.Now()
		req.Floor = floor
	}
	resp, err := o.gtm.Call(ctx, req)
	if err != nil {
		return gtm.Response{}, err
	}
	if resp.Wait > 0 {
		start := time.Now()
		err := sleepCtx(ctx, resp.Wait)
		if h != nil {
			h.Observe(time.Since(start))
		}
		if err != nil {
			return gtm.Response{}, err
		}
	}
	return resp, nil
}
