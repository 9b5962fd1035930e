// Package clock implements GlobalDB's global clock infrastructure (Sec. III).
//
// The paper deploys a GPS-plus-atomic-clock time device in each regional
// cluster; machines synchronize against it every millisecond over a ~60 µs
// TCP round trip, and oscillator drift between syncs is bounded at 200 PPM.
// A GClock reading is therefore an interval: TS = Tclock ± Terr with
// Terr = Tsync + Tdrift (Eq. 1).
//
// Here the device is simulated: it reports true time unless failed, and
// node clocks model sync error and drift explicitly. Fault-injection hooks
// reproduce device outages (error bounds grow until the cluster falls back
// to GTM mode) and bound-violating skew (the Listing 1 anomaly).
package clock

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"globaldb/internal/ts"
)

// Source provides true time. The default is the machine's clock; tests can
// substitute a manual source.
type Source interface {
	Now() time.Time
}

type realSource struct{}

func (realSource) Now() time.Time { return time.Now() }

// Real returns the wall-clock time source.
func Real() Source { return realSource{} }

// Manual is a controllable time source for deterministic tests.
type Manual struct {
	mu  sync.Mutex
	now time.Time
}

// NewManual returns a manual source starting at start.
func NewManual(start time.Time) *Manual { return &Manual{now: start} }

// Now returns the current manual time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Advance moves the manual clock forward by d.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	m.mu.Unlock()
}

// ErrDeviceFailed is returned by a failed time device.
var ErrDeviceFailed = errors.New("clock: global time device failed")

// Device is the per-region global time source (GPS receiver + atomic clock).
// It reports true time to within nanoseconds, or fails entirely.
type Device struct {
	src    Source
	region string

	mu     sync.RWMutex
	failed bool
}

// NewDevice creates a device for a region backed by src.
func NewDevice(region string, src Source) *Device {
	return &Device{src: src, region: region}
}

// Region returns the region this device serves.
func (d *Device) Region() string { return d.region }

// Read returns the device's time.
func (d *Device) Read() (time.Time, error) {
	d.mu.RLock()
	failed := d.failed
	d.mu.RUnlock()
	if failed {
		return time.Time{}, ErrDeviceFailed
	}
	return d.src.Now(), nil
}

// SetFailed injects or heals a device failure.
func (d *Device) SetFailed(failed bool) {
	d.mu.Lock()
	d.failed = failed
	d.mu.Unlock()
}

// NodeConfig configures a node clock.
type NodeConfig struct {
	// SyncRTT is the round trip to the regional time device (Tsync). The
	// paper observes ~60 µs.
	SyncRTT time.Duration
	// MaxDriftPPM bounds oscillator drift between syncs; the paper assumes
	// 200 PPM.
	MaxDriftPPM float64
	// SyncInterval is how often Start re-synchronizes; the paper uses 1 ms.
	SyncInterval time.Duration
}

// DefaultNodeConfig mirrors the paper's deployment parameters.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{SyncRTT: 60 * time.Microsecond, MaxDriftPPM: 200, SyncInterval: time.Millisecond}
}

// Node is one machine's synchronized clock. Reads return intervals whose
// error bound is the sync uncertainty plus accumulated drift allowance.
type Node struct {
	cfg    NodeConfig
	src    Source
	device *Device

	mu           sync.Mutex
	synced       bool
	lastSyncTrue time.Time
	faultSkew    time.Duration // injected skew NOT reflected in Err (bound violation)
	driftPPM     float64       // actual oscillator drift applied to readings
}

// NewNode creates a node clock synchronized against device. It performs an
// initial sync; if the device is down the clock starts unsynchronized with
// an unbounded error.
func NewNode(cfg NodeConfig, src Source, device *Device) *Node {
	n := &Node{cfg: cfg, src: src, device: device}
	n.Sync()
	return n
}

// Sync synchronizes against the regional device. On failure the error bound
// keeps growing with drift until a later sync succeeds.
func (n *Node) Sync() error {
	t, err := n.device.Read()
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.synced = true
	n.lastSyncTrue = t
	n.mu.Unlock()
	return nil
}

// Start launches periodic synchronization and returns a stop function.
func (n *Node) Start() (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(n.cfg.SyncInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				n.Sync() // failure just widens the bound; nothing to do here
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// SetFaultSkew injects skew into readings without widening the reported
// error bound — a *violated* bound, the failure mode the DUAL-mode waits
// defend against. Zero heals the fault.
func (n *Node) SetFaultSkew(skew time.Duration) {
	n.mu.Lock()
	n.faultSkew = skew
	n.mu.Unlock()
}

// SetDriftPPM sets the oscillator's actual drift rate. Values within
// MaxDriftPPM stay inside the advertised bound.
func (n *Node) SetDriftPPM(ppm float64) {
	n.mu.Lock()
	n.driftPPM = ppm
	n.mu.Unlock()
}

// unboundedErr is the error reported before the first successful sync.
const unboundedErr = time.Hour

// Now returns the node's clock reading with its error bound.
func (n *Node) Now() ts.Interval {
	iv, _ := n.read()
	return iv
}

// read returns the node's clock reading and the Source time it was taken at.
func (n *Node) read() (ts.Interval, time.Time) {
	trueNow := n.src.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.synced {
		return ts.Interval{Clock: ts.FromTime(trueNow).Add(n.faultSkew), Err: unboundedErr}, trueNow
	}
	elapsed := trueNow.Sub(n.lastSyncTrue)
	if elapsed < 0 {
		elapsed = 0
	}
	drift := time.Duration(float64(elapsed) * n.driftPPM / 1e6)
	errBound := n.cfg.SyncRTT + time.Duration(float64(elapsed)*n.cfg.MaxDriftPPM/1e6)
	return ts.Interval{
		Clock: ts.FromTime(trueNow).Add(drift + n.faultSkew),
		Err:   errBound,
	}, trueNow
}

// Err returns the current error bound without the reading.
func (n *Node) Err() time.Duration { return n.Now().Err }

// Healthy reports whether the clock's error bound is within limit. The
// cluster uses this to decide when to fall back to GTM mode.
func (n *Node) Healthy(limit time.Duration) bool { return n.Err() <= limit }

// WaitUntilAfter blocks until the clock's lower bound strictly exceeds t —
// the commit wait of Sec. III ("wait until Tclock > TS"). With the paper's
// parameters the wait is on the order of 2×Terr ≈ 120 µs, below the OS
// timer granularity, so a gap of up to 200 µs is spun out rather than slept.
//
// A spin reads the node clock once and turns the gap into a deadline on the
// Source, then polls the Source alone, which takes no lock, until that
// deadline. Only every spinYieldPolls polls, a few µs apart on the real
// clock, does it check ctx and yield its P, so a waiting transaction costs
// one core's worth of polling, not a scheduler round trip per poll. At the
// deadline it reads the node clock again and returns only once the lower
// bound has passed t: a sync, skew or drift change during the spin costs
// another lap, never an early return. Longer gaps sleep on a timer.
func (n *Node) WaitUntilAfter(ctx context.Context, t ts.Timestamp) error {
	for {
		iv, at := n.read()
		if iv.Lower() > t {
			return nil
		}
		gap := t.Sub(iv.Lower()) + time.Microsecond
		if gap <= 200*time.Microsecond {
			if err := n.spin(ctx, at.Add(gap)); err != nil {
				return err
			}
			continue
		}
		if gap > time.Second {
			gap = time.Second // re-check periodically; the bound may shrink after a sync
		}
		timer := time.NewTimer(gap)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
}

// spinYieldPolls is how many Source polls a spin makes between context
// checks and yields. It counts polls, not Source time, so a spin on a
// frozen Manual source still sees its context end.
const spinYieldPolls = 256

// spin polls the Source until it reads deadline or later, or ctx ends.
func (n *Node) spin(ctx context.Context, deadline time.Time) error {
	for polls := 1; n.src.Now().Before(deadline); polls++ {
		if polls%spinYieldPolls == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			runtime.Gosched()
		}
	}
	return nil
}
