package clock

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"globaldb/internal/ts"
)

var epoch = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func TestManualSource(t *testing.T) {
	m := NewManual(epoch)
	if !m.Now().Equal(epoch) {
		t.Fatal("manual start time wrong")
	}
	m.Advance(5 * time.Second)
	if !m.Now().Equal(epoch.Add(5 * time.Second)) {
		t.Fatal("advance wrong")
	}
}

func TestDeviceReadAndFailure(t *testing.T) {
	m := NewManual(epoch)
	d := NewDevice("xian", m)
	if d.Region() != "xian" {
		t.Fatal("region")
	}
	got, err := d.Read()
	if err != nil || !got.Equal(epoch) {
		t.Fatalf("Read: %v %v", got, err)
	}
	d.SetFailed(true)
	if _, err := d.Read(); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("failed device read: %v", err)
	}
	d.SetFailed(false)
	if _, err := d.Read(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeErrorBoundGrowsWithDrift(t *testing.T) {
	m := NewManual(epoch)
	dev := NewDevice("r", m)
	cfg := NodeConfig{SyncRTT: 60 * time.Microsecond, MaxDriftPPM: 200, SyncInterval: time.Millisecond}
	n := NewNode(cfg, m, dev)

	iv := n.Now()
	if iv.Err != 60*time.Microsecond {
		t.Fatalf("fresh sync Err = %v", iv.Err)
	}
	// After 1 s without sync: Terr = 60µs + 200e-6 * 1s = 260µs.
	m.Advance(time.Second)
	iv = n.Now()
	if iv.Err != 260*time.Microsecond {
		t.Fatalf("Err after 1s = %v, want 260µs", iv.Err)
	}
	// Re-sync collapses the bound back to Tsync.
	if err := n.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := n.Err(); got != 60*time.Microsecond {
		t.Fatalf("Err after resync = %v", got)
	}
}

func TestNodeReadingTracksTrueTime(t *testing.T) {
	m := NewManual(epoch)
	dev := NewDevice("r", m)
	n := NewNode(DefaultNodeConfig(), m, dev)
	m.Advance(time.Second)
	iv := n.Now()
	want := ts.FromTime(epoch.Add(time.Second))
	if iv.Clock != want {
		t.Fatalf("reading = %v, want %v", iv.Clock, want)
	}
	// True time is always inside the interval when drift is within bound.
	if iv.Lower() > want || want > iv.Upper() {
		t.Fatal("true time outside interval")
	}
}

func TestNodeActualDriftWithinBound(t *testing.T) {
	m := NewManual(epoch)
	dev := NewDevice("r", m)
	n := NewNode(DefaultNodeConfig(), m, dev)
	n.SetDriftPPM(150) // within the 200 PPM bound
	m.Advance(10 * time.Second)
	iv := n.Now()
	trueTS := ts.FromTime(epoch.Add(10 * time.Second))
	if trueTS < iv.Lower() || trueTS > iv.Upper() {
		t.Fatalf("true time %v outside [%v,%v] despite drift within bound", trueTS, iv.Lower(), iv.Upper())
	}
	if iv.Clock <= trueTS {
		t.Fatal("positive drift must push the reading ahead of true time")
	}
}

func TestNodeFaultSkewViolatesBound(t *testing.T) {
	m := NewManual(epoch)
	dev := NewDevice("r", m)
	n := NewNode(DefaultNodeConfig(), m, dev)
	n.SetFaultSkew(500 * time.Millisecond)
	iv := n.Now()
	trueTS := ts.FromTime(epoch)
	if trueTS >= iv.Lower() {
		t.Fatal("fault skew must push true time outside the interval")
	}
	n.SetFaultSkew(0)
	iv = n.Now()
	if trueTS < iv.Lower() || trueTS > iv.Upper() {
		t.Fatal("healed clock must contain true time again")
	}
}

func TestUnsyncedClockIsUnbounded(t *testing.T) {
	m := NewManual(epoch)
	dev := NewDevice("r", m)
	dev.SetFailed(true)
	n := NewNode(DefaultNodeConfig(), m, dev)
	if n.Healthy(time.Millisecond) {
		t.Fatal("never-synced clock must be unhealthy")
	}
	if n.Err() < time.Minute {
		t.Fatalf("unsynced Err = %v, want effectively unbounded", n.Err())
	}
	dev.SetFailed(false)
	if err := n.Sync(); err != nil {
		t.Fatal(err)
	}
	if !n.Healthy(time.Millisecond) {
		t.Fatal("synced clock must be healthy")
	}
}

func TestSyncFailureKeepsGrowingBound(t *testing.T) {
	m := NewManual(epoch)
	dev := NewDevice("r", m)
	n := NewNode(DefaultNodeConfig(), m, dev)
	dev.SetFailed(true)
	m.Advance(30 * time.Second)
	if err := n.Sync(); err == nil {
		t.Fatal("sync against failed device must error")
	}
	// 60µs + 200PPM × 30s = 6.06ms
	if got := n.Err(); got != 6060*time.Microsecond {
		t.Fatalf("Err = %v, want 6.06ms", got)
	}
}

func TestWaitUntilAfterRealTime(t *testing.T) {
	dev := NewDevice("r", Real())
	n := NewNode(DefaultNodeConfig(), Real(), dev)
	target := n.Now().Upper() // a commit timestamp
	start := time.Now()
	if err := n.WaitUntilAfter(context.Background(), target); err != nil {
		t.Fatal(err)
	}
	if n.Now().Lower() <= target {
		t.Fatal("wait returned before lower bound passed target")
	}
	// The wait should be on the order of 2×Terr, far below a second.
	if e := time.Since(start); e > time.Second {
		t.Fatalf("commit wait took %v", e)
	}
}

func TestWaitUntilAfterHonorsContext(t *testing.T) {
	m := NewManual(epoch)
	dev := NewDevice("r", m)
	n := NewNode(DefaultNodeConfig(), m, dev)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	// Manual time never advances, so the wait can only end via ctx: the spin
	// must check it by polls, since its Source never reaches a yield time.
	start := time.Now()
	err := n.WaitUntilAfter(ctx, n.Now().Upper())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	if e := time.Since(start); e > 500*time.Millisecond {
		t.Fatalf("a 30ms context ended the wait after %v", e)
	}
}

func TestWaitUntilAfterManualAdvancedElsewhere(t *testing.T) {
	m := NewManual(epoch)
	n := NewNode(DefaultNodeConfig(), m, NewDevice("r", m))
	target := n.Now().Upper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	stop := make(chan struct{})
	advanced := make(chan struct{})
	go func() {
		defer close(advanced)
		for {
			select {
			case <-stop:
				return
			default:
				m.Advance(time.Microsecond)
				runtime.Gosched()
			}
		}
	}()
	err := n.WaitUntilAfter(ctx, target)
	close(stop)
	<-advanced
	if err != nil {
		t.Fatal(err)
	}
	if n.Now().Lower() <= target {
		t.Fatal("wait returned before the lower bound passed its target")
	}
}

// TestWaitUntilAfterOutlastsMidWaitChanges lowers the clock while a wait
// spins, by a negative fault skew or a slow drift, then moves the source past
// the spin's deadline and freezes it short of the target: the wait must take
// another lap, not return, until the lowered clock passes the target.
func TestWaitUntilAfterOutlastsMidWaitChanges(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lower func(*Node)
	}{
		{"skew", func(n *Node) { n.SetFaultSkew(-50 * time.Microsecond) }},
		{"drift", func(n *Node) { n.SetDriftPPM(-400_000) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManual(epoch)
			n := NewNode(DefaultNodeConfig(), m, NewDevice("r", m))
			target := n.Now().Upper() // 120 µs above the lower bound
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- n.WaitUntilAfter(ctx, target) }()

			time.Sleep(time.Millisecond) // let the wait read the clock and spin
			tc.lower(n)
			// Past the first spin's deadline; unlowered, this would end the wait.
			m.Advance(125 * time.Microsecond)
			if n.Now().Lower() > target {
				t.Fatal("the change did not lower the clock below the target")
			}
			select {
			case err := <-done:
				t.Fatalf("wait returned (%v) with the lower bound %v short of %v", err, target-n.Now().Lower(), target)
			case <-time.After(20 * time.Millisecond):
			}
			m.Advance(time.Millisecond)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if n.Now().Lower() <= target {
				t.Fatal("wait returned before the lower bound passed its target")
			}
		})
	}
}

func TestStartPeriodicSync(t *testing.T) {
	dev := NewDevice("r", Real())
	n := NewNode(NodeConfig{SyncRTT: 60 * time.Microsecond, MaxDriftPPM: 200, SyncInterval: time.Millisecond}, Real(), dev)
	stop := n.Start()
	defer stop()
	time.Sleep(20 * time.Millisecond)
	// With 1ms syncs the bound stays near Tsync (60µs + ≤ a few ms drift).
	if got := n.Err(); got > time.Millisecond {
		t.Fatalf("Err with periodic sync = %v", got)
	}
	stop()
	stop() // idempotent
}

func TestVisibilityRequirementsUnderGClock(t *testing.T) {
	// R.1/R.2 at the clock level: if commit-wait for trx1 finishes before
	// trx2 reads its invocation timestamp, then trx2's snapshot exceeds
	// trx1's commit timestamp.
	dev := NewDevice("r", Real())
	n1 := NewNode(DefaultNodeConfig(), Real(), dev)
	n2 := NewNode(DefaultNodeConfig(), Real(), dev)

	commitTS := n1.Now().Upper()
	if err := n1.WaitUntilAfter(context.Background(), commitTS); err != nil {
		t.Fatal(err)
	}
	snapTS := n2.Now().Upper()
	if snapTS <= commitTS {
		t.Fatalf("R.1 violated: snapshot %v <= commit %v", snapTS, commitTS)
	}
}
