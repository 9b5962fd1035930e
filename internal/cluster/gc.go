package cluster

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"globaldb/internal/obs"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
)

// gcInterval is the period of the GC loop Open starts: one round of version
// pruning and redo truncation. It is also the least time a read-only query
// keeps a readable snapshot (see PruneOnce), and it bounds what a cluster
// retains to two intervals of versions and one of redo. A round is cheap at
// any period (it visits only what was written); what a short one costs is Go
// collector cycles, which come at allocation rate ÷ live heap: at one second
// the heap halves and an allocation-heavy workload collects 1.6x as often
// (README, "Version GC and `snapshot too old`", has the measurements).
const gcInterval = 10 * time.Second

// GC metric names on obs.Default, beside mvcc.MetricPrunedVersions and
// mvcc.MetricSnapshotTooOld. They total every cluster in the process.
const (
	// MetricGCWatermarkAge is how far the last round's prune watermark trails
	// the newest commit timestamp on any primary, in the timestamp domain's
	// unit — nanoseconds under GClock. It grows while a transaction pins the
	// watermark or the RCP stands still.
	MetricGCWatermarkAge = "gc_watermark_age_ns"
	// MetricRedoRetained is the number of records a shard primary's in-memory
	// redo log holds, labeled shard="<n>". It grows while a replica of the
	// shard is down or behind.
	MetricRedoRetained = "redo_retained_records"
	// MetricRedoRetainedBytes is the size of those records' frames, the
	// heap the log holds, with the same label.
	MetricRedoRetainedBytes = "redo_retained_bytes"
)

var (
	metricWatermarkAge = obs.Default.Gauge(MetricGCWatermarkAge)
	metricPruned       = obs.Default.Counter(mvcc.MetricPrunedVersions)
	metricTooOld       = obs.Default.Counter(mvcc.MetricSnapshotTooOld)
)

func redoRetainedGauge(shard int) *obs.Gauge {
	return obs.Default.Gauge(obs.LabeledName(MetricRedoRetained, "shard", strconv.Itoa(shard)))
}

func redoRetainedBytesGauge(shard int) *obs.Gauge {
	return obs.Default.Gauge(obs.LabeledName(MetricRedoRetainedBytes, "shard", strconv.Itoa(shard)))
}

// gcState is the GC loop and what one round hands to the next.
type gcState struct {
	// mu is held for a whole round, and by PromoteReplica while it replaces
	// the nodes and the collector a round walks.
	mu      sync.Mutex
	prevRCP ts.Timestamp // RCP observed at the previous round

	loopMu sync.Mutex // guards stop
	stop   func()     // stops the running loop; nil when none runs
}

// PruneOnce runs one GC round and returns the number of versions it removed.
//
// Versions: every primary and replica store is pruned at the watermark
// min(the RCP observed at the previous round, the oldest snapshot of any live
// read-write transaction on any CN). Nothing below it is read again, by
// construction or by refusal:
//
//   - A read-write transaction registers its snapshot at CN.Begin and holds
//     the watermark at or below it until Commit or Abort returns — across any
//     number of rounds, cursors it opened included — for at most
//     coordinator.MaxSnapshotHold.
//   - A read-only query (CN.ReadOnly) reads at the RCP, or at a fresher
//     snapshot on primaries. It takes no pin: a globaldb.Query has no Close,
//     so it cannot be tracked. The RCP only grows, so a query begun since the
//     previous round reads at or above this round's watermark. It is
//     therefore safe for at least one interval. A one-read context
//     (CN.ReadOnce), which lives for one statement at a fresh snapshot, is
//     not tracked either, for the same reason.
//   - Whatever falls outside both — a query older than that, a transaction
//     past its hold — is refused by the store: Prune raises the store's floor
//     first, and a read or write below the floor gets mvcc.ErrSnapshotTooOld,
//     never a chain missing the version it should have seen.
//
// The rule compares timestamps only, so it holds for GTM counters and GClock
// timestamps alike (a transition keeps them monotonic across the switch).
//
// Redo: every primary's in-memory log is truncated below what its slowest
// replica has acknowledged. Its WAL needs nothing kept: every record is in
// the WAL from the moment it is in the log.
func (c *Cluster) PruneOnce() int {
	c.gc.mu.Lock()
	defer c.gc.mu.Unlock()
	watermark := c.gc.prevRCP
	c.gc.prevRCP = c.Collector.RCP()
	now := time.Now()
	for _, cn := range c.cns {
		if snap, ok := cn.OldestActiveSnapshot(now); ok {
			watermark = min(watermark, snap)
		}
	}
	removed := 0
	var newest ts.Timestamp
	for shard, p := range c.primaries {
		if watermark > 0 {
			removed += p.Store().Prune(watermark)
			for _, rep := range c.replicas[shard] {
				removed += rep.Applier().Store().Prune(watermark)
			}
		}
		p.Repl().Truncate()
		redoRetainedGauge(shard).Set(int64(p.Log().Retained()))
		redoRetainedBytesGauge(shard).Set(int64(p.Log().RetainedBytes()))
		newest = max(newest, p.Store().LastCommitTS())
	}
	if watermark > 0 {
		metricWatermarkAge.Set(max(0, int64(newest-watermark)))
	}
	return removed
}

// StartGC starts the GC loop, a PruneOnce every gcInterval. Open calls it;
// with a loop already running it does nothing.
func (c *Cluster) StartGC() { c.startGC(gcInterval) }

func (c *Cluster) startGC(every time.Duration) {
	c.gc.loopMu.Lock()
	defer c.gc.loopMu.Unlock()
	if c.gc.stop != nil {
		return
	}
	stopCh, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.PruneOnce()
			case <-stopCh:
				return
			}
		}
	}()
	c.gc.stop = func() {
		close(stopCh)
		<-done
	}
}

// StopGC stops the GC loop and returns once a round in progress has ended.
// Close calls it; so does a measurement that must not count a round's work.
// With no loop running it does nothing.
func (c *Cluster) StopGC() {
	c.gc.loopMu.Lock()
	defer c.gc.loopMu.Unlock()
	if c.gc.stop != nil {
		c.gc.stop()
		c.gc.stop = nil
	}
}

// FormatGCStats renders the GC instruments as human-readable lines for the
// CLI stats surfaces: the watermark and what pruning did, then one line per
// shard with its primary's version count and retained redo.
func (c *Cluster) FormatGCStats() []string {
	lines := []string{fmt.Sprintf("gc:      watermark-age=%v pruned-versions=%d snapshot-too-old=%d",
		time.Duration(metricWatermarkAge.Value()), metricPruned.Value(), metricTooOld.Value())}
	for shard, p := range c.primaries {
		st := p.Store().Stats()
		lines = append(lines, fmt.Sprintf("shard:   %d keys=%d versions=%d redo-retained-records=%d redo-retained-bytes=%d",
			shard, st.Keys, st.Versions, redoRetainedGauge(shard).Value(), redoRetainedBytesGauge(shard).Value()))
	}
	return lines
}
