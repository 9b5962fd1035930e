package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"globaldb/internal/obs"
	"globaldb/internal/redo"
)

// Group commit (the paper's write-path throughput lever, mirroring GaussDB's
// XLOG group flush): under SyncGroup a background committer goroutine
// coalesces the fsyncs of concurrent Append callers. Appends write their
// frames to the OS immediately and return; durability is tracked by a
// monotone durable-LSN watermark that a single fsync advances for every
// record written before it. K concurrent commits therefore cost ~1 fsync
// instead of K. Callers that need durability park on WaitDurable — a
// per-caller completion future resolved when the watermark passes their LSN.

// Commit-path metric names on obs.Default. Fsync counts include every
// policy; the group_* instruments move only under SyncGroup.
const (
	// MetricFsyncs counts every fsync the WAL layer issues.
	MetricFsyncs = "wal_fsyncs_total"
	// MetricGroupCommits counts group fsyncs (one per coalesced batch).
	MetricGroupCommits = "wal_group_commits_total"
	// MetricGroupedCommits counts commit waiters completed by group fsyncs.
	MetricGroupedCommits = "wal_grouped_commits_total"
	// MetricFsyncsSaved counts fsyncs avoided by coalescing: for a group
	// releasing k>=1 waiters, k-1 per-commit fsyncs were saved.
	MetricFsyncsSaved = "wal_fsyncs_saved_total"
	// MetricGroupSize is a histogram of waiters released per group fsync
	// (unit: 1ns == 1 commit; the registry's log buckets double as a
	// count distribution).
	MetricGroupSize = "wal_group_size"
	// MetricFsyncLatency is a histogram of fsync wall time (including any
	// configured FsyncDelay device model).
	MetricFsyncLatency = "wal_fsync_seconds"
)

var (
	metricFsyncs         = obs.Default.Counter(MetricFsyncs)
	metricGroupCommits   = obs.Default.Counter(MetricGroupCommits)
	metricGroupedCommits = obs.Default.Counter(MetricGroupedCommits)
	metricFsyncsSaved    = obs.Default.Counter(MetricFsyncsSaved)
	metricGroupSize      = obs.Default.Histogram(MetricGroupSize)
	metricFsyncLatency   = obs.Default.Histogram(MetricFsyncLatency)
)

// waiter is one parked WaitDurable caller. ch is buffered so completion
// never blocks on a caller that abandoned the wait (context cancellation).
type waiter struct {
	lsn uint64
	ch  chan error
}

// DurableLSN returns the highest LSN known to be on stable storage.
func (w *Writer) DurableLSN() uint64 { return w.durable.Load() }

// WaitDurable blocks until every record up to lsn is durable per the
// writer's sync policy, the context is canceled, or the writer fails.
// Under SyncEveryBatch the watermark advances inside Append, so the wait
// usually returns immediately; under SyncGroup it resolves when the
// committer goroutine's next coalesced fsync covers lsn; under SyncNever
// appends count as durable the moment they are written (the caller opted
// out of fsync discipline entirely). lsn may exceed the last appended LSN:
// the wait then also covers the append that will produce it.
func (w *Writer) WaitDurable(ctx context.Context, lsn uint64) error {
	if w.durable.Load() >= lsn {
		return nil
	}
	w.wmu.Lock()
	if w.durable.Load() >= lsn {
		w.wmu.Unlock()
		return nil
	}
	if w.werr != nil {
		err := w.werr
		w.wmu.Unlock()
		return err
	}
	ch := make(chan error, 1)
	w.waiters = append(w.waiters, waiter{lsn: lsn, ch: ch})
	w.wmu.Unlock()
	// Fsyncs are demand-driven: the syncer skips groups nobody waits for,
	// so the kick must come after parking (a kick consumed by a skipped
	// group is re-issued here, never lost).
	w.kickSyncer()
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// advanceDurable moves the watermark to upTo and completes every waiter at
// or below it, returning how many it released.
func (w *Writer) advanceDurable(upTo uint64) int {
	w.wmu.Lock()
	if upTo > w.durable.Load() {
		w.durable.Store(upTo)
	}
	released := 0
	kept := w.waiters[:0]
	for _, wt := range w.waiters {
		if wt.lsn <= upTo {
			wt.ch <- nil
			released++
		} else {
			kept = append(kept, wt)
		}
	}
	w.waiters = kept
	w.wmu.Unlock()
	return released
}

// failWaiters resolves every parked waiter with err and records it as the
// writer's terminal error.
func (w *Writer) failWaiters(err error) {
	w.wmu.Lock()
	if w.werr == nil {
		w.werr = err
	}
	for _, wt := range w.waiters {
		wt.ch <- err
	}
	w.waiters = nil
	w.wmu.Unlock()
}

// kickSyncer schedules a group fsync (no-op if one is already scheduled).
func (w *Writer) kickSyncer() {
	select {
	case w.syncReq <- struct{}{}:
	default:
	}
}

// runSyncer is the committer goroutine: it waits for appended-but-unsynced
// records, lingers briefly when other committers are around so they pile
// into the same group, then issues one fsync and resolves every waiter it
// covered. A lone committer is not made to wait for company that is not
// coming: the linger runs only on evidence of concurrency, counted in commit
// records at append time — more than one appended since the last fsync, or
// more than one covered by it.
//
// On one P the evidence is read once more after a yield of the P. The syncer
// is woken by the committer that parks, and there it would otherwise run
// before any other committer could append: every group would then hold one
// commit, and the evidence would never appear. With nobody else runnable the
// yield returns at once. With more Ps the other committers append on them
// meanwhile, and a yield would only queue the fsync behind whatever its P
// runs next.
func (w *Writer) runSyncer() {
	defer close(w.syncerDone)
	for {
		select {
		case <-w.syncReq:
		case <-w.syncerStop:
			return // Close's final sync covers the tail
		}
		company := w.lastGroupCommits > 1 || w.unsyncedCommits() > 1
		if !company && runtime.GOMAXPROCS(0) == 1 {
			runtime.Gosched()
			company = w.unsyncedCommits() > 1
		}
		if company && !w.maxBatchPending() {
			timer := time.NewTimer(w.opts.Linger)
			select {
			case <-timer.C:
			case <-w.syncerStop:
				timer.Stop()
				return
			}
		}
		// Absorb kicks that arrived during the linger: this fsync covers
		// their records too.
		select {
		case <-w.syncReq:
		default:
		}
		if _, err := w.groupSync(); err != nil {
			w.failWaiters(err)
			return
		}
	}
}

// waitedType reports whether a record of type t is one its appender parks on
// durability for before it acks: a commit, a commit of a prepared
// transaction, or a prepare.
func waitedType(t redo.Type) bool {
	return t == redo.TypeCommit || t == redo.TypeCommitPrepared || t == redo.TypePrepare
}

// unsyncedCommits is how many commit records were appended since the last
// fsync read the log's end.
func (w *Writer) unsyncedCommits() uint64 {
	return w.commits.Load() - w.syncedCommits.Load()
}

// raiseU64 raises a to v if v is larger.
func raiseU64(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// maxBatchPending reports whether the unsynced backlog already reached
// MaxBatch records, in which case the linger is skipped.
func (w *Writer) maxBatchPending() bool {
	w.mu.Lock()
	appended := w.nextLSN - 1
	w.mu.Unlock()
	return appended >= w.durable.Load()+uint64(w.opts.MaxBatch)
}

// waitersParked reports how many WaitDurable callers are parked.
func (w *Writer) waitersParked() int {
	w.wmu.Lock()
	n := len(w.waiters)
	w.wmu.Unlock()
	return n
}

// waiterCovered reports whether an fsync up to upTo would release anyone.
func (w *Writer) waiterCovered(upTo uint64) bool {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	for _, wt := range w.waiters {
		if wt.lsn <= upTo {
			return true
		}
	}
	return false
}

// groupSync performs one coalesced fsync. The fsync runs outside the append
// mutex so the next group accumulates while the device write is in flight —
// the overlap is where group commit's throughput comes from. Fsyncs are
// demand-driven: a group that would release nobody is skipped, so intent traffic
// (appends that never wait) rides along with the next commit's fsync
// instead of paying its own. Unwaited records still reach stable storage on
// rotation and Close; losing them in a crash loses only unacked work. It
// reports how many waiters the fsync released, and records in
// lastGroupCommits how many commit records it covered.
func (w *Writer) groupSync() (released int, err error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, nil
	}
	upTo, commits := w.nextLSN-1, w.commits.Load()
	f := w.file
	w.mu.Unlock()
	if f == nil || upTo == 0 || upTo <= w.durable.Load() {
		return 0, nil
	}
	if !w.waiterCovered(upTo) {
		// Nobody needs these records durable yet: no one is parked, or every
		// waiter parked on a record appended after upTo was read. WaitDurable
		// kicks after parking, and an append kicks while anyone is parked, so
		// skipping cannot strand a commit.
		return 0, nil
	}
	if err := w.fsyncTimed(f); err != nil {
		// A rotation may have closed this segment underneath us; rotation
		// fsyncs before closing, so everything up to upTo is durable anyway.
		if !errors.Is(err, os.ErrClosed) {
			return 0, fmt.Errorf("wal: group fsync: %w", err)
		}
	}
	w.lastGroupCommits = commits - w.syncedCommits.Load()
	raiseU64(&w.syncedCommits, commits)
	released = w.advanceDurable(upTo)
	w.groups.Add(1)
	w.grouped.Add(int64(released))
	metricGroupCommits.Inc()
	metricGroupedCommits.Add(int64(released))
	metricGroupSize.Observe(time.Duration(released))
	if released > 1 {
		metricFsyncsSaved.Add(int64(released - 1))
	}
	// Records appended while the fsync was in flight form the next group.
	w.mu.Lock()
	more := !w.closed && w.nextLSN-1 > upTo
	w.mu.Unlock()
	if more {
		w.kickSyncer()
	}
	return released, nil
}

// fsyncTimed fsyncs f, applies the configured device-latency model, and
// records the fsync count and latency metrics. FsyncDelay stands in for a
// real disk's sync cost the same way netsim stands in for the WAN: on
// tmpfs-backed test dirs fsync is nearly free, which would hide the very
// contention group commit exists to remove.
func (w *Writer) fsyncTimed(f *os.File) error {
	t0 := time.Now()
	err := f.Sync()
	if w.opts.FsyncDelay > 0 {
		time.Sleep(w.opts.FsyncDelay)
	}
	if err == nil {
		w.syncs.Add(1)
		metricFsyncs.Inc()
		metricFsyncLatency.Observe(time.Since(t0))
	}
	return err
}

// GroupStats reports the writer's cumulative group-commit counters.
type GroupStats struct {
	// Appended is the number of records written.
	Appended int64
	// Fsyncs is the number of fsyncs issued (all policies).
	Fsyncs int64
	// Groups is the number of group fsyncs (SyncGroup only).
	Groups int64
	// GroupedCommits is the number of commit waiters those groups released.
	GroupedCommits int64
	// DurableLSN is the current durable watermark.
	DurableLSN uint64
}

// GroupStats returns a snapshot of the writer's group-commit counters.
func (w *Writer) GroupStats() GroupStats {
	return GroupStats{
		Appended:       w.appends.Load(),
		Fsyncs:         w.syncs.Load(),
		Groups:         w.groups.Load(),
		GroupedCommits: w.grouped.Load(),
		DurableLSN:     w.durable.Load(),
	}
}

// AppendAssign appends records whose LSNs are assigned by the writer under
// its own mutex, returning the last LSN written. It lets independent
// committers append concurrently without coordinating contiguity themselves
// (Append's ErrGap contract) — the shape of K terminals racing commit
// records into one log.
func (w *Writer) AppendAssign(recs []redo.Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendableLocked(); err != nil {
		return 0, err
	}
	// A stand-alone WAL has no log to take frames from, so it frames the
	// records itself.
	var frames []byte
	for i := range recs {
		recs[i].LSN = w.nextLSN + uint64(i)
		frames = redo.AppendRecord(frames, recs[i])
	}
	commits := 0
	for _, r := range recs {
		if waitedType(r.Type) {
			commits++
		}
	}
	last := recs[len(recs)-1].LSN
	if err := w.writeLocked(frames, last, commits); err != nil {
		return 0, err
	}
	return last, nil
}
