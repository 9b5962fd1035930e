package coordinator

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
)

// AnyStaleness disables the freshness bound: the query accepts whatever the
// RCP currently offers.
const AnyStaleness = time.Duration(-1)

// ErrOneRead is returned by a one-read context (CN.ReadOnce) asked for a
// second Get, or for a scan: its snapshot is only valid for one read.
var ErrOneRead = errors.New("coordinator: a one-read context answers exactly one Get")

// ROTxn is a read-only query context. Reads are served from replicas at the
// RCP snapshot when the staleness bound and the DDL gate allow it, and fall
// back to primaries at a fresh snapshot otherwise (Sec. IV). A one-read
// context (ReadOnce) reads primaries at an unwaited snapshot, once.
type ROTxn struct {
	cn    *CN
	snap  ts.Timestamp
	bound time.Duration
	// replicaMode is decided once at creation so every read in the query
	// sees one snapshot on one class of nodes (no torn mixed reads).
	replicaMode bool
	// oneRead marks a ReadOnce context; read flips at its one Get. A Get
	// that returns a version committed at or above settled waits out its
	// commit (tso.Oracle.SettleRead); ts.Max when the snapshot was waited.
	oneRead bool
	settled ts.Timestamp
	read    atomic.Bool
}

// ReadOnly starts a read-only query with a staleness bound. tableIDs are
// the tables the query will touch, for the DDL visibility gate; pass none
// to gate on the global maximum DDL timestamp only.
func (c *CN) ReadOnly(ctx context.Context, bound time.Duration, tableIDs ...uint64) (*ROTxn, error) {
	rcpTS := c.Collector().RCP()
	replicaMode := true

	// DDL gate (Sec. IV-A): every involved table's schema must have
	// reached the replicas.
	if !c.catalog.RORAllowed(rcpTS, tableIDs...) {
		replicaMode = false
		c.rorFallbacks.Add(1)
	}
	// Freshness gate: the RCP itself must satisfy the bound.
	if replicaMode && bound >= 0 && c.rcpStaleness(rcpTS) > bound {
		replicaMode = false
		c.rorFallbacks.Add(1)
	}

	if replicaMode {
		c.maybeRefreshTracker()
		return &ROTxn{cn: c, snap: rcpTS, bound: bound, replicaMode: true}, nil
	}
	// Fresh snapshot on primaries. The query may read many times, so it
	// takes the waited snapshot a read-write transaction takes: stable
	// against commits that land after its first read.
	snap, err := c.oracle.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &ROTxn{cn: c, snap: snap.Snap, bound: bound}, nil
}

// ReadOnce starts a context for one point read on a shard primary. Under
// GClock its snapshot skips the invocation wait (tso.SnapshotNoWait), which
// is safe because nothing reads at that snapshot a second time: the context
// answers one Get and refuses everything after it, and every scan, with
// ErrOneRead. The Get returns only once the clock has passed the commit of
// the version it read, so a read that starts after it, on any CN, sees that
// version too. Centralized modes take Begin's snapshot, as a transaction
// does.
func (c *CN) ReadOnce(ctx context.Context) (*ROTxn, error) {
	if snap, settled := c.oracle.SnapshotNoWait(); snap.Snap != 0 {
		return &ROTxn{cn: c, snap: snap.Snap, oneRead: true, settled: settled}, nil
	}
	snap, err := c.oracle.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &ROTxn{cn: c, snap: snap.Snap, oneRead: true, settled: ts.Max}, nil
}

// Snapshot returns the query's snapshot timestamp.
func (r *ROTxn) Snapshot() ts.Timestamp { return r.snap }

// OnReplicas reports whether the query reads from replicas.
func (r *ROTxn) OnReplicas() bool { return r.replicaMode }

// Get reads one key.
func (r *ROTxn) Get(ctx context.Context, shard int, key []byte) ([]byte, bool, error) {
	if r.oneRead {
		if r.read.Swap(true) {
			return nil, false, ErrOneRead
		}
		resp, err := r.cn.readPrimary(ctx, shard, key, r.snap, 0)
		if err == nil && resp.CommitTS >= r.settled {
			err = r.cn.oracle.SettleRead(ctx, resp.CommitTS)
		}
		if err != nil {
			return nil, false, err
		}
		return resp.Value, resp.Found, nil
	}
	node, replica, err := r.pick(shard)
	if err != nil {
		return nil, false, err
	}
	start := time.Now()
	v, found, err := r.cn.client.Read(ctx, node, key, r.snap, 0)
	r.observe(node, replica, start, err)
	if nodeFailed(err) && replica {
		// One retry on the primary: the replica crashed mid-query.
		r.cn.primaryReads.Add(1)
		return r.cn.client.Read(ctx, r.cn.routing.Primary(shard), key, r.snap, 0)
	}
	return v, found, err
}

// pick chooses the serving node for a shard.
func (r *ROTxn) pick(shard int) (node string, replica bool, err error) {
	if !r.replicaMode {
		return r.cn.routing.Primary(shard), false, nil
	}
	r.cn.maybeRefreshTracker()
	// Pure skyline cost selection (Fig. 5): the primary competes with the
	// replicas, so a home-shard read takes the local primary while a
	// remote-shard read takes the local replica — the routing that yields
	// the paper's read speedups.
	best, ok := r.cn.Tracker().Pick(shard, r.bound, false)
	if !ok {
		// Everything is dark; the primary is the last resort.
		return r.cn.routing.Primary(shard), false, nil
	}
	return best.Node, !best.Primary, nil
}

func (r *ROTxn) observe(node string, replica bool, start time.Time, err error) {
	rtt := time.Since(start)
	if replica {
		r.cn.replicaReads.Add(1)
	} else {
		r.cn.primaryReads.Add(1)
	}
	switch {
	case nodeFailed(err):
		r.cn.Tracker().MarkFailed(node)
	case err == nil:
		r.cn.Tracker().ObserveLatency(node, rtt)
	}
}

// nodeFailed reports whether err says something about the node that returned
// it. A snapshot below the GC horizon does not: every node of the shard would
// refuse it, so it is neither held against the replica nor retried.
func nodeFailed(err error) bool {
	return err != nil && !errors.Is(err, mvcc.ErrSnapshotTooOld)
}

// rcpStaleness estimates how far the RCP lags real time. Under GClock the
// clock answers directly; under GTM the CN estimates from the rate at which
// timestamps have been growing (Sec. IV-B).
func (c *CN) rcpStaleness(rcpTS ts.Timestamp) time.Duration {
	if c.oracle.Mode() == ts.ModeGClock {
		now := c.oracle.Clock().Now().Clock
		if now <= rcpTS {
			return 0
		}
		return now.Sub(rcpTS)
	}
	c.trackerMu.Lock()
	maxSeen := c.lastMaxTS
	c.trackerMu.Unlock()
	return c.counterStaleness(maxSeen, rcpTS)
}

// counterStaleness converts the GTM counter gap from t up to maxSeen, the
// newest commit timestamp seen at any node, into time at the observed issue
// rate.
func (c *CN) counterStaleness(maxSeen, t ts.Timestamp) time.Duration {
	if t >= maxSeen {
		return 0
	}
	c.trackerMu.Lock()
	rate := c.gtmRate
	c.trackerMu.Unlock()
	if rate <= 0 {
		rate = 1
	}
	return time.Duration(float64(maxSeen-t) / rate * float64(time.Second))
}

// maybeRefreshTracker pulls fresh replica statuses from the collector into
// the ROR tracker, rate-limited to cfg.TrackerRefresh.
func (c *CN) maybeRefreshTracker() {
	c.trackerMu.Lock()
	if time.Since(c.lastRefresh) < c.cfg.TrackerRefresh {
		c.trackerMu.Unlock()
		return
	}
	c.lastRefresh = time.Now()
	c.trackerMu.Unlock()

	statuses := c.Collector().Statuses()
	gclock := c.oracle.Mode() == ts.ModeGClock
	var now ts.Timestamp
	if gclock {
		now = c.oracle.Clock().Now().Clock
	}
	var maxSeen ts.Timestamp
	for _, st := range statuses {
		if st.MaxCommitTS > maxSeen {
			maxSeen = st.MaxCommitTS
		}
	}
	for _, st := range statuses {
		var staleness time.Duration
		switch {
		case st.Primary:
			// Primaries always serve fresh data.
		case gclock:
			if now > st.MaxCommitTS {
				staleness = now.Sub(st.MaxCommitTS)
			}
		default:
			staleness = c.counterStaleness(maxSeen, st.MaxCommitTS)
		}
		c.Tracker().UpdateStatus(st.Node, staleness, st.Load, st.Healthy)
	}

	c.trackerMu.Lock()
	if maxSeen > c.lastMaxTS {
		// Update the GTM-mode issue-rate estimate.
		if !c.lastMaxAt.IsZero() {
			dt := time.Since(c.lastMaxAt).Seconds()
			if dt > 0 {
				inst := float64(maxSeen-c.lastMaxTS) / dt
				c.gtmRate = 0.7*c.gtmRate + 0.3*inst
			}
		}
		c.lastMaxTS = maxSeen
		c.lastMaxAt = time.Now()
	}
	c.trackerMu.Unlock()
}
