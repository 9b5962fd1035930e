package coordinator

import (
	"context"
	"errors"
	"time"

	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
)

// AnyStaleness disables the freshness bound: the query accepts whatever the
// RCP currently offers.
const AnyStaleness = time.Duration(-1)

// ErrOneRead is returned by a one-read context (CN.ReadOnce) asked for a
// second Get, or for a scan or a flush: its snapshot is only valid for one
// read. The context also returns it from a Commit whose writes its one read
// cannot vouch for.
var ErrOneRead = errors.New("coordinator: a one-read context answers exactly one Get")

// ROTxn is a read-only query context. Reads are served from replicas at the
// RCP snapshot when the staleness bound and the DDL gate allow it, and fall
// back to primaries at a fresh snapshot otherwise (Sec. IV).
type ROTxn struct {
	cn    *CN
	snap  ts.Timestamp
	bound time.Duration
	// replicaMode is decided once at creation so every read in the query
	// sees one snapshot on one class of nodes (no torn mixed reads).
	replicaMode bool
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

// ReadOnce starts a transaction for one statement that reads one key on a
// shard primary once and then writes at most that row and its index entries:
// an autocommit point SELECT, UPDATE or DELETE. Under GClock its snapshot
// skips the invocation wait (tso.SnapshotNoWait), which is safe because
// nothing reads at that snapshot a second time: the context answers one Get
// and refuses a second, every scan and every flush with ErrOneRead.
//
// That snapshot is not stable: a commit a trailing clock timestamps below it
// may land after the read. So the Get records the version it returned. A
// Commit that writes carries it in the commit message, and the primary
// refuses the writes with mvcc.ErrWriteConflict unless that version is still
// the newest of every key written, checked under the hold that issues the
// commit timestamp above it; the read and the writes then act as one step at
// the commit timestamp, and the commit wait (Adopt) orders it after
// everything it read. A Commit with nothing to write returns only once the
// clock has passed the commit of the version read (SettleRead), so a read
// that starts after it, on any CN, sees that version too. Commit also refuses
// writes that span shards or follow a read that found no version.
//
// The context holds no pin on version GC: like a read-only query, it reads
// and writes for one statement at a snapshot fresher than the watermark a GC
// round may raise to (cluster.PruneOnce), and a store refuses a read or a
// write below its floor. In the centralized modes it is an ordinary Begin
// transaction.
func (c *CN) ReadOnce(ctx context.Context) (*Txn, error) {
	snap, settled := c.oracle.SnapshotNoWait()
	if snap.Snap == 0 {
		return c.Begin(ctx)
	}
	return &Txn{cn: c, id: c.nextTxnID(), ts: snap, oneRead: true, settled: settled}, nil
}

// Snapshot returns the query's snapshot timestamp.
func (r *ROTxn) Snapshot() ts.Timestamp { return r.snap }

// OnReplicas reports whether the query reads from replicas.
func (r *ROTxn) OnReplicas() bool { return r.replicaMode }

// Get reads one key.
func (r *ROTxn) Get(ctx context.Context, shard int, key []byte) ([]byte, bool, error) {
	node, replica := r.pick(shard)
	start := time.Now()
	v, found, err := r.cn.client.Read(ctx, node, key, r.snap, 0)
	if err != nil && ctx.Err() != nil {
		// The caller gave up (cancel or deadline), which says nothing about
		// the node; and a retry on the primary would run on the same dead
		// context. The scan path keeps the same rule.
		return nil, false, err
	}
	r.observe(node, replica, start, err)
	if nodeFailed(err) && replica {
		// One retry on the primary: the replica crashed mid-query.
		r.cn.primaryReads.Add(1)
		return r.cn.client.Read(ctx, r.cn.routing.Primary(shard), key, r.snap, 0)
	}
	return v, found, err
}

// pick chooses the serving node for a shard.
func (r *ROTxn) pick(shard int) (node string, replica bool) {
	if !r.replicaMode {
		return r.cn.routing.Primary(shard), false
	}
	r.cn.maybeRefreshTracker()
	// Pure skyline cost selection (Fig. 5): the primary competes with the
	// replicas, so a home-shard read takes the local primary while a
	// remote-shard read takes the local replica — the routing that yields
	// the paper's read speedups.
	best, ok := r.cn.Tracker().Pick(shard, r.bound, false)
	if !ok {
		// Everything is dark; the primary is the last resort.
		return r.cn.routing.Primary(shard), false
	}
	return best.Node, !best.Primary
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
// the ROR tracker, rate-limited to trackerRefresh.
func (c *CN) maybeRefreshTracker() {
	c.trackerMu.Lock()
	if time.Since(c.lastRefresh) < trackerRefresh {
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
