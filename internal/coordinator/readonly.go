package coordinator

import (
	"context"
	"errors"
	"time"

	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
	"globaldb/internal/tso"
)

// AnyStaleness disables the freshness bound: the query accepts whatever the
// RCP currently offers.
const AnyStaleness = time.Duration(-1)

// ErrOneRead is returned by a one-read context (CN.ReadOnce) asked for a
// second Get, or for a scan or a flush: its snapshot is only valid for one
// read. The context also returns it from a Commit whose writes its one read
// cannot vouch for.
var ErrOneRead = errors.New("coordinator: a one-read context answers exactly one Get")

// ErrReadOnly is returned by a write to a read-only query (CN.ReadOnly).
var ErrReadOnly = errors.New("coordinator: a read-only query cannot write")

// ReadOnly starts a read-only query with a staleness bound: a transaction
// whose reads are served from replicas at the RCP snapshot when the bound and
// the DDL gate allow it, and from primaries at a fresh snapshot otherwise
// (Sec. IV). The route is decided here, once, so every read in the query sees
// one snapshot on one class of nodes (no torn mixed reads). The query takes no
// transaction ID and no pin on version GC, and refuses writes with
// ErrReadOnly. tableIDs are the tables the query will touch, for the DDL
// visibility gate; pass none to gate on the global maximum DDL timestamp only.
func (c *CN) ReadOnly(ctx context.Context, bound time.Duration, tableIDs ...uint64) (*Txn, error) {
	rcpTS := c.Collector().RCP()
	onReplicas := true

	// DDL gate (Sec. IV-A): every involved table's schema must have
	// reached the replicas.
	if !c.catalog.RORAllowed(rcpTS, tableIDs...) {
		onReplicas = false
		c.rorFallbacks.Add(1)
	}
	// Freshness gate: the RCP itself must satisfy the bound.
	if onReplicas && bound >= 0 && c.rcpStaleness(rcpTS) > bound {
		onReplicas = false
		c.rorFallbacks.Add(1)
	}

	if onReplicas {
		c.maybeRefreshTracker()
		return &Txn{cn: c, ts: tso.TxnTS{Snap: rcpTS}, readOnly: true, onReplicas: true, bound: bound}, nil
	}
	// Fresh snapshot on primaries, the one a read-write transaction takes:
	// the primaries' read floors keep it stable across the query's reads.
	snap, err := c.oracle.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &Txn{cn: c, ts: snap, readOnly: true, bound: bound}, nil
}

// ReadOnce starts a transaction for one statement that reads one key on a
// shard primary once and then writes at most that row and its index entries:
// an autocommit point SELECT, UPDATE or DELETE. Its one Get raises no read
// floor at the primary (datanode.ReadReq.Once), so its snapshot is not held
// stable: a commit a trailing clock timestamps below it may land after the
// read. The context therefore answers one Get and refuses a second, every
// scan and every flush with ErrOneRead. In exchange, a point statement does
// not push up the commit timestamps, and so the commit waits, of the writes
// that follow it at the primary.
//
// The Get records the version it returned. A Commit that writes carries it
// in the commit message, and the primary refuses the writes with
// mvcc.ErrWriteConflict unless that version is still the newest of every key
// written, checked under the hold that issues the commit timestamp above it;
// the read and the writes then act as one step at the commit timestamp, and
// the commit wait (Adopt) orders it after everything it read. A Commit with
// nothing to write returns only once the clock has passed the commit of the
// version read (SettleRead), so a read that starts after it, on any CN, sees
// that version too: the statement commits before its row leaves. Commit also
// refuses writes that span shards or follow a read that found no version.
//
// The context holds no pin on version GC: like a read-only query, it reads
// and writes for one statement at a snapshot fresher than the watermark a GC
// round may raise to (cluster.PruneOnce), and a store refuses a read or a
// write below its floor. In the centralized modes it is an ordinary Begin
// transaction.
func (c *CN) ReadOnce(ctx context.Context) (*Txn, error) {
	tt, err := c.oracle.Begin(ctx)
	if err != nil {
		return nil, err
	}
	if tt.Mode != ts.ModeGClock {
		return c.newTxn(tt), nil
	}
	return &Txn{cn: c, id: c.nextTxnID(), ts: tt, oneRead: true}, nil
}

// OnReplicas reports whether the transaction is a read-only query that
// reads replicas at the RCP.
func (t *Txn) OnReplicas() bool { return t.onReplicas }

// pick chooses the node that serves a read of shard on the transaction's
// route, and reports whether it is a replica.
func (t *Txn) pick(shard int) (node string, replica bool) {
	if t.onReplicas {
		t.cn.maybeRefreshTracker()
		// Pure skyline cost selection (Fig. 5): the primary competes with the
		// replicas, so a home-shard read takes the local primary while a
		// remote-shard read takes the local replica — the routing that yields
		// the paper's read speedups.
		if best, ok := t.cn.Tracker().Pick(shard, t.bound, false); ok {
			return best.Node, !best.Primary
		}
		// Everything is dark; the primary is the last resort.
	}
	return t.cn.routing.Primary(shard), false
}

// fetch runs one read of shard, a Get or a scan page, on the transaction's
// route: call sends it to a node and returns the newest commit timestamp the
// result was computed from. It picks the node, counts the read, and retries
// once on the primary when a replica fails. A read-only query's round trip,
// or its failure, is noted in the ROR tracker; a read-write transaction's
// read is counted for the placement advisor instead.
//
// Under GClock, the result leaves fetch only once the clock's lower bound has
// passed that timestamp (tso.Oracle.SettleRead), unless it lies below the
// bound recorded at begin: a commit is visible before its commit wait ends,
// and a read that starts after this one returns, on a trailing clock, must
// still see what this one saw. A read at the RCP never settles: the RCP is
// below every primary's heartbeat stamp, a clock's lower bound. A one-read
// context settles its one read at Commit instead, which its statement runs
// before the row leaves (CN.ReadOnce).
func (t *Txn) fetch(ctx context.Context, shard int, call func(node string) (ts.Timestamp, error)) error {
	node, replica := t.pick(shard)
	start := time.Now()
	newest, err := call(node)
	if err != nil && ctx.Err() != nil {
		// The caller gave up (cancel or deadline, or a cursor's Close), which
		// says nothing about the node; and a retry on the primary would run
		// on the same dead context.
		return err
	}
	if replica {
		t.cn.replicaReads.Add(1)
	} else {
		t.cn.primaryReads.Add(1)
	}
	switch {
	case !t.readOnly:
		if tr := t.cn.placement; tr != nil {
			tr.RecordRead(shard, t.cn.region)
		}
	case nodeFailed(err):
		t.cn.Tracker().MarkFailed(node)
	case err == nil:
		t.cn.Tracker().ObserveLatency(node, time.Since(start))
	}
	if replica && nodeFailed(err) {
		// One retry on the primary: the replica crashed mid-query.
		t.cn.primaryReads.Add(1)
		newest, err = call(t.cn.routing.Primary(shard))
	}
	if err == nil && t.ts.Mode == ts.ModeGClock && !t.onReplicas && !t.oneRead && newest >= t.ts.Settled {
		err = t.cn.oracle.SettleRead(ctx, newest)
	}
	return err
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
