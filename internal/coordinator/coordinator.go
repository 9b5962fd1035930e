// Package coordinator implements GlobalDB's computing node (CN): the
// stateless front end that begins and commits transactions, routes reads
// and writes to shard primaries, coordinates two-phase commit across
// shards, and serves read-only queries from asynchronous replicas at the
// RCP snapshot with skyline node selection (Secs. II-A, III, IV).
package coordinator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"globaldb/internal/datanode"
	"globaldb/internal/obs"
	"globaldb/internal/placement"
	"globaldb/internal/rcp"
	"globaldb/internal/ror"
	"globaldb/internal/stats"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/table"
	"globaldb/internal/ts"
	"globaldb/internal/tso"
)

// Commit-path instruments (names in internal/stats).
var (
	metricCommitLatency  = obs.Default.Histogram(stats.MetricCommitLatency)
	metricPrepareLatency = obs.Default.Histogram(stats.MetricPrepareLatency)
	metricDecideLatency  = obs.Default.Histogram(stats.MetricDecideLatency)
	metricOneMsgCommits  = obs.Default.Counter(stats.MetricOneMessageCommits)
	metricOneWrites      = obs.Default.Counter(stats.MetricOneWriteStatements)
	metricAsyncResolves  = obs.Default.Counter(stats.MetricAsyncResolves)
	metricResolveFails   = obs.Default.Counter(stats.MetricResolveFailures)
)

// Errors.
var (
	// ErrTxnDone means the transaction already committed or aborted.
	ErrTxnDone = errors.New("coordinator: transaction already finished")
)

// Routing maps shards to node endpoints. It is shared by every CN and
// mutable for failover.
type Routing struct {
	mu        sync.RWMutex
	primaries []string
	replicas  [][]string
}

// NewRouting builds routing for numShards shards.
func NewRouting(numShards int) *Routing {
	return &Routing{primaries: make([]string, numShards), replicas: make([][]string, numShards)}
}

// NumShards returns the shard count.
func (r *Routing) NumShards() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.primaries)
}

// SetPrimary installs the primary endpoint for a shard (also used by
// failover promotion).
func (r *Routing) SetPrimary(shard int, node string) {
	r.mu.Lock()
	r.primaries[shard] = node
	r.mu.Unlock()
}

// AddReplica registers a replica endpoint for a shard.
func (r *Routing) AddReplica(shard int, node string) {
	r.mu.Lock()
	r.replicas[shard] = append(r.replicas[shard], node)
	r.mu.Unlock()
}

// Reset atomically replaces the whole routing table (failover re-wiring).
func (r *Routing) Reset(primaries []string, replicas [][]string) {
	r.mu.Lock()
	r.primaries = primaries
	r.replicas = replicas
	r.mu.Unlock()
}

// Primary returns the shard's primary endpoint.
func (r *Routing) Primary(shard int) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.primaries[shard]
}

// Replicas returns the shard's replica endpoints.
func (r *Routing) Replicas(shard int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.replicas[shard]))
	copy(out, r.replicas[shard])
	return out
}

// Stats counts CN-level outcomes.
type Stats struct {
	Commits      int64
	Aborts       int64
	ReplicaReads int64
	PrimaryReads int64
	RORFallbacks int64
}

// trackerRefresh is how often ROR metrics are refreshed from the
// collector's statuses.
const trackerRefresh = 2 * time.Millisecond

// gtmRateSeed is the timestamp growth, per second, that staleness estimation
// in GTM mode assumes (Sec. IV-B) until traffic has measured the real rate.
const gtmRateSeed = 10000

// CN is one computing node.
type CN struct {
	name    string
	region  string
	cnID    uint64
	client  *datanode.Client
	oracle  *tso.Oracle
	routing *Routing
	catalog *table.Catalog

	depMu   sync.RWMutex // guards col and tracker, swappable on failover
	col     *rcp.Collector
	tracker *ror.Tracker

	txnSeq atomic.Uint64
	pins   snapshotPins

	trackerMu   sync.Mutex
	lastRefresh time.Time
	lastMaxTS   ts.Timestamp // for GTM-mode staleness rate estimation
	lastMaxAt   time.Time
	gtmRate     float64 // timestamps per second

	commits      atomic.Int64
	aborts       atomic.Int64
	replicaReads atomic.Int64
	primaryReads atomic.Int64
	rorFallbacks atomic.Int64

	// Background 2PC resolution (pipelined phase two). resolveWG tracks
	// in-flight resolutions so Quiesce can drain them; resolveDrop is a
	// test hook simulating coordinator death between decision and
	// resolution.
	resolveWG    sync.WaitGroup
	dropMu       sync.Mutex
	resolveDrop  func(txn uint64) bool
	resolveFails atomic.Int64

	// placement, when set, accumulates per-shard geographic access counts
	// for the load-balancing advisor (the paper's future-work feature).
	placement *placement.Tracker
}

// New creates a CN. cnID must be unique across CNs (it namespaces
// transaction IDs). The RCP collector and ROR tracker are installed
// afterwards with SetCollector and SetTracker once the cluster topology is
// known.
func New(name, region string, cnID uint64, client *datanode.Client, oracle *tso.Oracle,
	routing *Routing, catalog *table.Catalog) *CN {
	return &CN{
		name: name, region: region, cnID: cnID,
		client: client, oracle: oracle, routing: routing,
		tracker: ror.NewTracker(), catalog: catalog,
		gtmRate: gtmRateSeed,
		pins:    snapshotPins{held: make(map[uint64]snapshotPin)},
	}
}

// Name returns the CN's name.
func (c *CN) Name() string { return c.name }

// Region returns the CN's region.
func (c *CN) Region() string { return c.region }

// Oracle exposes the timestamp oracle (transitions, tests).
func (c *CN) Oracle() *tso.Oracle { return c.oracle }

// Catalog exposes the CN's catalog.
func (c *CN) Catalog() *table.Catalog { return c.catalog }

// Routing exposes the shared routing table.
func (c *CN) Routing() *Routing { return c.routing }

// Tracker exposes the ROR tracker (tests, observability).
func (c *CN) Tracker() *ror.Tracker {
	c.depMu.RLock()
	defer c.depMu.RUnlock()
	return c.tracker
}

// SetTracker replaces the ROR tracker (failover re-wiring).
func (c *CN) SetTracker(t *ror.Tracker) {
	c.depMu.Lock()
	c.tracker = t
	c.depMu.Unlock()
}

// Collector returns the RCP collector in use.
func (c *CN) Collector() *rcp.Collector {
	c.depMu.RLock()
	defer c.depMu.RUnlock()
	return c.col
}

// SetCollector installs the RCP collector (set once at cluster start, and
// replaced when the designated collector CN fails over).
func (c *CN) SetCollector(col *rcp.Collector) {
	c.depMu.Lock()
	c.col = col
	c.depMu.Unlock()
}

// SetPlacementTracker installs the shared geographic access tracker.
func (c *CN) SetPlacementTracker(tr *placement.Tracker) { c.placement = tr }

// Stats returns a snapshot of the CN's counters.
func (c *CN) Stats() Stats {
	return Stats{
		Commits:      c.commits.Load(),
		Aborts:       c.aborts.Load(),
		ReplicaReads: c.replicaReads.Load(),
		PrimaryReads: c.primaryReads.Load(),
		RORFallbacks: c.rorFallbacks.Load(),
	}
}

// Quiesce waits for every background 2PC resolution this CN started to
// finish. Call before tearing the cluster down.
func (c *CN) Quiesce() { c.resolveWG.Wait() }

// ResolveFailures reports background resolutions that exhausted retries.
func (c *CN) ResolveFailures() int64 { return c.resolveFails.Load() }

// SetResolveDropHook installs a test hook: when it returns true for a
// transaction, the background phase-two resolution is abandoned,
// simulating the coordinator dying between decision durability and
// resolution. Participants stay prepared until ResolveInDoubt runs.
func (c *CN) SetResolveDropHook(fn func(txn uint64) bool) {
	c.dropMu.Lock()
	c.resolveDrop = fn
	c.dropMu.Unlock()
}

func (c *CN) dropResolve(txn uint64) bool {
	c.dropMu.Lock()
	fn := c.resolveDrop
	c.dropMu.Unlock()
	return fn != nil && fn(txn)
}

// MaxSnapshotHold is how long a read-write transaction's snapshot holds the
// version-GC watermark back. A transaction still open after that — abandoned
// without Commit or Abort, most likely — no longer does, and its next read
// or write below the watermark fails with mvcc.ErrSnapshotTooOld.
const MaxSnapshotHold = time.Minute

// snapshotPins is the set of snapshots this CN's live read-write
// transactions read at: what version GC must not prune past.
type snapshotPins struct {
	mu   sync.Mutex
	held map[uint64]snapshotPin // by transaction id
}

type snapshotPin struct {
	snap  ts.Timestamp
	since time.Time
}

// OldestActiveSnapshot returns the lowest snapshot of any read-write
// transaction begun at this CN and not yet committed or aborted; ok is false
// when there is none. Transactions open for longer than MaxSnapshotHold as
// of now are dropped from the set.
func (c *CN) OldestActiveSnapshot(now time.Time) (oldest ts.Timestamp, ok bool) {
	c.pins.mu.Lock()
	defer c.pins.mu.Unlock()
	for id, p := range c.pins.held {
		switch {
		case now.Sub(p.since) > MaxSnapshotHold:
			delete(c.pins.held, id)
		case !ok || p.snap < oldest:
			oldest, ok = p.snap, true
		}
	}
	return oldest, ok
}

// Begin starts a read-write transaction. Its snapshot pins the version-GC
// watermark until Commit or Abort returns (see MaxSnapshotHold).
func (c *CN) Begin(ctx context.Context) (*Txn, error) {
	tt, err := c.oracle.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return c.newTxn(tt), nil
}

// newTxn registers a transaction at snapshot tt and pins its snapshot.
func (c *CN) newTxn(tt tso.TxnTS) *Txn {
	id := c.nextTxnID()
	c.pins.mu.Lock()
	c.pins.held[id] = snapshotPin{snap: tt.Snap, since: time.Now()}
	c.pins.mu.Unlock()
	return &Txn{cn: c, id: id, ts: tt, pinned: true}
}

// nextTxnID returns a cluster-wide transaction ID.
func (c *CN) nextTxnID() uint64 { return c.cnID<<40 | c.txnSeq.Add(1) }

// unpin releases the transaction's hold on the GC watermark. It runs when
// Commit or Abort returns, not when it starts: the writes a commit flushes
// are checked against the snapshot too. A one-read context and a read-only
// query hold none (CN.ReadOnce, CN.ReadOnly).
func (t *Txn) unpin() {
	if !t.pinned {
		return
	}
	t.cn.pins.mu.Lock()
	delete(t.cn.pins.held, t.id)
	t.cn.pins.mu.Unlock()
}

// Txn is a transaction coordinated by one CN: read-write (CN.Begin), a
// one-read context (CN.ReadOnce) or a read-only query (CN.ReadOnly). Writes
// are buffered here and reach a shard's primary in one message at Commit,
// fused with that shard's PENDING COMMIT or PREPARE step, so a transaction
// pays WAN round trips for its reads plus two for commit — not one per write.
// Write-write conflicts therefore surface when the buffer reaches the
// primary (at Commit, at a flush before a scan, or at the size-bound flush),
// not at Put: the first transaction to flush a key wins.
//
// Every read, a Get or a scan page, goes through one fetch on the
// transaction's read route, fixed when it opens: the shard primary, or for a
// read-only query on replicas the skyline's pick at the RCP under the
// staleness bound, falling back to the primary (see fetch).
type Txn struct {
	cn *CN
	id uint64
	ts tso.TxnTS
	// pinned reports that the snapshot holds the GC watermark (CN.Begin).
	pinned bool
	// readOnly marks a CN.ReadOnly query, which refuses writes; onReplicas
	// and bound are its read route.
	readOnly   bool
	onReplicas bool
	bound      time.Duration
	// writes holds every shard the transaction wrote to — its commit
	// participants — with the mutations still buffered for each. It is made
	// at the first write, so a transaction that only reads allocates none.
	writes map[int]*shardWrites
	// done flips once at Commit/Abort. It is atomic because scan-cursor
	// prefetch goroutines check it while issuing page RPCs in the
	// background; an in-flight prefetch racing a commit observes either
	// state safely and at worst gets ErrTxnDone on its next page.
	done     atomic.Bool
	sync     bool // wait for replica acknowledgement at commit
	commitTS ts.Timestamp
	// oneRead marks a ReadOnce context, read flips at its one Get, and
	// readTS is the version that Get returned from readShard, which its
	// commit message carries for the primary to check. A read of a version
	// committed at or above ts.Settled is waited out at a Commit that writes
	// nothing (tso.Oracle.SettleRead).
	oneRead   bool
	read      bool
	readShard int
	readTS    ts.Timestamp
}

// CommitTS returns the transaction's commit timestamp, or zero before a
// successful Commit (read-only transactions never acquire one).
func (t *Txn) CommitTS() ts.Timestamp { return t.commitTS }

// RequireSyncCommit marks the transaction as writing a synchronously
// replicated table: its commit waits for replica acknowledgement even under
// asynchronous cluster replication.
func (t *Txn) RequireSyncCommit() { t.sync = true }

// ID returns the cluster-wide transaction ID.
func (t *Txn) ID() uint64 { return t.id }

// OneRead reports whether the transaction is a one-read context, which
// CN.ReadOnce returns under GClock only.
func (t *Txn) OneRead() bool { return t.oneRead }

// Snapshot returns the transaction's snapshot timestamp.
func (t *Txn) Snapshot() ts.Timestamp { return t.ts.Snap }

// shardWrites is one participant shard's write state.
type shardWrites struct {
	// ops are the mutations not yet sent to the primary, one per key in
	// first-write order; latest indexes them by key so a rewrite replaces
	// its op in place and Get answers from the buffer.
	ops    []datanode.WriteOp
	latest map[string]int
	// sent reports that a write message for this transaction went to the
	// primary, i.e. there may be intents there to roll back.
	sent bool
}

// take empties the buffer for sending.
func (w *shardWrites) take() []datanode.WriteOp {
	ops := w.ops
	w.ops = nil
	clear(w.latest)
	w.sent = true
	return ops
}

// WriteBatch buffers a batch of mutations for one shard. Nothing is sent
// unless the shard's buffer reaches datanode.DefaultScanPageSize ops, which
// flushes it so bulk transactions do not accumulate at the CN. The op
// slices are retained until the transaction finishes.
func (t *Txn) WriteBatch(ctx context.Context, shard int, ops []datanode.WriteOp) error {
	if t.readOnly {
		return ErrReadOnly
	}
	if t.done.Load() {
		return ErrTxnDone
	}
	w := t.writes[shard]
	if w == nil {
		if t.writes == nil {
			t.writes = make(map[int]*shardWrites)
		}
		w = &shardWrites{latest: make(map[string]int, len(ops))}
		t.writes[shard] = w
	}
	for _, op := range ops {
		if i, ok := w.latest[string(op.Key)]; ok {
			w.ops[i] = op
			continue
		}
		w.latest[string(op.Key)] = len(w.ops)
		w.ops = append(w.ops, op)
	}
	if tr := t.cn.placement; tr != nil {
		tr.RecordWrite(shard, t.cn.region)
	}
	if len(w.ops) >= datanode.DefaultScanPageSize {
		return t.flush(ctx, shard)
	}
	return nil
}

// flush sends a shard's buffered ops to its primary as a plain write, making
// them intents there: before a scan of that shard (pushed fragments and
// lookup joins run on the data node and must see them) and when the buffer
// fills. A write-write conflict surfaces here.
func (t *Txn) flush(ctx context.Context, shard int) error {
	if t.oneRead {
		// Its writes go only with the commit that checks them; and the
		// scans that flush may read many times.
		return ErrOneRead
	}
	w := t.writes[shard]
	if w == nil || len(w.ops) == 0 {
		return nil
	}
	return t.cn.client.Write(ctx, t.cn.routing.Primary(shard), t.id, t.ts.Snap, w.take())
}

// flushAll flushes every shard that has buffered writes, concurrently.
func (t *Txn) flushAll(ctx context.Context) error {
	var dirty []int
	for shard, w := range t.writes {
		if len(w.ops) > 0 {
			dirty = append(dirty, shard)
		}
	}
	if len(dirty) == 0 {
		return nil
	}
	return fanOut(len(dirty), func(i int) error { return t.flush(ctx, dirty[i]) })
}

// Put stages one write.
func (t *Txn) Put(ctx context.Context, shard int, key, value []byte) error {
	return t.WriteBatch(ctx, shard, []datanode.WriteOp{{Key: key, Value: value}})
}

// Delete stages one deletion.
func (t *Txn) Delete(ctx context.Context, shard int, key []byte) error {
	return t.WriteBatch(ctx, shard, []datanode.WriteOp{{Delete: true, Key: key}})
}

// Get reads a key at the transaction's snapshot on its read route,
// observing the transaction's own writes: a key still in the write buffer is
// answered from it without a round trip.
func (t *Txn) Get(ctx context.Context, shard int, key []byte) ([]byte, bool, error) {
	if t.done.Load() {
		return nil, false, ErrTxnDone
	}
	if t.oneRead {
		if t.read || len(t.writes) > 0 {
			return nil, false, ErrOneRead
		}
		t.read, t.readShard = true, shard
	} else if w := t.writes[shard]; w != nil {
		if i, ok := w.latest[string(key)]; ok {
			op := w.ops[i]
			return op.Value, !op.Delete, nil
		}
	}
	var r datanode.ReadResp
	err := t.fetch(ctx, shard, func(node string) (newest ts.Timestamp, err error) {
		r, err = t.cn.client.ReadVersion(ctx, node, datanode.ReadReq{Key: key, SnapTS: t.ts.Snap, Txn: t.id, Once: t.oneRead})
		return r.CommitTS, err
	})
	if t.oneRead {
		t.readTS = r.CommitTS
	}
	return r.Value, r.Found, err
}

// Commit finishes the transaction: each participant receives its buffered
// writes and its PENDING COMMIT (single shard) or PREPARE (two-phase commit)
// step in one message, then the commit timestamp is fetched, then the
// decision is applied — for a single shard under GClock all in that one
// message, the primary's clock issuing the timestamp. The commit wait
// completes before Commit returns (external consistency).
func (t *Txn) Commit(ctx context.Context) error {
	if !t.done.CompareAndSwap(false, true) {
		return ErrTxnDone
	}
	defer t.unpin()
	shards := t.shards()
	if len(shards) == 0 {
		if t.oneRead && t.readTS >= t.ts.Settled {
			// Nothing written: the clock must pass the version read before
			// the statement completes (see fetch).
			return t.cn.oracle.SettleRead(ctx, t.readTS)
		}
		return nil // read-only: nothing to resolve, and every read settled
	}
	if t.oneRead && (len(shards) > 1 || shards[0] != t.readShard || t.readTS == 0) {
		// Only a version read can be checked, on the shard it was read from;
		// nothing was sent.
		return ErrOneRead
	}

	sp := obs.SpanFrom(ctx).Child("commit")
	defer sp.End()
	tCommit := time.Now()
	defer func() { metricCommitLatency.Observe(time.Since(tCommit)) }()

	if len(shards) == 1 {
		shard := shards[0]
		node := t.cn.routing.Primary(shard)
		ops := t.writes[shard].take()
		// Under GClock the primary has a synchronized clock of its own, so it
		// is asked to issue the commit timestamp and finish the commit in the
		// message that carries the writes (ThenCommit). A transaction begun
		// under GTM is never delegated: Fig. 2's abort rule is the oracle's to
		// apply. A primary that is not in GClock mode itself answers with no
		// timestamp, having only logged PENDING COMMIT, which precedes the
		// timestamp fetch either way (Sec. IV-A).
		var resp datanode.WriteResp
		var err error
		// A one-write statement always asks, so that its version check
		// travels with its writes; its snapshot was taken under GClock.
		if t.oneRead || (t.ts.Mode != ts.ModeGTM && t.cn.oracle.Mode() == ts.ModeGClock) {
			resp, err = t.cn.client.WriteCommit(ctx, node, t.id, t.ts.Snap, ops, t.sync, t.readTS)
		} else {
			resp, err = t.cn.client.WriteStep(ctx, node, t.id, t.ts.Snap, ops, datanode.ThenPending, "")
		}
		commitTS := resp.CommitTS
		var finish func(context.Context) error
		switch {
		case err != nil: // aborted below
		case commitTS != 0:
			finish = func(ctx context.Context) error { return t.cn.oracle.Adopt(ctx, commitTS) }
			metricOneMsgCommits.Inc()
			path := "one-message"
			if t.oneRead {
				path = "one-write"
				metricOneWrites.Inc()
			}
			if sp != nil { // untraced, skip boxing Tag's arguments
				sp.Tag("shard=%d node=%s ops=%d path=%s floor-bump=%v", shard, node, len(ops), path, resp.FloorBump)
			}
		default:
			// The centralized path: fetch the timestamp here, above the
			// primary's read floor, and send it over.
			if sp != nil {
				sp.Tag("shard=%d node=%s ops=%d path=two-message", shard, node, len(ops))
			}
			if commitTS, finish, err = t.cn.oracle.CommitAbove(ctx, t.ts.Mode, resp.Floor); err != nil {
				break
			}
			if err = t.cn.client.Commit(ctx, node, t.id, commitTS, t.sync); err != nil {
				err = fmt.Errorf("coordinator: commit apply: %w", err)
			}
		}
		if err != nil {
			// Nothing was applied, or the outcome is unknown (the ack wait was
			// cancelled after the records were appended); either way the
			// transaction must not stay pending forever. The abort is a no-op
			// at a primary that did commit.
			t.abortShards(shards)
			return err
		}
		if err := finish(ctx); err != nil {
			return err
		}
		t.commitTS = commitTS
		t.cn.commits.Add(1)
		return nil
	}

	// Two-phase commit, pipelined. The participant nearest this CN is the
	// transaction's anchor: every prepare record names it, and the client
	// ack gates only on the anchor's commit being durable (decision
	// durability) — a local WAL wait whenever the transaction touched a home
	// shard. The remaining participants resolve in the background — safe
	// because prepared tuples block readers until resolution arrives, and a
	// crashed resolver is replaced by ResolveInDoubt asking the anchor for
	// the durable outcome.
	t.anchorFirst(shards)
	anchor := t.cn.routing.Primary(shards[0])
	batches := make([][]datanode.WriteOp, len(shards))
	for i, shard := range shards {
		batches[i] = t.writes[shard].take()
	}
	if sp != nil {
		sp.Tag("2pc shards=%d anchor=%s ops=%s", len(shards), anchor, opsPerShard(shards, batches))
	}
	prep := sp.Child("2pc-prepare")
	tPrep := time.Now()
	floors := make([]ts.Timestamp, len(shards))
	err := fanOut(len(shards), func(i int) error {
		resp, err := t.cn.client.WriteStep(ctx, t.cn.routing.Primary(shards[i]), t.id, t.ts.Snap,
			batches[i], datanode.ThenPrepare, anchor)
		floors[i] = resp.Floor
		return err
	})
	metricPrepareLatency.Observe(time.Since(tPrep))
	prep.End()
	if err != nil {
		t.abortPrepared(shards)
		return fmt.Errorf("coordinator: prepare: %w", err)
	}
	// The commit-timestamp fetch must follow every PENDING/prepare record
	// (Sec. IV-A), so it cannot overlap phase one; and it lands above every
	// snapshot a participant served before it prepared (its read floor).
	commitTS, finish, err := t.cn.oracle.CommitAbove(ctx, t.ts.Mode, slices.Max(floors))
	if err != nil {
		t.abortPrepared(shards)
		return err
	}
	// Decision durability: commit the anchor synchronously. Its ack means
	// the decision survives any crash — recovery finds it in the anchor's
	// WAL, and presumed abort covers every txn without one.
	dec := sp.Child("2pc-decide")
	tDec := time.Now()
	err = t.resolvePrepared(shards[:1], commitTS)
	metricDecideLatency.Observe(time.Since(tDec))
	dec.End()
	if err != nil {
		return fmt.Errorf("coordinator: commit decision: %w", err)
	}
	rest := shards[1:]
	if t.sync {
		// Per-table synchronous replication keeps phase two synchronous:
		// the caller asked for replica acknowledgement before the ack.
		res := sp.Child("2pc-commit")
		err = t.resolvePrepared(rest, commitTS)
		res.End()
		if err != nil {
			return fmt.Errorf("coordinator: commit prepared: %w", err)
		}
	} else {
		metricAsyncResolves.Inc()
		t.cn.resolveWG.Add(1)
		go func() {
			defer t.cn.resolveWG.Done()
			if t.cn.dropResolve(t.id) {
				return // chaos hook: simulate coordinator death here
			}
			if err := t.resolvePrepared(rest, commitTS); err != nil {
				t.cn.resolveFails.Add(1)
				metricResolveFails.Inc()
			}
		}()
	}
	if err := finish(ctx); err != nil {
		return err
	}
	t.commitTS = commitTS
	t.cn.commits.Add(1)
	return nil
}

// anchorFirst moves the 2PC anchor to the front of shards (sorted by id):
// the participant whose primary is nearest this CN — one in the CN's own
// region, else the lowest tracked latency, ties to the lowest shard id. A
// primary the tracker does not know ranks last, so an unwired CN anchors at
// the lowest shard id.
func (t *Txn) anchorFirst(shards []int) {
	const unknown = time.Duration(math.MaxInt64)
	tracker := t.cn.Tracker()
	best, bestDist := 0, unknown
	for i, shard := range shards {
		dist := unknown
		if c, ok := tracker.Node(t.cn.routing.Primary(shard)); ok {
			dist = c.Latency
			if c.Region == t.cn.region {
				dist = 0
			}
		}
		if dist < bestDist {
			best, bestDist = i, dist
		}
	}
	anchor := shards[best]
	copy(shards[1:best+1], shards[:best])
	shards[0] = anchor
}

// opsPerShard renders "shard:ops" pairs for the commit span's tag.
func opsPerShard(shards []int, batches [][]datanode.WriteOp) string {
	var b strings.Builder
	for i, shard := range shards {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", shard, len(batches[i]))
	}
	return b.String()
}

// resolvePrepared drives 2PC phase two to completion with bounded retries.
func (t *Txn) resolvePrepared(shards []int, commitTS ts.Timestamp) error {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		cctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		lastErr = t.forEachShard(cctx, shards, func(ctx context.Context, node string) error {
			err := t.cn.client.CommitPrepared(ctx, node, t.id, commitTS, t.sync)
			if errors.Is(err, mvcc.ErrTxnNotFound) {
				return nil // already resolved by an earlier attempt
			}
			return err
		})
		cancel()
		if lastErr == nil {
			return nil
		}
		time.Sleep(time.Duration(attempt+1) * time.Millisecond)
	}
	return lastErr
}

// Abort rolls back the transaction on every shard a write message reached;
// a shard whose writes never left the buffer is sent nothing.
func (t *Txn) Abort(ctx context.Context) error {
	if !t.done.CompareAndSwap(false, true) {
		return ErrTxnDone
	}
	defer t.unpin()
	var sent []int
	for shard, w := range t.writes {
		if w.sent {
			sent = append(sent, shard)
		}
	}
	t.abortShards(sent)
	return nil
}

// shards lists the transaction's participants in ascending shard order.
func (t *Txn) shards() []int {
	out := make([]int, 0, len(t.writes))
	for s := range t.writes {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

func (t *Txn) forEachShard(ctx context.Context, shards []int, fn func(context.Context, string) error) error {
	return fanOut(len(shards), func(i int) error {
		return fn(ctx, t.cn.routing.Primary(shards[i]))
	})
}

// fanOut runs fn(0..n-1) concurrently and joins the errors — the
// coordinator's fan-out primitive for "touch all shards" rounds (2PC
// prepare/commit/abort), so they cost one round trip instead of K serial
// ones. Scans reach the same shape differently: their per-shard
// concurrency lives in the cursors' long-lived prefetch goroutines.
func fanOut(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0) // skip the goroutine for the single-shard fast path
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// abortShards rolls back on a cleanup context so a canceled caller cannot
// leave intents behind to block future readers and writers.
func (t *Txn) abortShards(shards []int) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = t.forEachShard(ctx, shards, func(ctx context.Context, node string) error {
		return t.cn.client.Abort(ctx, node, t.id)
	})
	t.cn.aborts.Add(1)
}

// ResolveInDoubt drives every in-doubt (prepared-but-unresolved) 2PC
// transaction on the given primaries to an outcome — the recovery path
// after a coordinator died between decision durability and background
// resolution. Each prepare record names its anchor; the anchor's durable
// decision (commit with its timestamp, or abort) is replayed onto the
// stuck participant. When the anchor holds no decision the transaction is
// presumed aborted: the client ack gates on the anchor's commit, so no
// decision durable at the anchor means no client was ever acked.
func ResolveInDoubt(ctx context.Context, client *datanode.Client, primaries []string) (committed, aborted int, err error) {
	for _, node := range primaries {
		txns, err := client.InDoubt(ctx, node)
		if err != nil {
			return committed, aborted, err
		}
		for _, it := range txns {
			var st datanode.TxnStatusResp
			if it.Anchor != "" {
				if st, err = client.TxnStatus(ctx, it.Anchor, it.Txn); err != nil {
					return committed, aborted, err
				}
			}
			var rerr error
			if st.Known && st.Committed {
				rerr = client.CommitPrepared(ctx, node, it.Txn, st.TS, false)
				committed++
			} else {
				rerr = client.AbortPrepared(ctx, node, it.Txn)
				aborted++
			}
			if rerr != nil && !errors.Is(rerr, mvcc.ErrTxnNotFound) {
				return committed, aborted, rerr
			}
		}
	}
	return committed, aborted, nil
}

func (t *Txn) abortPrepared(shards []int) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = t.forEachShard(ctx, shards, func(ctx context.Context, node string) error {
		return t.cn.client.AbortPrepared(ctx, node, t.id)
	})
	t.cn.aborts.Add(1)
}
