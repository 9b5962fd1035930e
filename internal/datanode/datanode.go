// Package datanode implements GlobalDB's data node (DN) roles.
//
// A primary DN owns one shard: it stages write intents, appends redo
// records, participates in two-phase commit, and ships its log to replicas.
// A replica DN replays redo and serves read-only queries at RCP-consistent
// snapshots (Sec. IV). Both roles are reachable only through simulated
// network endpoints, so every CN↔DN interaction pays WAN cost.
//
// Per-operation atomicity between the MVCC store and the redo log is
// guaranteed by a node-level mutex: the log order of heap and control
// records always matches the store's intent order, which is what makes
// replica replay conflict-free.
package datanode

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"globaldb/internal/netsim"
	"globaldb/internal/obs"
	"globaldb/internal/redo"
	"globaldb/internal/repl"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
	"globaldb/internal/tso"
	"globaldb/internal/wal"
)

// MetricReadFloorBumps counts, on obs.Default, the single-shard commits whose
// timestamp a primary's read floor decided rather than its clock:
// WriteResp.FloorBump is the size of each such bump.
const MetricReadFloorBumps = "dn_read_floor_bumps_total"

var metricReadFloorBumps = obs.Default.Counter(MetricReadFloorBumps)

// WriteOp is one staged mutation.
type WriteOp struct {
	// Delete marks a deletion; Value is ignored.
	Delete bool
	// Key is the full encoded key.
	Key []byte
	// Value is the encoded row or index entry.
	Value []byte
}

// Wire size approximation for a write op.
func (op WriteOp) size() int { return len(op.Key) + len(op.Value) + 8 }

// Request/response payloads. All travel as netsim message payloads.
type (
	// WriteReq stages intents for a transaction and, per Then, moves the
	// transaction into its commit protocol in the same message: the
	// coordinator buffers writes and ships each participant one WriteReq at
	// commit, so staging and PENDING COMMIT / PREPARE cost one round trip
	// instead of one per write plus one. The zero Then only stages.
	WriteReq struct {
		Txn    uint64
		SnapTS ts.Timestamp
		Ops    []WriteOp
		// Then is the step that follows staging, applied only when every op
		// staged. The primary performs both under one hold of its mutex, so
		// the redo stream reads heap records then the control record, exactly
		// as separate messages would have produced.
		Then WriteThen
		// Anchor (ThenPrepare) names the participant that holds the
		// authoritative commit/abort decision (the coordinator commits it
		// synchronously before acking the client); it is logged with the
		// prepare record so recovery can ask the right node for the outcome.
		Anchor string
		// Sync (ThenCommit) forces a replica-quorum wait before the ack, as
		// CommitReq.Sync does.
		Sync bool
		// ReadTS, when non-zero, is the version a one-write statement read
		// (ReadResp.CommitTS). Staging then refuses with
		// mvcc.ErrWriteConflict unless it is still the newest committed
		// version of every key written (mvcc.Store.Unchanged): a row's index
		// entries are written with the row, so they carry its version.
		ReadTS ts.Timestamp
	}
	// WriteResp acknowledges staged intents (and the Then step).
	WriteResp struct {
		// CommitTS is the commit timestamp the primary issued from its own
		// clock for a ThenCommit; by the time the response leaves, the commit
		// is applied, durable and replicated as CommitReq's ack promises. The
		// coordinator still owes the commit wait before it acks its client.
		// Zero — always for the other steps, and for a ThenCommit whose
		// primary is not in GClock mode — means the transaction is staged
		// and, for ThenCommit and ThenPending, pending: the coordinator
		// fetches the timestamp and sends CommitReq.
		CommitTS ts.Timestamp
		// FloorBump is how far the commit watermark or the read floor pushed
		// CommitTS past the primary's clock reading (see ThenCommit); zero
		// when the clock won.
		FloorBump time.Duration
		// Floor is the primary's read floor once the step's marks are in
		// place, set when the primary issued no timestamp: a PREPARE ack's
		// floor, and a pending single-shard commit's. The coordinator issues
		// the commit timestamp above the highest floor its acks returned.
		Floor ts.Timestamp
	}

	// ReadReq is a point read at a snapshot.
	ReadReq struct {
		Key    []byte
		SnapTS ts.Timestamp
		Txn    uint64 // non-zero: read own writes
		// Once marks the one read of a one-read context
		// (coordinator.CN.ReadOnce), which raises no read floor: nothing
		// reads at its snapshot again, and a write it makes is checked
		// against the version it read (WriteReq.ReadTS) instead.
		Once bool
	}
	// ReadResp returns the value if found.
	ReadResp struct {
		Value []byte
		Found bool
		// CommitTS is the commit timestamp of the version that answered, a
		// deletion's included; zero when none did or the reader's own write
		// did. A GClock reader settles it before the result leaves the
		// computing node (tso.Oracle.SettleRead).
		CommitTS ts.Timestamp
	}

	// ScanPageReq is one page of a resumable range scan. MaxPage caps the
	// page size (rows per response); the node clamps it to its own limit so
	// a single RPC never ships an unbounded result over the WAN. Frag, when
	// non-nil, is an encoded execution fragment (globaldb/gsql/fragment)
	// the node evaluates locally: rows are filtered, projected, or folded
	// into partial aggregates before anything is shipped back, and Limit /
	// MaxPage then budget the *qualifying* rows.
	//
	// The coordinator's prefetching cursors issue page requests ahead of
	// consumption, so a node may be serving page N+1 while the CN is still
	// decoding page N. That stays correct for free on this side: each
	// request is self-contained (resume key plus budgets — the node keeps
	// no cursor state), adaptive page sizing lives in the coordinator's
	// serial fetch loop (MaxPage simply arrives already grown, and Limit
	// reflects the rows still wanted after every earlier page, which the
	// cursor decrements before issuing the next request), and a response
	// never aliases memory the node will reuse for a later request (see
	// the fragment executor's page-buffer notes).
	ScanPageReq struct {
		Start, End []byte
		SnapTS     ts.Timestamp
		Limit      int // total rows the cursor still wants; <= 0 unlimited
		MaxPage    int // rows per page; <= 0 uses DefaultScanPageSize
		Txn        uint64
		Frag       []byte // encoded execution fragment; nil = raw scan
	}
	// ScanPageResp returns one page plus the resume position.
	ScanPageResp struct {
		KVs  []mvcc.KV
		Next []byte // resume key for the following page (when More)
		More bool   // whether the range may hold further rows
		// Examined counts the storage rows this request evaluated, so the
		// coordinator can account rows filtered out at the data node
		// (Examined - len(KVs)) without a second RPC.
		Examined int
		// Looked counts the inner-table rows a pushed lookup join read
		// node-side to build joined rows; zero for plain scans.
		Looked int
		// ExecNanos is the node-side execution time for this page (MVCC
		// scan plus fragment evaluation), carried back so the coordinator's
		// tracer can split an RPC span into network vs remote-execute time.
		ExecNanos int64
		// Newest is the highest commit timestamp among the versions the page
		// was computed from, deletions and rows a fragment filtered out or
		// looked up included — ReadResp.CommitTS for a page. A GClock reader
		// settles it before the page leaves the computing node.
		Newest ts.Timestamp
	}

	// CommitReq commits a single-shard transaction at TS. Sync forces a
	// replica-quorum wait even under asynchronous replication (per-table
	// synchronous replication).
	CommitReq struct {
		Txn  uint64
		TS   ts.Timestamp
		Sync bool
	}
	// AbortReq aborts a transaction.
	AbortReq struct{ Txn uint64 }
	// CommitPreparedReq is 2PC phase two (commit). Sync as in CommitReq.
	CommitPreparedReq struct {
		Txn  uint64
		TS   ts.Timestamp
		Sync bool
	}
	// AbortPreparedReq is 2PC phase two (abort).
	AbortPreparedReq struct{ Txn uint64 }

	// HeartbeatReq advances replicas' max commit timestamp on idle shards.
	HeartbeatReq struct{ TS ts.Timestamp }
	// DDLReq records a catalog change in the redo stream. Table carries
	// the table ID; Schema the serialized schema (may be nil for drops).
	DDLReq struct {
		Table  uint64
		TS     ts.Timestamp
		Schema []byte
	}

	// TxnStatusReq asks a primary whether it resolved a 2PC transaction —
	// the recovery protocol's question to a transaction's anchor shard.
	TxnStatusReq struct{ Txn uint64 }
	// TxnStatusResp reports the resolution, if known.
	TxnStatusResp struct {
		// Known reports whether this node resolved the transaction.
		Known bool
		// Committed (with TS) distinguishes commit from abort when Known.
		Committed bool
		TS        ts.Timestamp
		// Prepared reports the transaction is still in doubt here.
		Prepared bool
	}

	// InDoubtReq lists a primary's prepared-but-unresolved transactions.
	InDoubtReq struct{}
	// InDoubtTxn is one in-doubt transaction and its anchor node.
	InDoubtTxn struct {
		Txn    uint64
		Anchor string
	}
	// InDoubtResp carries the in-doubt set.
	InDoubtResp struct{ Txns []InDoubtTxn }

	// StatusReq asks a node for its health/freshness metrics: a probe.
	StatusReq struct{}
	// StatusResp reports them.
	StatusResp struct {
		// LastCommitTS is the node's visibility watermark.
		LastCommitTS ts.Timestamp
		// AppliedLSN is the replica's replay position; on a primary, the end
		// of its redo log, which is what a replica's position trails.
		AppliedLSN uint64
		// Load is the number of reads and writes in flight at the node. Status
		// requests are not load.
		Load int64
	}

	// StatusPush is a replica's status sent unasked, one way, to
	// CollectorEndpoint, once for every advance of its applied watermark:
	// the batch replay that moved it sends it. Nothing answers it.
	StatusPush struct {
		Node   string
		Status StatusResp
	}

	// GenericResp acknowledges control operations.
	GenericResp struct{}
)

// WriteThen selects what a WriteReq does once its ops are staged.
type WriteThen uint8

const (
	// ThenNothing only stages the ops (a plain write).
	ThenNothing WriteThen = iota
	// ThenPending marks the transaction pending and writes the PENDING
	// COMMIT record, which must precede the commit-timestamp fetch
	// (Sec. IV-A): the single-shard commit's first step.
	ThenPending
	// ThenPrepare is 2PC phase one: mark prepared, log the PREPARE record
	// with the anchor, and ack only once it is durable.
	ThenPrepare
	// ThenCommit finishes a single-shard transaction in this one message
	// when the primary is in GClock mode (Sec. III: a synchronized clock
	// where the data is). Still under the same mutex hold, and only after
	// the transaction is marked pending and its PENDING COMMIT record is in
	// the batch (Sec. IV-A), the primary reads a commit timestamp from its
	// own oracle, applies the commit and logs COMMIT — the record sequence
	// Write, Pending and Commit messages produce — then acks as CommitReq
	// does and returns the timestamp in WriteResp.CommitTS.
	//
	// The timestamp is max(Tclock + Terr, LastCommitTS + 1, read floor + 1);
	// the read floor is the highest snapshot the primary has served (see
	// Primary). The second term is the watermark floor: a DDL timestamp, or
	// a heartbeat's sent in a HeartbeatReq (the collector's, under GTM and
	// DUAL), comes from another node without a commit wait, so one may sit
	// in this log up to twice the error bound ahead of true time, and a
	// replica that replayed it reports the shard complete up to it. A commit
	// below it could be skipped by an RCP snapshot; the handlers that advance
	// the watermark hold the same mutex, so the floor is exact. A heartbeat
	// the primary stamps itself (StampHeartbeat) is a lower bound and never
	// raises the floor.
	//
	// With the primary's oracle in GTM or DUAL mode, or none wired, the step
	// stops after PENDING COMMIT — it is ThenPending — and WriteResp.CommitTS
	// is zero: the paper's centralized mode, in which the coordinator fetches
	// the timestamp and sends CommitReq.
	ThenCommit
)

// ErrBadRequest is returned for unknown payload types.
var ErrBadRequest = errors.New("datanode: bad request payload")

// DefaultScanPageSize is the page size used when a paged scan does not
// request one. It models the RPC framing real systems use: a scan response
// never exceeds this many rows, so large scans stream as multiple messages
// instead of one unbounded transfer.
const DefaultScanPageSize = 256

// pageLimit clamps one page's row budget: the requested page size (or the
// default), further capped by the cursor's remaining total limit.
func pageLimit(limit, maxPage int) int {
	page := maxPage
	if page <= 0 {
		page = DefaultScanPageSize
	}
	if limit > 0 && limit < page {
		page = limit
	}
	return page
}

// Primary is a shard's read-write node.
type Primary struct {
	id     string
	region string
	shard  int

	mu    sync.Mutex // serializes store mutation + log append pairs
	store *mvcc.Store
	log   *redo.Log
	mgr   *repl.Manager

	// walW, when set by AttachWAL, receives every redo append under the
	// same hold of mu that appends it to log, and makes commit and prepare
	// acks durable: the handler parks on the writer's group-commit watermark
	// before responding. Atomic because those waits load it outside mu.
	walW atomic.Pointer[wal.Writer]

	// oracle, when set by SetOracle, issues ThenCommit's timestamps from
	// this node's own synchronized clock. Atomic for the same reason.
	oracle atomic.Pointer[tso.Oracle]

	// 2PC bookkeeping for recovery. inDoubt holds prepared-but-unresolved
	// transactions with their anchor; outcomes caches resolved 2PC
	// decisions so an in-doubt participant (or a recovering coordinator)
	// can query this node for them. outcomes is bounded by an eviction
	// ring — the durable WAL, not this cache, is the source of truth.
	tmu      sync.Mutex
	inDoubt  map[uint64]string
	outcomes map[uint64]txnOutcome
	outRing  []uint64
	outPos   int

	// readFloor is the highest snapshot this primary has served a read, a
	// page or a write at: every commit timestamp it issues, and every 2PC
	// commit timestamp through the PREPARE ack (WriteResp.Floor), lands above
	// it. So once a read at S has been served here, nothing commits here at
	// or below S, and a GClock snapshot is stable without an invocation wait.
	// A commit already in flight when the read arrives is pending or
	// prepared, and the read waits for its outcome: each commit path marks
	// its intents before it loads the floor, and a read raises the floor
	// before it reads the store.
	readFloor atomic.Int64

	ep       *netsim.Endpoint
	inflight atomic.Int64
}

// raiseReadFloor raises the read floor to snap. ts.Max, the snapshot replay
// stages at to skip the first-committer check, names no clock reading and
// raises nothing.
func (p *Primary) raiseReadFloor(snap ts.Timestamp) {
	if snap == ts.Max {
		return
	}
	for {
		cur := p.readFloor.Load()
		if int64(snap) <= cur || p.readFloor.CompareAndSwap(cur, int64(snap)) {
			return
		}
	}
}

// ReadFloor returns the highest snapshot the primary has served.
func (p *Primary) ReadFloor() ts.Timestamp { return ts.Timestamp(p.readFloor.Load()) }

// txnOutcome is a resolved 2PC decision.
type txnOutcome struct {
	committed bool
	ts        ts.Timestamp
}

// outcomesCap bounds the resolved-outcome cache per primary.
const outcomesCap = 4096

// trackPrepared records txn as in doubt with its anchor.
func (p *Primary) trackPrepared(txn uint64, anchor string) {
	p.tmu.Lock()
	p.inDoubt[txn] = anchor
	p.tmu.Unlock()
}

// resolveTxn records a 2PC decision and clears the in-doubt entry.
func (p *Primary) resolveTxn(txn uint64, committed bool, commitTS ts.Timestamp) {
	p.tmu.Lock()
	delete(p.inDoubt, txn)
	if _, ok := p.outcomes[txn]; !ok {
		if len(p.outRing) < outcomesCap {
			p.outRing = append(p.outRing, txn)
		} else {
			delete(p.outcomes, p.outRing[p.outPos])
			p.outRing[p.outPos] = txn
			p.outPos = (p.outPos + 1) % outcomesCap
		}
	}
	p.outcomes[txn] = txnOutcome{committed: committed, ts: commitTS}
	p.tmu.Unlock()
}

// appendLocked is every redo append of the request path: the log frames recs
// and, with a WAL attached, the WAL writes those frames — both under the
// caller's hold of p.mu, so the WAL holds exactly the log's bytes, and a
// record is in the WAL file the moment it is in the log. It returns the LSN
// of the last record. A WAL write error is fail-stop: it
// returns to this request, and the writer fails every durability wait from
// then on, so the primary acknowledges nothing after a lost write.
func (p *Primary) appendLocked(recs ...redo.Record) (uint64, error) {
	lsn, frames := p.log.AppendBatch(recs)
	if w := p.walW.Load(); w != nil {
		if err := w.Append(frames); err != nil {
			return lsn, err
		}
	}
	return lsn, nil
}

// waitWAL parks until lsn is durable, when a WAL is attached.
func (p *Primary) waitWAL(ctx context.Context, lsn uint64) error {
	if w := p.walW.Load(); w != nil && lsn > 0 {
		return w.WaitDurable(ctx, lsn)
	}
	return nil
}

// NewPrimary creates a primary DN and registers its endpoint under id.
func NewPrimary(n *netsim.Network, id, region string, shard int, mode repl.Mode, quorum int) *Primary {
	return NewPrimaryFromStore(n, id, region, shard, mvcc.NewStore(), mode, quorum)
}

func (p *Primary) initTxnState() {
	p.inDoubt = make(map[uint64]string)
	p.outcomes = make(map[uint64]txnOutcome)
}

// NewPrimaryFromStore builds a primary over an existing store (replica
// promotion during failover). The log starts fresh; surviving replicas must
// be re-seeded from the store.
func NewPrimaryFromStore(n *netsim.Network, id, region string, shard int, store *mvcc.Store, mode repl.Mode, quorum int) *Primary {
	p := &Primary{id: id, region: region, shard: shard, store: store, log: redo.NewLog()}
	p.initTxnState()
	p.mgr = repl.NewManager(p.log, mode, quorum)
	p.ep = n.Register(id, region, p.handle)
	return p
}

// AttachWAL opens a WAL with opts and makes it this primary's durability
// layer (GaussDB's XLOG): from then on every redo append writes the WAL in
// the same hold of the node mutex that writes the log, and commit and
// prepare acks wait for WAL durability — under wal.SyncGroup that wait is
// what group commit coalesces. Records the log holds beyond the WAL's end are
// written first, under that hold, so the WAL is attached before any later
// ack. It refuses a WAL that ends where the log no longer reaches: truncated
// past its next LSN, or short of it. Closing the returned writer ends
// durability; every append after that fails.
func (p *Primary) AttachWAL(opts wal.Options) (*wal.Writer, error) {
	w, err := wal.Open(opts)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	err = p.appendBacklogLocked(w)
	if err == nil {
		p.walW.Store(w)
	}
	p.mu.Unlock()
	if err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// appendBacklogLocked writes to w the log's frames from w's next LSN on.
// Caller holds p.mu.
func (p *Primary) appendBacklogLocked(w *wal.Writer) error {
	next := w.NextLSN()
	if last := p.log.LastLSN(); next > last+1 {
		return fmt.Errorf("datanode: WAL continues at LSN %d, past the log's last %d", next, last)
	}
	backlog, _, err := p.log.ReadFrom(next, 0)
	if err != nil {
		return fmt.Errorf("datanode: attach WAL: %w", err)
	}
	return w.Append(backlog)
}

// WAL exposes the attached WAL writer (nil when none), for commit-path
// stats and durability waits.
func (p *Primary) WAL() *wal.Writer { return p.walW.Load() }

// SetOracle gives the primary a timestamp oracle over its own node clock —
// one synchronized to its region's time device and registered with the
// transition controller like a CN's — which lets it finish ThenCommit
// requests itself while that oracle is in GClock mode. Every way of building
// a primary (new, promoted, recovered) starts without one and commits in two
// messages until it is set. The oracle is only ever asked to IssueAbove, so
// it needs no GTM client.
func (p *Primary) SetOracle(o *tso.Oracle) { p.oracle.Store(o) }

// Oracle returns the oracle set by SetOracle, or nil.
func (p *Primary) Oracle() *tso.Oracle { return p.oracle.Load() }

// RecoverPrimary rebuilds a crashed primary from the WAL in opts.Dir: the
// surviving redo stream is replayed into a fresh store (the same replay path
// replicas use), the in-memory log is re-seeded with identical LSNs so
// replica shippers resume where they left off, and the WAL, reopened with
// opts, takes the primary's appends from there. Besides the store it
// rebuilds the 2PC bookkeeping: prepare records whose resolution never made
// it to the WAL re-enter the in-doubt set (with the anchor logged at prepare
// time), and resolved decisions re-enter the outcome cache so other
// recovering participants can query them.
func RecoverPrimary(n *netsim.Network, id, region string, shard int, opts wal.Options, mode repl.Mode, quorum int) (*Primary, *wal.Writer, error) {
	recs, err := wal.Recover(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	applier := repl.NewApplier(mvcc.NewStore())
	if _, err := applier.Apply(recs); err != nil {
		return nil, nil, fmt.Errorf("datanode: recovery replay: %w", err)
	}
	p := &Primary{id: id, region: region, shard: shard, store: applier.Store(), log: redo.NewLog()}
	p.initTxnState()
	for _, r := range recs {
		switch r.Type {
		case redo.TypePrepare:
			p.inDoubt[r.Txn] = string(r.Value)
		case redo.TypeCommitPrepared:
			p.resolveTxn(r.Txn, true, r.TS)
		case redo.TypeAbortPrepared:
			p.resolveTxn(r.Txn, false, 0)
		}
	}
	// A fresh log assigns LSNs from 1, so re-appending the recovered records
	// reproduces their LSNs and their frames. No WAL is attached yet.
	p.log.AppendBatch(recs)
	p.mgr = repl.NewManager(p.log, mode, quorum)
	w, err := p.AttachWAL(opts)
	if err != nil {
		return nil, nil, err
	}
	p.ep = n.Register(id, region, p.handle)
	return p, w, nil
}

// ID returns the node's endpoint name.
func (p *Primary) ID() string { return p.id }

// Region returns the node's region.
func (p *Primary) Region() string { return p.region }

// Shard returns the shard this node owns.
func (p *Primary) Shard() int { return p.shard }

// Store exposes the MVCC store (loader, tests, promotion).
func (p *Primary) Store() *mvcc.Store { return p.store }

// Log exposes the redo log (shippers).
func (p *Primary) Log() *redo.Log { return p.log }

// Repl exposes the replication manager.
func (p *Primary) Repl() *repl.Manager { return p.mgr }

// Endpoint exposes the network endpoint (failure injection).
func (p *Primary) Endpoint() *netsim.Endpoint { return p.ep }

func (p *Primary) handle(ctx context.Context, m netsim.Message) (netsim.Message, error) {
	if _, ok := m.Payload.(StatusReq); ok {
		// Answered before the in-flight count: the question is not part of
		// the load it asks about.
		return netsim.Message{Payload: StatusResp{
			LastCommitTS: p.store.LastCommitTS(),
			AppliedLSN:   p.log.LastLSN(),
			Load:         p.inflight.Load(),
		}, Size: 32}, nil
	}
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	switch req := m.Payload.(type) {
	case WriteReq:
		resp, err := p.execWrite(ctx, req)
		if err != nil {
			return netsim.Message{}, err
		}
		return netsim.Message{Payload: resp, Size: 24}, nil
	case ReadReq:
		if !req.Once {
			p.raiseReadFloor(req.SnapTS)
		}
		return serveRead(ctx, p.store, req, mvcc.TxnID(req.Txn))
	case ScanPageReq:
		p.raiseReadFloor(req.SnapTS)
		resp, err := servePage(ctx, p.store, req, mvcc.TxnID(req.Txn))
		if err != nil {
			return netsim.Message{}, err
		}
		return netsim.Message{Payload: resp, Size: scanSize(resp.KVs) + len(resp.Next)}, nil
	case CommitReq:
		if err := p.commit(ctx, req.Txn, req.TS, redo.TypeCommit, req.Sync); err != nil {
			return netsim.Message{}, err
		}
		return netsim.Message{Payload: GenericResp{}, Size: 8}, nil
	case AbortReq:
		if err := p.abort(req.Txn, redo.TypeAbort); err != nil {
			return netsim.Message{}, err
		}
		return netsim.Message{Payload: GenericResp{}, Size: 8}, nil
	case CommitPreparedReq:
		if err := p.commit(ctx, req.Txn, req.TS, redo.TypeCommitPrepared, req.Sync); err != nil {
			return netsim.Message{}, err
		}
		return netsim.Message{Payload: GenericResp{}, Size: 8}, nil
	case AbortPreparedReq:
		if err := p.abort(req.Txn, redo.TypeAbortPrepared); err != nil {
			return netsim.Message{}, err
		}
		p.resolveTxn(req.Txn, false, 0)
		return netsim.Message{Payload: GenericResp{}, Size: 8}, nil
	case TxnStatusReq:
		p.tmu.Lock()
		out, known := p.outcomes[req.Txn]
		_, prepared := p.inDoubt[req.Txn]
		p.tmu.Unlock()
		return netsim.Message{Payload: TxnStatusResp{
			Known: known, Committed: out.committed, TS: out.ts, Prepared: prepared,
		}, Size: 24}, nil
	case InDoubtReq:
		p.tmu.Lock()
		txns := make([]InDoubtTxn, 0, len(p.inDoubt))
		for txn, anchor := range p.inDoubt {
			txns = append(txns, InDoubtTxn{Txn: txn, Anchor: anchor})
		}
		p.tmu.Unlock()
		return netsim.Message{Payload: InDoubtResp{Txns: txns}, Size: 16 + 24*len(txns)}, nil
	case HeartbeatReq:
		return p.logWatermark(redo.Record{Type: redo.TypeHeartbeat, TS: req.TS})
	case DDLReq:
		return p.logWatermark(redo.Record{Type: redo.TypeDDL, Txn: req.Table, TS: req.TS, Value: req.Schema})
	default:
		return netsim.Message{}, fmt.Errorf("%w: %T", ErrBadRequest, m.Payload)
	}
}

// execWrite is the one "stage then mark" path: it stages req's ops as
// intents and, when all of them staged, applies req.Then — everything under
// a single hold of p.mu, so the log reads heap records then the PENDING
// COMMIT / PREPARE record (then, for a ThenCommit this node can finish, the
// COMMIT record) with nothing of another transaction's in between. The same
// hold covers a one-write statement's version check (req.ReadTS), so no
// commit lands between the check and the commit timestamp it precedes. A
// staging failure (write-write conflict) leaves the already-staged intents
// logged and the transaction unmarked; the coordinator aborts it.
//
// The request's snapshot raises the read floor first, so the transaction's
// own commit timestamp lands above its snapshot whichever clock issues it. A
// one-write statement's does not: its version check stands in for the
// snapshot, which nothing reads at again (ReadReq.Once).
func (p *Primary) execWrite(ctx context.Context, req WriteReq) (WriteResp, error) {
	if req.ReadTS == 0 {
		p.raiseReadFloor(req.SnapTS)
	}
	p.mu.Lock()
	txn := mvcc.TxnID(req.Txn)
	recs := make([]redo.Record, 0, len(req.Ops)+2)
	var resp WriteResp
	var err error
	for _, op := range req.Ops {
		if req.ReadTS != 0 {
			if err = p.store.Unchanged(op.Key, req.ReadTS); err != nil {
				break
			}
		}
		if op.Delete {
			if err = p.store.Delete(txn, op.Key, req.SnapTS); err != nil {
				break
			}
			recs = append(recs, redo.Record{Type: redo.TypeHeapDelete, Txn: req.Txn, Key: op.Key})
		} else {
			if err = p.store.Put(txn, op.Key, op.Value, req.SnapTS); err != nil {
				break
			}
			recs = append(recs, redo.Record{Type: redo.TypeHeapUpdate, Txn: req.Txn, Key: op.Key, Value: op.Value})
		}
	}
	if err == nil {
		switch req.Then {
		case ThenPending, ThenCommit:
			if err = p.store.MarkPending(txn); err != nil {
				break
			}
			recs = append(recs, redo.Record{Type: redo.TypePendingCommit, Txn: req.Txn})
			if o := p.oracle.Load(); req.Then == ThenCommit && o != nil {
				// Only now, with the transaction pending and its record in the
				// batch, is the timestamp read (Sec. IV-A) — above everything
				// this log already holds (the watermark floor) and every
				// snapshot served here (the read floor).
				last, read := p.store.LastCommitTS(), p.ReadFloor()
				if t, bump, ok := o.IssueAbove(max(last, read)); ok {
					if err = p.store.Commit(txn, t); err == nil {
						recs = append(recs, redo.Record{Type: redo.TypeCommit, Txn: req.Txn, TS: t})
						resp = WriteResp{CommitTS: t, FloorBump: bump}
						if bump > 0 && read > last && t == read+1 {
							metricReadFloorBumps.Inc()
						}
					}
				}
			}
		case ThenPrepare:
			if err = p.store.MarkPrepared(txn); err == nil {
				// The anchor rides in the record so recovery knows whom to ask.
				recs = append(recs, redo.Record{Type: redo.TypePrepare, Txn: req.Txn, Value: []byte(req.Anchor)})
			}
		}
		if resp.CommitTS == 0 && req.Then != ThenNothing {
			// Loaded after the marks: a read that raises the floor later
			// finds the intents pending or prepared and waits for them.
			resp.Floor = p.ReadFloor()
		}
	}
	var lsn uint64
	if len(recs) > 0 {
		var werr error
		if lsn, werr = p.appendLocked(recs...); err == nil {
			err = werr
		}
	}
	p.mu.Unlock()
	switch {
	case err != nil:
		return WriteResp{}, err
	case req.Then == ThenPrepare:
		p.trackPrepared(req.Txn, req.Anchor)
		// A prepare ack is a durability promise: after it, only the anchor's
		// decision may abort the txn — a crash must not. One WAL wait covers
		// the heap records and the prepare record alike.
		return resp, p.waitWAL(ctx, lsn)
	case resp.CommitTS != 0:
		// One wait covers the heap records, PENDING COMMIT and COMMIT.
		return resp, p.waitAcked(ctx, lsn, req.Sync)
	}
	return resp, nil
}

// abort rolls txn back and logs typ (ABORT or ABORT PREPARED). A transaction
// the store does not know is already gone: nothing is logged, and the abort
// succeeds.
func (p *Primary) abort(txn uint64, typ redo.Type) error {
	p.mu.Lock()
	err := p.store.Abort(mvcc.TxnID(txn))
	if err == nil {
		_, err = p.appendLocked(redo.Record{Type: typ, Txn: txn})
	}
	p.mu.Unlock()
	if errors.Is(err, mvcc.ErrTxnNotFound) {
		return nil
	}
	return err
}

// logWatermark logs a heartbeat or DDL record and advances the commit
// watermark to its timestamp, in one hold of p.mu.
func (p *Primary) logWatermark(r redo.Record) (netsim.Message, error) {
	p.mu.Lock()
	err := p.logWatermarkLocked(r)
	p.mu.Unlock()
	if err != nil {
		return netsim.Message{}, err
	}
	return netsim.Message{Payload: GenericResp{}, Size: 8}, nil
}

// logWatermarkLocked is logWatermark under the caller's hold of p.mu.
func (p *Primary) logWatermarkLocked(r redo.Record) error {
	_, err := p.appendLocked(r)
	p.store.AdvanceCommitWatermark(r.TS)
	return err
}

// StampHeartbeat logs a heartbeat stamped by the primary's own clock, with no
// message: under p.mu it reads the oracle's lower bound (tso.Oracle.
// LowerBound) and logs it as a HeartbeatReq's stamp is logged. It returns
// the stamp and true. It returns false, and logs nothing, when the oracle is
// not in GClock mode or none is set: a primary has no GTM timestamps of its
// own, so the collector then sends a HeartbeatReq. A primary whose endpoint
// is down stamps nothing and returns true: a crashed node's timer does not
// fire, and its shard just lags. A failed WAL write is not reported here;
// it fails every later durability wait.
//
// The lower bound keeps the stamp below every commit timestamp issued after
// it, by this primary's clock or by a coordinator's: each of those is an
// upper bound read later. Tclock + Terr would not be, since a coordinator
// whose clock trails could prepare here right after the stamp and commit
// below it, behind the back of an RCP snapshot the stamp let through.
func (p *Primary) StampHeartbeat() (ts.Timestamp, bool) {
	o := p.oracle.Load()
	if o == nil {
		return 0, false
	}
	if p.ep.Down() {
		return 0, true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := o.LowerBound()
	if ok {
		_ = p.logWatermarkLocked(redo.Record{Type: redo.TypeHeartbeat, TS: t})
	}
	return t, ok
}

// commit applies the commit and, under synchronous replication (cluster
// mode or per-table sync), waits for the quorum before returning
// (Sec. II-A).
func (p *Primary) commit(ctx context.Context, txn uint64, commitTS ts.Timestamp, typ redo.Type, sync bool) error {
	p.mu.Lock()
	err := p.store.Commit(mvcc.TxnID(txn), commitTS)
	var lsn uint64
	if err == nil {
		lsn, err = p.appendLocked(redo.Record{Type: typ, Txn: txn, TS: commitTS})
	}
	p.mu.Unlock()
	if err != nil {
		return err
	}
	if typ == redo.TypeCommitPrepared {
		p.resolveTxn(txn, true, commitTS)
	}
	return p.waitAcked(ctx, lsn, sync)
}

// waitAcked parks until the commit record at lsn may be acknowledged: local
// WAL durability first (the group-commit wait), then replication — the
// quorum when sync, else whatever the cluster's mode requires. It runs
// outside p.mu so other commits append into the same fsync group while this
// one parks.
func (p *Primary) waitAcked(ctx context.Context, lsn uint64, sync bool) error {
	if err := p.waitWAL(ctx, lsn); err != nil {
		return err
	}
	if sync {
		return p.mgr.WaitReplicated(ctx, lsn)
	}
	return p.mgr.WaitDurable(ctx, lsn)
}

// serveRead answers one point read, naming the version that answered it.
func serveRead(ctx context.Context, store *mvcc.Store, req ReadReq, reader mvcc.TxnID) (netsim.Message, error) {
	v, ok, err := store.GetVersion(ctx, req.Key, req.SnapTS, reader)
	if err != nil {
		return netsim.Message{}, err
	}
	resp := ReadResp{Found: ok && !v.Deleted, CommitTS: v.CommitTS}
	if resp.Found {
		resp.Value = v.Value
	}
	return netsim.Message{Payload: resp, Size: len(resp.Value) + 16}, nil
}

// servePage dispatches one paged-scan request: a raw MVCC page when no
// fragment is attached, or DN-side fragment execution otherwise. Raw scans
// report Examined = rows shipped (nothing is dropped node-side).
func servePage(ctx context.Context, store *mvcc.Store, req ScanPageReq, reader mvcc.TxnID) (ScanPageResp, error) {
	t0 := time.Now()
	if req.Frag != nil {
		resp, err := execFragScanPage(ctx, store, req, reader)
		resp.ExecNanos = int64(time.Since(t0))
		return resp, err
	}
	kvs, next, more, newest, err := store.ScanPageNewest(ctx, req.Start, req.End, req.SnapTS,
		pageLimit(req.Limit, req.MaxPage), reader)
	if err != nil {
		return ScanPageResp{}, err
	}
	return ScanPageResp{KVs: kvs, Next: next, More: more, Examined: len(kvs),
		ExecNanos: int64(time.Since(t0)), Newest: newest}, nil
}

func scanSize(kvs []mvcc.KV) int {
	n := 16
	for _, kv := range kvs {
		n += len(kv.Key) + len(kv.Value)
	}
	return n
}

// Replica is a shard's read-only node.
type Replica struct {
	id     string
	region string
	shard  int

	applier *repl.Applier
	net     *netsim.Network
	ep      *netsim.Endpoint
	replEp  *netsim.Endpoint

	inflight atomic.Int64
	pushed   atomic.Int64 // the last watermark pushed, a ts.Timestamp
}

// ReplEndpointName returns the replication endpoint name for a replica id.
func ReplEndpointName(id string) string { return "repl:" + id }

// NewReplica creates a replica DN, registering both its read endpoint (id)
// and its replication endpoint (ReplEndpointName(id)).
func NewReplica(n *netsim.Network, id, region string, shard int) *Replica {
	return NewReplicaFromStore(n, id, region, shard, mvcc.NewStore())
}

// NewReplicaFromStore creates a replica over a pre-seeded store (failover
// re-seeding after a promotion); the applier expects the new primary's
// fresh log from LSN 1.
func NewReplicaFromStore(n *netsim.Network, id, region string, shard int, store *mvcc.Store) *Replica {
	r := &Replica{id: id, region: region, shard: shard, applier: repl.NewApplier(store), net: n}
	r.applier.SetAppliedHook(r.push)
	r.ep = n.Register(id, region, r.handle)
	r.replEp = repl.ServeApplier(n, ReplEndpointName(id), region, r.applier)
	return r
}

// ID returns the replica's read endpoint name.
func (r *Replica) ID() string { return r.id }

// Region returns the node's region.
func (r *Replica) Region() string { return r.region }

// Shard returns the shard this node replicates.
func (r *Replica) Shard() int { return r.shard }

// Applier exposes the replay state.
func (r *Replica) Applier() *repl.Applier { return r.applier }

// Endpoint exposes the read endpoint (failure injection).
func (r *Replica) Endpoint() *netsim.Endpoint { return r.ep }

// SetDown marks both endpoints up or down.
func (r *Replica) SetDown(down bool) {
	r.ep.SetDown(down)
	r.replEp.SetDown(down)
}

func (r *Replica) handle(ctx context.Context, m netsim.Message) (netsim.Message, error) {
	if _, ok := m.Payload.(StatusReq); ok {
		return netsim.Message{Payload: r.status(), Size: 32}, nil // not load
	}
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	store := r.applier.Store()
	switch req := m.Payload.(type) {
	case ReadReq:
		return serveRead(ctx, store, req, 0)
	case ScanPageReq:
		resp, err := servePage(ctx, store, req, 0)
		if err != nil {
			return netsim.Message{}, err
		}
		return netsim.Message{Payload: resp, Size: scanSize(resp.KVs) + len(resp.Next)}, nil
	default:
		return netsim.Message{}, fmt.Errorf("%w: %T", ErrBadRequest, m.Payload)
	}
}

// status is the replica's answer to a probe, and what it pushes.
func (r *Replica) status() StatusResp {
	return StatusResp{
		LastCommitTS: r.applier.MaxCommitTS(),
		AppliedLSN:   r.applier.AppliedLSN(),
		Load:         r.inflight.Load(),
	}
}

// push runs after every batch replay (the applier's hook). When the applied
// watermark has moved past the last one pushed, it sends CollectorEndpoint
// one StatusPush: one one-way message per advance, none for a batch that
// committed nothing and none while the replica is down. A push the network
// refuses — no collector has registered the endpoint yet — is not retried;
// the collector's probe covers it.
func (r *Replica) push() {
	if r.ep.Down() {
		return
	}
	st := r.status()
	for {
		last := r.pushed.Load()
		if int64(st.LastCommitTS) <= last {
			return
		}
		if r.pushed.CompareAndSwap(last, int64(st.LastCommitTS)) {
			break
		}
	}
	_ = r.net.Send(r.region, CollectorEndpoint, netsim.Message{Payload: StatusPush{Node: r.id, Status: st}, Size: 32 + len(r.id)})
}

// Client is a typed RPC client for data nodes, homed in a region.
type Client struct {
	net      *netsim.Network
	region   string
	scanRows atomic.Int64 // rows received in scan responses (WAN-crossing rows)
}

// NewClient returns a client that calls from region.
func NewClient(n *netsim.Network, region string) *Client {
	return &Client{net: n, region: region}
}

func (c *Client) call(ctx context.Context, node string, payload any, size int) (any, error) {
	resp, err := c.net.Call(ctx, c.region, node, netsim.Message{Payload: payload, Size: size})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// write sends one WriteReq to node.
func (c *Client) write(ctx context.Context, node string, req WriteReq) (WriteResp, error) {
	size := 24 + len(req.Anchor)
	for _, op := range req.Ops {
		size += op.size()
	}
	p, err := c.call(ctx, node, req, size)
	if err != nil {
		return WriteResp{}, err
	}
	return p.(WriteResp), nil
}

// WriteThen stages ops on node for txn and applies then in the same message
// (see WriteReq); anchor is recorded with a ThenPrepare.
func (c *Client) WriteThen(ctx context.Context, node string, txn uint64, snap ts.Timestamp, ops []WriteOp, then WriteThen, anchor string) error {
	_, err := c.WriteStep(ctx, node, txn, snap, ops, then, anchor)
	return err
}

// WriteStep is WriteThen returning the ack, whose Floor a ThenPrepare or
// ThenPending caller issues the commit timestamp above.
func (c *Client) WriteStep(ctx context.Context, node string, txn uint64, snap ts.Timestamp, ops []WriteOp, then WriteThen, anchor string) (WriteResp, error) {
	return c.write(ctx, node, WriteReq{Txn: txn, SnapTS: snap, Ops: ops, Then: then, Anchor: anchor})
}

// WriteCommit stages ops on node for txn and asks the primary to finish the
// single-shard commit in the same message (ThenCommit); sync as in Commit. A
// non-zero readTS is a one-write statement's version check (see
// WriteReq.ReadTS). A zero WriteResp.CommitTS means the primary left the
// transaction pending and the caller owes it a timestamp and a Commit.
func (c *Client) WriteCommit(ctx context.Context, node string, txn uint64, snap ts.Timestamp, ops []WriteOp, sync bool, readTS ts.Timestamp) (WriteResp, error) {
	return c.write(ctx, node, WriteReq{Txn: txn, SnapTS: snap, Ops: ops, Then: ThenCommit, Sync: sync, ReadTS: readTS})
}

// Write stages ops on node for txn.
func (c *Client) Write(ctx context.Context, node string, txn uint64, snap ts.Timestamp, ops []WriteOp) error {
	return c.WriteThen(ctx, node, txn, snap, ops, ThenNothing, "")
}

// Read performs a point read.
func (c *Client) Read(ctx context.Context, node string, key []byte, snap ts.Timestamp, txn uint64) ([]byte, bool, error) {
	r, err := c.ReadVersion(ctx, node, ReadReq{Key: key, SnapTS: snap, Txn: txn})
	return r.Value, r.Found, err
}

// ReadVersion sends req to node and returns the whole response, with the
// commit timestamp of the version that answered.
func (c *Client) ReadVersion(ctx context.Context, node string, req ReadReq) (ReadResp, error) {
	p, err := c.call(ctx, node, req, len(req.Key)+24)
	if err != nil {
		return ReadResp{}, err
	}
	return p.(ReadResp), nil
}

// ScanPageFrag fetches one page of a resumable range scan, optionally
// shipping an encoded execution fragment for the data node to evaluate.
// The returned response includes how many storage rows the node examined,
// so callers can account DN-side filtering.
func (c *Client) ScanPageFrag(ctx context.Context, node string, start, end []byte, snap ts.Timestamp,
	limit, maxPage int, frag []byte, txn uint64) (ScanPageResp, error) {
	p, err := c.call(ctx, node, ScanPageReq{Start: start, End: end, SnapTS: snap,
		Limit: limit, MaxPage: maxPage, Txn: txn, Frag: frag}, len(start)+len(end)+len(frag)+40)
	if err != nil {
		return ScanPageResp{}, err
	}
	resp := p.(ScanPageResp)
	c.scanRows.Add(int64(len(resp.KVs)))
	return resp, nil
}

// ScanRowsFetched reports the total rows this client has received in scan
// responses — the rows that actually crossed the (simulated) network.
func (c *Client) ScanRowsFetched() int64 { return c.scanRows.Load() }

// Pending writes the PENDING COMMIT record for txn.
func (c *Client) Pending(ctx context.Context, node string, txn uint64) error {
	return c.WriteThen(ctx, node, txn, 0, nil, ThenPending, "")
}

// Commit commits a single-shard transaction. sync forces a replica wait
// (per-table synchronous replication).
func (c *Client) Commit(ctx context.Context, node string, txn uint64, commitTS ts.Timestamp, sync bool) error {
	_, err := c.call(ctx, node, CommitReq{Txn: txn, TS: commitTS, Sync: sync}, 24)
	return err
}

// Abort aborts a transaction.
func (c *Client) Abort(ctx context.Context, node string, txn uint64) error {
	_, err := c.call(ctx, node, AbortReq{Txn: txn}, 16)
	return err
}

// Prepare runs 2PC phase one on node, recording anchor as the participant
// holding the authoritative decision.
func (c *Client) Prepare(ctx context.Context, node string, txn uint64, anchor string) error {
	return c.WriteThen(ctx, node, txn, 0, nil, ThenPrepare, anchor)
}

// TxnStatus asks node for a 2PC transaction's resolution.
func (c *Client) TxnStatus(ctx context.Context, node string, txn uint64) (TxnStatusResp, error) {
	p, err := c.call(ctx, node, TxnStatusReq{Txn: txn}, 16)
	if err != nil {
		return TxnStatusResp{}, err
	}
	return p.(TxnStatusResp), nil
}

// InDoubt lists node's prepared-but-unresolved transactions.
func (c *Client) InDoubt(ctx context.Context, node string) ([]InDoubtTxn, error) {
	p, err := c.call(ctx, node, InDoubtReq{}, 8)
	if err != nil {
		return nil, err
	}
	return p.(InDoubtResp).Txns, nil
}

// CommitPrepared commits a prepared transaction. sync as in Commit.
func (c *Client) CommitPrepared(ctx context.Context, node string, txn uint64, commitTS ts.Timestamp, sync bool) error {
	_, err := c.call(ctx, node, CommitPreparedReq{Txn: txn, TS: commitTS, Sync: sync}, 24)
	return err
}

// AbortPrepared aborts a prepared transaction.
func (c *Client) AbortPrepared(ctx context.Context, node string, txn uint64) error {
	_, err := c.call(ctx, node, AbortPreparedReq{Txn: txn}, 16)
	return err
}

// Heartbeat advances the shard's commit watermark.
func (c *Client) Heartbeat(ctx context.Context, node string, t ts.Timestamp) error {
	_, err := c.call(ctx, node, HeartbeatReq{TS: t}, 16)
	return err
}

// DDL records a catalog change on node.
func (c *Client) DDL(ctx context.Context, node string, tableID uint64, t ts.Timestamp, schema []byte) error {
	_, err := c.call(ctx, node, DDLReq{Table: tableID, TS: t, Schema: schema}, 24+len(schema))
	return err
}

// Status probes a node for its metrics.
func (c *Client) Status(ctx context.Context, node string) (StatusResp, error) {
	p, err := c.call(ctx, node, StatusReq{}, 24)
	if err != nil {
		return StatusResp{}, err
	}
	return p.(StatusResp), nil
}

// CollectorEndpoint is the network name every replica pushes its status to
// (StatusPush): the RCP collector's, wherever it runs.
const CollectorEndpoint = "rcp"

// ServePushes registers CollectorEndpoint in the client's region and hands
// every StatusPush that lands there to fn, on the delivering goroutine. A
// later registration, from any region, takes the endpoint over.
func (c *Client) ServePushes(fn func(StatusPush)) {
	c.net.Register(CollectorEndpoint, c.region, func(_ context.Context, m netsim.Message) (netsim.Message, error) {
		push, ok := m.Payload.(StatusPush)
		if !ok {
			return netsim.Message{}, fmt.Errorf("%w: %T", ErrBadRequest, m.Payload)
		}
		fn(push)
		return netsim.Message{}, nil
	})
}
