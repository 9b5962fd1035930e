// Package mvcc implements the multi-version storage engine used by GlobalDB
// data nodes.
//
// Each key maps to a version chain (oldest first, so the common in-order
// commit is an append) plus at most one uncommitted write intent. Visibility
// follows snapshot semantics: a read at snapshot timestamp S sees the newest
// version with commitTS <= S.
//
// Intents move through states mirroring the paper's redo protocol
// (Sec. IV-A):
//
//	Active   — the transaction is still executing; its eventual commit
//	           timestamp is guaranteed to exceed any snapshot already
//	           read at on this store (the primary's read floor), so the
//	           intent is simply invisible to readers.
//	Pending  — a PENDING COMMIT record has been written: the commit
//	           timestamp is being fetched and may land below a reader's
//	           snapshot, so readers touching these tuples must wait.
//	Prepared — a two-phase-commit participant has prepared; visibility is
//	           blocked until COMMIT PREPARED or ABORT PREPARED resolves it.
//
// The same machinery serves both primaries (intents created by executing
// transactions) and replicas (intents created by redo replay).
//
// Locking: a structure RWMutex guards the B-tree's shape (chain insertion
// and removal), each chain carries its own mutex for contents, and the
// transaction table has a separate mutex. Operations on distinct keys run
// in parallel — this is what makes the replica's parallel redo replay
// actually faster than sequential replay. The transaction-table mutex is
// never acquired while holding the structure or a chain lock, which rules
// out lock-order cycles; readers that race a resolving transaction simply
// retry their key.
//
// Garbage collection: Prune(w) drops, for every key that gained garbage since
// the last call, the versions no snapshot at or above w can see, and raises
// the store's prune floor to w. From then on the store refuses any snapshot
// below the floor with ErrSnapshotTooOld rather than answer from a chain that
// may have lost the version that snapshot should see. Whoever picks w (the
// cluster's GC loop) decides which readers that can happen to; the store only
// guarantees it never returns a wrong row.
package mvcc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"globaldb/internal/obs"
	"globaldb/internal/storage/btree"
	"globaldb/internal/ts"
)

// GC metric names on obs.Default; they total every store in the process.
const (
	// MetricPrunedVersions counts versions Prune removed.
	MetricPrunedVersions = "gc_pruned_versions_total"
	// MetricSnapshotTooOld counts reads and writes refused because their
	// snapshot was below a store's prune floor.
	MetricSnapshotTooOld = "gc_snapshot_too_old_total"
)

var (
	metricPruned = obs.Default.Counter(MetricPrunedVersions)
	metricTooOld = obs.Default.Counter(MetricSnapshotTooOld)
)

// TxnID identifies a transaction cluster-wide. Coordinators compose it from
// their node ID and a local sequence number.
type TxnID uint64

// Errors returned by the store.
var (
	// ErrWriteConflict means another transaction holds a write intent on the
	// key, or a version newer than the writer's snapshot exists
	// (first-committer-wins snapshot isolation).
	ErrWriteConflict = errors.New("mvcc: write-write conflict")
	// ErrTxnNotFound means the transaction has no state in this store.
	ErrTxnNotFound = errors.New("mvcc: transaction not found")
	// ErrSnapshotTooOld means the snapshot is below the store's prune floor:
	// the versions it should see may have been garbage collected.
	ErrSnapshotTooOld = errors.New("mvcc: snapshot too old")
)

// TxnState is the lifecycle state of a transaction's intents in one store.
type TxnState uint8

const (
	// StateActive means the transaction is executing.
	StateActive TxnState = iota
	// StatePending means a PENDING COMMIT record was logged: the commit
	// timestamp is unknown but may be below snapshots already handed out.
	StatePending
	// StatePrepared means the transaction prepared under 2PC.
	StatePrepared
)

func (s TxnState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StatePending:
		return "pending"
	case StatePrepared:
		return "prepared"
	default:
		return fmt.Sprintf("TxnState(%d)", uint8(s))
	}
}

// Version is one committed value of a key.
type Version struct {
	CommitTS ts.Timestamp
	Value    []byte
	Deleted  bool
}

type intent struct {
	txn     TxnID
	value   []byte
	deleted bool
}

// chain is one key's committed versions and intent. versions is ordered
// oldest first and is copy-on-write towards readers: snapshot hands out the
// slice header without copying, so nothing may ever store to an element a
// header already handed out covers. install is the only place that adds a
// version and prune the only place that removes one; an in-order install
// appends past every such header's length, everything else builds a new
// slice.
type chain struct {
	mu       sync.Mutex
	dead     bool      // set when the chain is unlinked from the tree; writers must re-fetch
	queued   bool      // on the store's deep list
	versions []Version // oldest first
	intent   *intent
}

// txnMeta is a transaction's entry in the store's table. Commit and Abort
// keep it there, marked resolving, until every chain shows the outcome, and
// close done after removing it: a reader that no longer finds the entry can
// re-read its chain and see the outcome at once.
type txnMeta struct {
	keys      [][]byte
	state     TxnState
	resolving bool          // a Commit or Abort is installing the outcome
	done      chan struct{} // closed when the txn commits or aborts
}

// Store is a single data node's versioned key space.
type Store struct {
	mu   sync.RWMutex // guards the tree's shape
	data *btree.Tree[*chain]

	// txnMu is a leaf lock: write takes it under a chain lock.
	txnMu sync.Mutex
	txns  map[TxnID]*txnMeta

	// What gained garbage since the last Prune, so that a Prune costs
	// O(writes since the last one), not O(keys): deep holds each chain of two
	// or more versions once (chain.queued); tombs holds, with its key, each
	// chain a tombstone was installed on, for unlinking. gcMu is a leaf lock,
	// taken under a chain lock.
	gcMu  sync.Mutex
	deep  []*chain
	tombs []tombstone
	// floor is the highest watermark Prune ran at. It is stored before Prune
	// touches a chain and loaded after a reader has read its chains, so a
	// reader that saw a pruned chain also sees the floor that explains it.
	floor atomic.Int64

	versions atomic.Int64 // committed versions held, maintained at install/prune
	pruned   atomic.Int64 // versions removed by Prune

	lastCommit atomic.Int64 // max commit timestamp applied, for fast local snapshots
	commits    atomic.Int64
	aborts     atomic.Int64
	waits      atomic.Int64 // reader waits on pending/prepared intents
	scanRows   atomic.Int64 // visible pairs returned by Scan/ScanPage
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: btree.New[*chain](), txns: make(map[TxnID]*txnMeta)}
}

// LastCommitTS returns the largest commit timestamp applied to this store.
// Replicas report it to the RCP collector; primaries use it for the
// single-shard read fast path of Sec. III.
func (s *Store) LastCommitTS() ts.Timestamp { return ts.Timestamp(s.lastCommit.Load()) }

// advanceLastCommit raises the last-commit watermark monotonically.
func (s *Store) advanceLastCommit(t ts.Timestamp) { raise(&s.lastCommit, t) }

// raise lifts a to t unless it is already there or beyond.
func raise(a *atomic.Int64, t ts.Timestamp) {
	for {
		cur := a.Load()
		if int64(t) <= cur || a.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// AdvanceCommitWatermark raises the last-commit watermark without applying
// data. Replica appliers call it when replaying heartbeat records, which
// exist precisely so the RCP advances on idle shards (Sec. IV-A).
func (s *Store) AdvanceCommitWatermark(t ts.Timestamp) { s.advanceLastCommit(t) }

// getChain returns the chain for key, creating it when create is set.
func (s *Store) getChain(key []byte, create bool) *chain {
	s.mu.RLock()
	c, ok := s.data.Get(key)
	s.mu.RUnlock()
	if ok || !create {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok = s.data.Get(key); ok {
		return c
	}
	c = &chain{}
	s.data.Set(bytes.Clone(key), c)
	return c
}

// lockChain returns key's chain, created if need be, locked and linked in
// the tree: a chain unlinked between the fetch and the lock is fetched again.
func (s *Store) lockChain(key []byte) *chain {
	for {
		c := s.getChain(key, true)
		c.mu.Lock()
		if !c.dead {
			return c
		}
		c.mu.Unlock()
	}
}

// removeChainIfEmpty deletes a chain that lost its last contents (aborted
// insert of a fresh key). Takes the structure lock first, then the chain
// lock — the global lock order. The chain is marked dead under both locks
// so a writer that fetched the pointer before the removal re-fetches
// instead of staging into a detached object.
func (s *Store) removeChainIfEmpty(key []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.data.Get(key)
	if !ok {
		return
	}
	c.mu.Lock()
	empty := len(c.versions) == 0 && c.intent == nil
	if empty {
		c.dead = true
	}
	c.mu.Unlock()
	if empty {
		s.data.Delete(key)
	}
}

func (s *Store) txnLocked(id TxnID) *txnMeta {
	m, ok := s.txns[id]
	if !ok {
		m = &txnMeta{state: StateActive, done: make(chan struct{})}
		s.txns[id] = m
	}
	return m
}

// Put stages a write intent for txn. snapTS is the writer's snapshot; a
// committed version newer than it fails with ErrWriteConflict, as does an
// intent held by another transaction.
func (s *Store) Put(txn TxnID, key, value []byte, snapTS ts.Timestamp) error {
	return s.write(txn, key, value, false, snapTS)
}

// Delete stages a deletion intent for txn.
func (s *Store) Delete(txn TxnID, key []byte, snapTS ts.Timestamp) error {
	return s.write(txn, key, nil, true, snapTS)
}

func (s *Store) write(txn TxnID, key, value []byte, deleted bool, snapTS ts.Timestamp) error {
	c := s.lockChain(key)
	if c.intent != nil && c.intent.txn != txn {
		holder := c.intent.txn
		c.mu.Unlock()
		return fmt.Errorf("%w: key %q held by txn %d", ErrWriteConflict, key, holder)
	}
	if n := len(c.versions); n > 0 && c.versions[n-1].CommitTS > snapTS {
		newer := c.versions[n-1].CommitTS
		c.mu.Unlock()
		return fmt.Errorf("%w: key %q has newer version %v > snapshot %v",
			ErrWriteConflict, key, newer, snapTS)
	}
	// Below the floor the check above proves nothing: the version that
	// conflicts may have been a tombstone whose chain Prune unlinked.
	if err := s.fence(snapTS); err != nil {
		fresh := len(c.versions) == 0 && c.intent == nil
		c.mu.Unlock()
		if fresh {
			s.removeChainIfEmpty(key)
		}
		return err
	}
	if c.intent == nil {
		// Registered under the chain lock, so a reader that sees the intent
		// finds its transaction in the table until the chains show its
		// outcome (txnMeta).
		s.txnMu.Lock()
		m := s.txnLocked(txn)
		m.keys = append(m.keys, bytes.Clone(key))
		s.txnMu.Unlock()
	}
	c.intent = &intent{txn: txn, value: bytes.Clone(value), deleted: deleted}
	c.mu.Unlock()
	return nil
}

// Unchanged fails with ErrWriteConflict unless key's newest committed
// version is the one committed at read: a version installed since, or a chain
// GC unlinked after a deletion, fails it. A primary checks it for each key of
// a one-write statement, under the hold that stages the statement's writes,
// so its read and its writes act as one step at the commit timestamp.
func (s *Store) Unchanged(key []byte, read ts.Timestamp) error {
	var newest ts.Timestamp
	if c := s.getChain(key, false); c != nil {
		c.mu.Lock()
		if n := len(c.versions); n > 0 && !c.dead {
			newest = c.versions[n-1].CommitTS
		}
		c.mu.Unlock()
	}
	if newest != read {
		return fmt.Errorf("%w: key %q has version %v, %v was read", ErrWriteConflict, key, newest, read)
	}
	return nil
}

// MarkPending transitions txn's intents to the Pending state. Primaries call
// it when writing the PENDING COMMIT record, before fetching the commit
// timestamp; replicas call it when that record replays.
func (s *Store) MarkPending(txn TxnID) error { return s.setState(txn, StatePending) }

// MarkPrepared transitions txn's intents to the Prepared 2PC state.
func (s *Store) MarkPrepared(txn TxnID) error { return s.setState(txn, StatePrepared) }

func (s *Store) setState(txn TxnID, st TxnState) error {
	s.txnMu.Lock()
	defer s.txnMu.Unlock()
	// A transaction that never wrote here still gets a record so a later
	// Commit succeeds (control-only replay streams).
	m := s.txnLocked(txn)
	m.state = st
	return nil
}

// TxnStateOf reports the state of txn in this store.
func (s *Store) TxnStateOf(txn TxnID) (TxnState, bool) {
	s.txnMu.Lock()
	defer s.txnMu.Unlock()
	m, ok := s.txns[txn]
	if !ok {
		return 0, false
	}
	return m.state, true
}

// resolve claims txn for its one Commit or Abort: a second resolution, or
// one of an unknown transaction, fails with ErrTxnNotFound.
func (s *Store) resolve(txn TxnID) (*txnMeta, error) {
	s.txnMu.Lock()
	defer s.txnMu.Unlock()
	m, ok := s.txns[txn]
	if !ok || m.resolving {
		return nil, fmt.Errorf("%w: %d", ErrTxnNotFound, txn)
	}
	m.resolving = true
	return m, nil
}

// resolved takes txn, whose chains now show its outcome, out of the table
// and wakes the readers waiting on it.
func (s *Store) resolved(txn TxnID, m *txnMeta) {
	s.txnMu.Lock()
	delete(s.txns, txn)
	s.txnMu.Unlock()
	close(m.done)
}

// Commit applies txn's intents as versions at commitTS and wakes waiting
// readers.
func (s *Store) Commit(txn TxnID, commitTS ts.Timestamp) error {
	m, err := s.resolve(txn)
	if err != nil {
		return err
	}
	for _, key := range m.keys {
		c := s.getChain(key, false)
		if c == nil {
			continue
		}
		c.mu.Lock()
		if c.intent != nil && c.intent.txn == txn {
			s.install(key, c, Version{CommitTS: commitTS, Value: c.intent.value, Deleted: c.intent.deleted})
			c.intent = nil
		}
		c.mu.Unlock()
	}
	s.advanceLastCommit(commitTS)
	s.commits.Add(1)
	s.resolved(txn, m)
	return nil
}

// Abort discards txn's intents and wakes waiting readers.
func (s *Store) Abort(txn TxnID) error {
	m, err := s.resolve(txn)
	if err != nil {
		return err
	}
	for _, key := range m.keys {
		c := s.getChain(key, false)
		if c == nil {
			continue
		}
		c.mu.Lock()
		cleared := false
		if c.intent != nil && c.intent.txn == txn {
			c.intent = nil
			cleared = len(c.versions) == 0
		}
		c.mu.Unlock()
		if cleared {
			s.removeChainIfEmpty(key)
		}
	}
	s.aborts.Add(1)
	s.resolved(txn, m)
	return nil
}

// snapshot reads a chain's contents under its lock. The versions are shared
// with the chain, not copied: see chain for why that is safe.
func (c *chain) snapshot() (it *intent, versions []Version) {
	c.mu.Lock()
	it = c.intent
	versions = c.versions
	c.mu.Unlock()
	return it, versions
}

// install adds a committed version to c, whose lock the caller holds, and
// queues the chain for Prune once it holds something to prune: a second
// version or a tombstone. Commit timestamps arrive in order except under
// parallel replay, so the usual case is the amortised append.
func (s *Store) install(key []byte, c *chain, v Version) {
	n := len(c.versions)
	if n == 0 || c.versions[n-1].CommitTS <= v.CommitTS {
		c.versions = append(c.versions, v)
	} else {
		i := sort.Search(n, func(i int) bool { return c.versions[i].CommitTS > v.CommitTS })
		grown := make([]Version, n+1)
		copy(grown, c.versions[:i])
		grown[i] = v
		copy(grown[i+1:], c.versions[i:])
		c.versions = grown
	}
	s.versions.Add(1)
	if (n == 0 || c.queued) && !v.Deleted {
		return
	}
	s.gcMu.Lock()
	if n > 0 && !c.queued {
		c.queued = true
		s.deep = append(s.deep, c)
	}
	if v.Deleted {
		s.tombs = append(s.tombs, tombstone{key: bytes.Clone(key), c: c})
	}
	s.gcMu.Unlock()
}

// tombstone is a chain whose newest version was a deletion when installed,
// with the key to unlink it by once nothing else is left of it.
type tombstone struct {
	key []byte
	c   *chain
}

// fence refuses a snapshot below the prune floor. Callers load it after
// reading the chains their answer is built from (see Store.floor).
func (s *Store) fence(snapTS ts.Timestamp) error {
	if floor := ts.Timestamp(s.floor.Load()); snapTS < floor {
		metricTooOld.Inc()
		return fmt.Errorf("%w: %v is below the prune floor %v", ErrSnapshotTooOld, snapTS, floor)
	}
	return nil
}

// Get returns the value of key visible at snapTS. If reader is non-zero and
// holds an intent on the key, the intent's value is returned
// (read-your-own-writes). Readers encountering Pending or Prepared intents
// block until those transactions resolve, per Sec. IV-A. A snapTS below the
// prune floor fails with ErrSnapshotTooOld.
func (s *Store) Get(ctx context.Context, key []byte, snapTS ts.Timestamp, reader TxnID) ([]byte, bool, error) {
	v, ok, err := s.GetVersion(ctx, key, snapTS, reader)
	if err != nil || !ok || v.Deleted {
		return nil, false, err
	}
	return v.Value, true, nil
}

// GetVersion is Get reporting which version answered: the newest committed
// version at or below snapTS, a deletion's tombstone included, or the
// reader's own intent, whose CommitTS is zero. ok is false when there is
// neither.
func (s *Store) GetVersion(ctx context.Context, key []byte, snapTS ts.Timestamp, reader TxnID) (Version, bool, error) {
	for {
		var it *intent
		var versions []Version
		if c := s.getChain(key, false); c != nil {
			it, versions = c.snapshot()
		}
		if it != nil {
			if reader != 0 && it.txn == reader {
				return Version{Value: it.value, Deleted: it.deleted}, true, nil
			}
			state, ok, done := s.stateAndDone(it.txn)
			switch {
			case !ok:
				// The transaction resolved between our chain read and the
				// state lookup, and its chains show the outcome: re-read.
				continue
			case state != StateActive:
				s.waits.Add(1)
				select {
				case <-done:
					continue // re-evaluate with the resolved chain
				case <-ctx.Done():
					return Version{}, false, ctx.Err()
				}
			}
			// Active intent: invisible; fall through to committed versions.
		}
		// A missing chain is fenced too: it may be a pruned tombstone's.
		if err := s.fence(snapTS); err != nil {
			return Version{}, false, err
		}
		v, found := visible(versions, snapTS)
		return v, found, nil
	}
}

func (s *Store) stateAndDone(txn TxnID) (TxnState, bool, chan struct{}) {
	s.txnMu.Lock()
	defer s.txnMu.Unlock()
	m, ok := s.txns[txn]
	if !ok {
		return 0, false, nil
	}
	return m.state, true, m.done
}

// visible returns the newest of versions (oldest first) at or below snapTS.
// It walks from the tail, where the snapshots being read almost always are.
func visible(versions []Version, snapTS ts.Timestamp) (Version, bool) {
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i].CommitTS <= snapTS {
			return versions[i], true
		}
	}
	return Version{}, false
}

// KV is one key/value pair returned by Scan. Both slices may alias the
// store's immutable internals (tree keys and committed version values), so
// callers must treat them as read-only; deriving a new key (e.g. a resume
// key) requires copying first. This is what lets a page scan hand back a
// whole page without one clone per row.
type KV struct {
	Key   []byte
	Value []byte
}

// Scan returns up to limit visible pairs with keys in [start, end) at
// snapTS, in key order. limit <= 0 means unlimited. Pending/prepared intents
// inside the range block the scan until resolved, then the scan restarts so
// the result is a consistent cut.
func (s *Store) Scan(ctx context.Context, start, end []byte, snapTS ts.Timestamp, limit int, reader TxnID) ([]KV, error) {
	kvs, _, _, err := s.ScanPage(ctx, start, end, snapTS, limit, reader)
	return kvs, err
}

// ScanPage is the resumable form of Scan: it returns up to limit visible
// pairs in [start, end) at snapTS, plus a resume key and whether the range
// may hold further keys. When more is true, a follow-up ScanPage starting at
// next continues exactly where this page stopped without rescanning — the
// primitive the paged cursor pipeline is built on. Each page is a consistent
// cut at snapTS; MVCC snapshot semantics make consecutive pages at the same
// snapshot mutually consistent. A snapTS below the prune floor fails with
// ErrSnapshotTooOld.
func (s *Store) ScanPage(ctx context.Context, start, end []byte, snapTS ts.Timestamp, limit int, reader TxnID) (kvs []KV, next []byte, more bool, err error) {
	kvs, next, more, _, err = s.ScanPageNewest(ctx, start, end, snapTS, limit, reader)
	return kvs, next, more, err
}

// ScanPageNewest is ScanPage also reporting newest, the highest commit
// timestamp among the versions the page's keys answered with at snapTS,
// deletions included: what a reader at a GClock snapshot must let true time
// pass before the page's result may leave it (tso.Oracle.SettleRead). The
// reader's own intents count for nothing.
func (s *Store) ScanPageNewest(ctx context.Context, start, end []byte, snapTS ts.Timestamp, limit int, reader TxnID) (kvs []KV, next []byte, more bool, newest ts.Timestamp, err error) {
	for {
		out, foreign, last, truncated, newest := s.scanOnce(start, end, snapTS, limit, reader)
		// Validate foreign intents seen during the scan: any that is (or
		// has become) pending/prepared — or resolved since — may have
		// committed below our snapshot, so wait and restart. Intents still
		// Active are invisible by the monotonic-issuance invariant.
		var wait chan struct{}
		for _, txn := range foreign {
			state, ok, done := s.stateAndDone(txn)
			if !ok {
				// Resolved mid-scan: its versions may or may not be in our
				// results — restart for a consistent cut.
				wait = closedCh
				break
			}
			if state != StateActive {
				wait = done
				break
			}
		}
		if wait == nil {
			if err := s.fence(snapTS); err != nil {
				return nil, nil, false, 0, err
			}
			s.scanRows.Add(int64(len(out)))
			if !truncated {
				return out, nil, false, newest, nil
			}
			// Resume at the immediate successor of the last visited key.
			next = append(bytes.Clone(last), 0x00)
			if end != nil && bytes.Compare(next, end) >= 0 {
				return out, nil, false, newest, nil
			}
			return out, next, true, newest, nil
		}
		s.waits.Add(1)
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, nil, false, 0, ctx.Err()
		}
	}
}

// RowsScanned reports the total visible pairs returned by scans, for
// measuring how many rows each layer of the scan pipeline actually fetched.
func (s *Store) RowsScanned() int64 { return s.scanRows.Load() }

var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// scanOnce walks the range, returning visible pairs, the distinct foreign
// transactions whose intents were encountered, the last key visited, whether
// the walk stopped early at the limit, and the newest commit timestamp among
// the versions visited keys answered with.
func (s *Store) scanOnce(start, end []byte, snapTS ts.Timestamp, limit int, reader TxnID) (out []KV, foreign []TxnID, last []byte, truncated bool, newest ts.Timestamp) {
	seen := map[TxnID]bool{}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.data.AscendRange(start, end, func(key []byte, c *chain) bool {
		last = key
		it, versions := c.snapshot()
		if it != nil {
			if reader != 0 && it.txn == reader {
				if !it.deleted {
					out = append(out, KV{Key: key, Value: it.value})
				}
				if limit > 0 && len(out) >= limit {
					truncated = true
					return false
				}
				return true
			}
			if !seen[it.txn] {
				seen[it.txn] = true
				foreign = append(foreign, it.txn)
			}
		}
		if v, found := visible(versions, snapTS); found {
			newest = max(newest, v.CommitTS)
			if !v.Deleted {
				out = append(out, KV{Key: key, Value: v.Value})
			}
		}
		if limit > 0 && len(out) >= limit {
			truncated = true
			return false
		}
		return true
	})
	return out, foreign, last, truncated, newest
}

// ApplyCommitted installs an already-committed version directly, bypassing
// the intent machinery. Replica appliers use it for single-record commits
// and loaders use it for bulk-loading initial data. Versions may arrive out
// of timestamp order (parallel appliers interleave).
func (s *Store) ApplyCommitted(key, value []byte, deleted bool, commitTS ts.Timestamp) {
	c := s.lockChain(key)
	s.install(key, c, Version{CommitTS: commitTS, Value: bytes.Clone(value), Deleted: deleted})
	c.mu.Unlock()
	s.advanceLastCommit(commitTS)
}

// Prune drops what no snapshot at or above watermark can see: on every key
// that gained a version since it was last visited, the versions older than
// the newest one at or below watermark, and the whole chain when all that is
// left is a tombstone at or below watermark. It raises the prune floor to
// watermark first, so snapshots below it are refused from now on, and
// returns the number of versions removed. A key with garbage above the
// watermark stays listed for the next call.
func (s *Store) Prune(watermark ts.Timestamp) int {
	raise(&s.floor, watermark)
	s.gcMu.Lock()
	deep, tombs := s.deep, s.tombs
	s.deep, s.tombs = nil, nil
	s.gcMu.Unlock()

	removed := 0
	stillDeep := deep[:0]
	for _, c := range deep {
		c.mu.Lock()
		// keep is the index of the newest version at or below the watermark.
		keep := sort.Search(len(c.versions), func(i int) bool { return c.versions[i].CommitTS > watermark }) - 1
		if keep > 0 {
			c.versions = slices.Clone(c.versions[keep:]) // readers may hold the old array
			removed += keep
		}
		if c.queued = len(c.versions) > 1; c.queued {
			stillDeep = append(stillDeep, c)
		}
		c.mu.Unlock()
	}
	// A chain pruned down to a tombstone at or below the watermark reads as
	// absent at every snapshot the floor admits: unlink it. That takes the
	// structure lock, so the candidates are found first and the lock is
	// taken once, and only when there is something to unlink.
	unlinkable := func(c *chain) bool {
		return !c.dead && c.intent == nil && len(c.versions) == 1 &&
			c.versions[0].Deleted && c.versions[0].CommitTS <= watermark
	}
	var unlink []tombstone
	stillTombs := tombs[:0]
	for _, t := range tombs {
		t.c.mu.Lock()
		n := len(t.c.versions)
		switch {
		case unlinkable(t.c):
			unlink = append(unlink, t)
		case !t.c.dead && n > 0 && t.c.versions[n-1].Deleted:
			stillTombs = append(stillTombs, t) // above the watermark, or an intent is staged on it
		}
		t.c.mu.Unlock()
	}
	if len(unlink) > 0 {
		s.mu.Lock()
		for _, t := range unlink {
			t.c.mu.Lock()
			if unlinkable(t.c) { // a writer may have staged an intent on it since
				t.c.dead = true
				s.data.Delete(t.key)
				removed++
			} else {
				stillTombs = append(stillTombs, t)
			}
			t.c.mu.Unlock()
		}
		s.mu.Unlock()
	}
	s.gcMu.Lock()
	s.deep = append(stillDeep, s.deep...) // what was listed meanwhile is the short side
	s.tombs = append(stillTombs, s.tombs...)
	s.gcMu.Unlock()
	s.versions.Add(int64(-removed))
	s.pruned.Add(int64(removed))
	metricPruned.Add(int64(removed))
	return removed
}

// Stats are operation counters for observability and tests.
type Stats struct {
	Keys       int
	ActiveTxns int
	// Versions is the number of committed versions held across all keys;
	// Versions / Keys is the mean chain depth.
	Versions int64
	// Pruned is the number of versions Prune has removed.
	Pruned      int64
	Commits     int64
	Aborts      int64
	ReaderWaits int64
	RowsScanned int64
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	keys := s.data.Len()
	s.mu.RUnlock()
	s.txnMu.Lock()
	txns := len(s.txns)
	s.txnMu.Unlock()
	return Stats{
		Keys:        keys,
		ActiveTxns:  txns,
		Versions:    s.versions.Load(),
		Pruned:      s.pruned.Load(),
		Commits:     s.commits.Load(),
		Aborts:      s.aborts.Load(),
		ReaderWaits: s.waits.Load(),
		RowsScanned: s.scanRows.Load(),
	}
}

// Versions returns the committed version chain of key, newest first. Tests
// use it to compare primary and replica states.
func (s *Store) Versions(key []byte) []Version {
	c := s.getChain(key, false)
	if c == nil {
		return nil
	}
	_, versions := c.snapshot()
	out := slices.Clone(versions)
	slices.Reverse(out)
	return out
}

// Clone deep-copies the committed state (version chains, watermark and prune
// floor) into a fresh store, dropping uncommitted intents. Failover uses it
// to re-seed surviving replicas from a promoted primary.
func (s *Store) Clone() *Store {
	out := NewStore()
	out.floor.Store(s.floor.Load())
	s.mu.RLock()
	s.data.AscendRange(nil, nil, func(k []byte, c *chain) bool {
		if _, versions := c.snapshot(); len(versions) > 0 {
			key, nc := bytes.Clone(k), &chain{}
			for _, v := range versions {
				out.install(key, nc, v)
			}
			out.data.Set(key, nc)
		}
		return true
	})
	s.mu.RUnlock()
	out.lastCommit.Store(s.lastCommit.Load())
	return out
}

// Keys returns every key present (committed or with intent), in order.
func (s *Store) Keys() [][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out [][]byte
	s.data.AscendRange(nil, nil, func(k []byte, _ *chain) bool {
		out = append(out, bytes.Clone(k))
		return true
	})
	return out
}
