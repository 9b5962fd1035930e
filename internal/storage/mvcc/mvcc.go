// Package mvcc implements the multi-version storage engine used by GlobalDB
// data nodes.
//
// Each key maps to a version chain (newest first) plus at most one
// uncommitted write intent. Visibility follows snapshot semantics: a read at
// snapshot timestamp S sees the newest version with commitTS <= S.
//
// Intents move through states mirroring the paper's redo protocol
// (Sec. IV-A):
//
//	Active   — the transaction is still executing; its eventual commit
//	           timestamp is guaranteed to exceed any snapshot already
//	           issued, so the intent is simply invisible to readers.
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
package mvcc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"globaldb/internal/storage/btree"
	"globaldb/internal/ts"
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

type chain struct {
	mu       sync.Mutex
	dead     bool      // set when the chain is unlinked from the tree; writers must re-fetch
	versions []Version // newest first
	intent   *intent
}

type txnMeta struct {
	keys  [][]byte
	state TxnState
	done  chan struct{} // closed when the txn commits or aborts
}

// Store is a single data node's versioned key space.
type Store struct {
	mu   sync.RWMutex // guards the tree's shape
	data *btree.Tree[*chain]

	txnMu sync.Mutex
	txns  map[TxnID]*txnMeta

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
func (s *Store) advanceLastCommit(t ts.Timestamp) {
	for {
		cur := s.lastCommit.Load()
		if int64(t) <= cur || s.lastCommit.CompareAndSwap(cur, int64(t)) {
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
	c := s.getChain(key, true)
	c.mu.Lock()
	for c.dead {
		// Lost a race with removeChainIfEmpty; fetch the live chain.
		c.mu.Unlock()
		c = s.getChain(key, true)
		c.mu.Lock()
	}
	if c.intent != nil && c.intent.txn != txn {
		holder := c.intent.txn
		c.mu.Unlock()
		return fmt.Errorf("%w: key %q held by txn %d", ErrWriteConflict, key, holder)
	}
	if len(c.versions) > 0 && c.versions[0].CommitTS > snapTS {
		newer := c.versions[0].CommitTS
		c.mu.Unlock()
		return fmt.Errorf("%w: key %q has newer version %v > snapshot %v",
			ErrWriteConflict, key, newer, snapTS)
	}
	firstWrite := c.intent == nil
	c.intent = &intent{txn: txn, value: bytes.Clone(value), deleted: deleted}
	c.mu.Unlock()

	if firstWrite {
		// A transaction's operations are serial (one coordinator goroutine),
		// so registering the key after releasing the chain lock cannot race
		// this transaction's own commit.
		s.txnMu.Lock()
		m := s.txnLocked(txn)
		m.keys = append(m.keys, bytes.Clone(key))
		s.txnMu.Unlock()
	}
	return nil
}

// StagedOp is one replay mutation for StageOp.
type StagedOp struct {
	Txn     TxnID
	Key     []byte
	Value   []byte
	Deleted bool
}

// StageOp stages one replay intent. Unlike Put/Delete it skips snapshot
// conflict checks (the primary already serialized the stream). When it
// encounters a foreign intent it waits for that transaction to resolve.
//
// Callers must preserve per-key log order across StageOp calls (the
// parallel applier partitions records by key hash, so each key's ops
// arrive in log order). Under that discipline a foreign intent always
// belongs to a transaction whose resolution record precedes this op in
// the log, so the replay coordinator is guaranteed to apply it.
//
// The key registers in the transaction table immediately — before the
// caller advances its replay watermark — so a commit replayed later can
// never miss it.
func (s *Store) StageOp(op StagedOp) error {
	c := s.getChain(op.Key, true)
	for {
		c.mu.Lock()
		if c.dead {
			// Lost a race with removeChainIfEmpty (an abort of the key's
			// only writer unlinked the chain); fetch the live chain.
			c.mu.Unlock()
			c = s.getChain(op.Key, true)
			continue
		}
		if c.intent == nil || c.intent.txn == op.Txn {
			break
		}
		holder := c.intent.txn
		c.mu.Unlock()
		if _, ok, done := s.stateAndDone(holder); ok {
			<-done // the holder resolves on the replay coordinator
		} else {
			runtime.Gosched() // resolved between reads; re-check
		}
	}
	firstWrite := c.intent == nil
	c.intent = &intent{txn: op.Txn, value: bytes.Clone(op.Value), deleted: op.Deleted}
	c.mu.Unlock()
	if firstWrite {
		s.txnMu.Lock()
		m := s.txnLocked(op.Txn)
		m.keys = append(m.keys, bytes.Clone(op.Key))
		s.txnMu.Unlock()
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

// Commit applies txn's intents as versions at commitTS and wakes waiting
// readers.
func (s *Store) Commit(txn TxnID, commitTS ts.Timestamp) error {
	s.txnMu.Lock()
	m, ok := s.txns[txn]
	if !ok {
		s.txnMu.Unlock()
		return fmt.Errorf("%w: %d", ErrTxnNotFound, txn)
	}
	delete(s.txns, txn)
	s.txnMu.Unlock()

	for _, key := range m.keys {
		c := s.getChain(key, false)
		if c == nil {
			continue
		}
		c.mu.Lock()
		if c.intent != nil && c.intent.txn == txn {
			c.versions = append([]Version{{CommitTS: commitTS, Value: c.intent.value, Deleted: c.intent.deleted}}, c.versions...)
			c.intent = nil
		}
		c.mu.Unlock()
	}
	s.advanceLastCommit(commitTS)
	s.commits.Add(1)
	close(m.done)
	return nil
}

// Abort discards txn's intents and wakes waiting readers.
func (s *Store) Abort(txn TxnID) error {
	s.txnMu.Lock()
	m, ok := s.txns[txn]
	if !ok {
		s.txnMu.Unlock()
		return fmt.Errorf("%w: %d", ErrTxnNotFound, txn)
	}
	delete(s.txns, txn)
	s.txnMu.Unlock()

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
	close(m.done)
	return nil
}

// snapshotChain reads a chain's contents under its lock.
func (c *chain) snapshot() (it *intent, top []Version) {
	c.mu.Lock()
	it = c.intent
	top = c.versions
	c.mu.Unlock()
	return it, top
}

// Get returns the value of key visible at snapTS. If reader is non-zero and
// holds an intent on the key, the intent's value is returned
// (read-your-own-writes). Readers encountering Pending or Prepared intents
// block until those transactions resolve, per Sec. IV-A.
func (s *Store) Get(ctx context.Context, key []byte, snapTS ts.Timestamp, reader TxnID) ([]byte, bool, error) {
	for {
		c := s.getChain(key, false)
		if c == nil {
			return nil, false, nil
		}
		it, versions := c.snapshot()
		if it != nil {
			if reader != 0 && it.txn == reader {
				if it.deleted {
					return nil, false, nil
				}
				return it.value, true, nil
			}
			state, ok, done := s.stateAndDone(it.txn)
			switch {
			case !ok:
				// The transaction resolved between our chain read and the
				// state lookup; re-read the chain.
				runtime.Gosched()
				continue
			case state != StateActive:
				s.waits.Add(1)
				select {
				case <-done:
					continue // re-evaluate with the resolved chain
				case <-ctx.Done():
					return nil, false, ctx.Err()
				}
			}
			// Active intent: invisible; fall through to committed versions.
		}
		v, found := visible(versions, snapTS)
		if !found || v.Deleted {
			return nil, false, nil
		}
		return v.Value, true, nil
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

func visible(versions []Version, snapTS ts.Timestamp) (Version, bool) {
	for _, v := range versions {
		if v.CommitTS <= snapTS {
			return v, true
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
// snapshot mutually consistent.
func (s *Store) ScanPage(ctx context.Context, start, end []byte, snapTS ts.Timestamp, limit int, reader TxnID) (kvs []KV, next []byte, more bool, err error) {
	for {
		out, foreign, last, truncated := s.scanOnce(start, end, snapTS, limit, reader)
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
			s.scanRows.Add(int64(len(out)))
			if !truncated {
				return out, nil, false, nil
			}
			// Resume at the immediate successor of the last visited key.
			next = append(bytes.Clone(last), 0x00)
			if end != nil && bytes.Compare(next, end) >= 0 {
				return out, nil, false, nil
			}
			return out, next, true, nil
		}
		s.waits.Add(1)
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, nil, false, ctx.Err()
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
// transactions whose intents were encountered, the last key visited, and
// whether the walk stopped early at the limit.
func (s *Store) scanOnce(start, end []byte, snapTS ts.Timestamp, limit int, reader TxnID) (out []KV, foreign []TxnID, last []byte, truncated bool) {
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
		if v, found := visible(versions, snapTS); found && !v.Deleted {
			out = append(out, KV{Key: key, Value: v.Value})
		}
		if limit > 0 && len(out) >= limit {
			truncated = true
			return false
		}
		return true
	})
	return out, foreign, last, truncated
}

// ApplyCommitted installs an already-committed version directly, bypassing
// the intent machinery. Replica appliers use it for single-record commits
// and loaders use it for bulk-loading initial data.
func (s *Store) ApplyCommitted(key, value []byte, deleted bool, commitTS ts.Timestamp) {
	c := s.getChain(key, true)
	c.mu.Lock()
	// Insert preserving newest-first order; replay can deliver old versions
	// after new ones when parallel appliers interleave.
	i := 0
	for i < len(c.versions) && c.versions[i].CommitTS > commitTS {
		i++
	}
	v := Version{CommitTS: commitTS, Value: bytes.Clone(value), Deleted: deleted}
	c.versions = append(c.versions, Version{})
	copy(c.versions[i+1:], c.versions[i:])
	c.versions[i] = v
	c.mu.Unlock()
	s.advanceLastCommit(commitTS)
}

// Prune drops versions strictly older than the newest version at or below
// watermark for every key, bounding version-chain growth. It returns the
// number of versions removed.
func (s *Store) Prune(watermark ts.Timestamp) int {
	removed := 0
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.data.AscendRange(nil, nil, func(_ []byte, c *chain) bool {
		c.mu.Lock()
		for i, v := range c.versions {
			if v.CommitTS <= watermark {
				removed += len(c.versions) - i - 1
				c.versions = c.versions[:i+1]
				break
			}
		}
		c.mu.Unlock()
		return true
	})
	return removed
}

// Stats are operation counters for observability and tests.
type Stats struct {
	Keys        int
	ActiveTxns  int
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
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Version, len(c.versions))
	copy(out, c.versions)
	return out
}

// Clone deep-copies the committed state (version chains and watermark) into
// a fresh store, dropping uncommitted intents. Failover uses it to re-seed
// surviving replicas from a promoted primary.
func (s *Store) Clone() *Store {
	out := NewStore()
	s.mu.RLock()
	s.data.AscendRange(nil, nil, func(k []byte, c *chain) bool {
		c.mu.Lock()
		if len(c.versions) > 0 {
			nc := &chain{versions: make([]Version, len(c.versions))}
			copy(nc.versions, c.versions)
			out.data.Set(bytes.Clone(k), nc)
		}
		c.mu.Unlock()
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
