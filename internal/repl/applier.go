// Package repl implements GlobalDB's redo replication: primaries ship log
// batches to replicas asynchronously or synchronously (Sec. II), and
// replicas replay them in parallel while tracking the maximum commit
// timestamp the RCP calculation consumes (Sec. IV-A).
package repl

import (
	"fmt"
	"math"
	"sync"

	"globaldb/internal/redo"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
)

// ApplyParallelism is the worker count for parallel heap-record replay. The
// paper notes that parallel apply "significantly improves log replay speed".
const ApplyParallelism = 4

// Applier replays redo records into a replica's MVCC store, preserving
// per-key order while applying runs of heap records in parallel. Control
// records (PENDING COMMIT, COMMIT, ABORT, PREPARE, COMMIT/ABORT PREPARED,
// DDL, HEARTBEAT) act as barriers.
type Applier struct {
	store *mvcc.Store

	mu         sync.Mutex
	appliedLSN uint64
	maxDDLTS   ts.Timestamp
	ddlTS      map[uint64]ts.Timestamp // tableID (from DDL record Txn field) -> ts

	onDDL func(r redo.Record) // optional catalog hook

	// notifyMu guards applied, the channel NotifyApplied hands out. It is
	// separate from mu so that registering never waits for a replay.
	notifyMu sync.Mutex
	applied  chan struct{}
}

// NewApplier returns an applier over store, expecting the log from LSN 1.
func NewApplier(store *mvcc.Store) *Applier {
	return &Applier{
		store: store,
		ddlTS: make(map[uint64]ts.Timestamp),
	}
}

// SetDDLHook installs a callback invoked for every replayed DDL record,
// letting the hosting node maintain a replica catalog.
func (a *Applier) SetDDLHook(fn func(redo.Record)) { a.onDDL = fn }

// AppliedLSN returns the LSN of the last applied record.
func (a *Applier) AppliedLSN() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.appliedLSN
}

// MaxCommitTS returns the largest commit timestamp replayed — this
// replica's contribution to the RCP (Fig. 4).
func (a *Applier) MaxCommitTS() ts.Timestamp { return a.store.LastCommitTS() }

// NotifyApplied returns a channel closed when the next batch has been
// replayed, in the idiom of redo.Log.NotifyAppend: take the channel, check
// MaxCommitTS or AppliedLSN, wait on the channel, check again — no wakeup is
// lost. It is how a status long poll parks on the watermark instead of being
// asked again every few milliseconds.
func (a *Applier) NotifyApplied() <-chan struct{} {
	a.notifyMu.Lock()
	defer a.notifyMu.Unlock()
	if a.applied == nil {
		a.applied = make(chan struct{})
	}
	return a.applied
}

// wakeApplied closes the channel the current waiters hold, if any.
func (a *Applier) wakeApplied() {
	a.notifyMu.Lock()
	if a.applied != nil {
		close(a.applied)
		a.applied = nil
	}
	a.notifyMu.Unlock()
}

// Store exposes the underlying MVCC store for reads.
func (a *Applier) Store() *mvcc.Store { return a.store }

// Apply replays a batch that must start exactly at AppliedLSN()+1. It
// returns the new applied LSN. Batches starting beyond the expected LSN are
// rejected so the shipper rewinds; batches that overlap the applied prefix
// are deduplicated (at-least-once delivery is fine).
func (a *Applier) Apply(recs []redo.Record) (uint64, error) {
	a.mu.Lock()
	defer a.wakeApplied() // runs after the unlock: a woken waiter reads AppliedLSN
	defer a.mu.Unlock()
	for _, r := range recs {
		switch {
		case r.LSN <= a.appliedLSN:
			continue // duplicate from a resend
		case r.LSN != a.appliedLSN+1:
			return a.appliedLSN, fmt.Errorf("repl: gap: got LSN %d, want %d", r.LSN, a.appliedLSN+1)
		}
		a.applyOne(r)
		a.appliedLSN = r.LSN
	}
	return a.appliedLSN, nil
}

// stageItem is one heap operation on a staging worker's queue, tagged with
// its log position so the coordinator can order control records around it.
type stageItem struct {
	lsn uint64
	op  mvcc.StagedOp
}

// ApplyParallel replays a batch with key-partitioned parallelism — the
// paper's "applies Redo logs in parallel which significantly improves log
// replay speed". Heap records hash by key onto ApplyParallelism staging
// workers, so every key's operations stage in log order. Control records
// (PENDING COMMIT, COMMIT, ABORT, PREPARE, COMMIT/ABORT PREPARED, DDL,
// HEARTBEAT) apply in strict log order on the dispatching goroutine, each
// gated on every worker having staged past its LSN.
//
// The gate makes the wait graph acyclic. A worker blocks in StageOp only
// when it finds a foreign intent; per-key log order means the holder's
// resolution record precedes the blocked op in the log, so the coordinator
// has either applied it (the worker re-checks and proceeds) or will reach
// it without waiting on this worker: the blocked op's LSN is strictly
// greater than the resolution's LSN, so the worker's published progress
// does not gate the coordinator.
func (a *Applier) ApplyParallel(recs []redo.Record) (uint64, error) {
	a.mu.Lock()
	defer a.wakeApplied() // runs after the unlock: a woken waiter reads AppliedLSN
	defer a.mu.Unlock()

	queues := make([][]stageItem, ApplyParallelism)
	var controls []redo.Record
	expected := a.appliedLSN + 1
	for i := range recs {
		r := &recs[i]
		if r.LSN <= a.appliedLSN {
			continue
		}
		if r.LSN != expected {
			return a.appliedLSN, fmt.Errorf("repl: gap: got LSN %d, want %d", r.LSN, expected)
		}
		expected++
		if isHeap(r.Type) {
			p := int(keyHash(r.Key) % ApplyParallelism)
			queues[p] = append(queues[p], stageItem{lsn: r.LSN, op: mvcc.StagedOp{
				Txn: mvcc.TxnID(r.Txn), Key: r.Key, Value: r.Value,
				Deleted: r.Type == redo.TypeHeapDelete,
			}})
		} else {
			controls = append(controls, *r)
		}
	}

	// next[w] is the LSN of worker w's next unstaged item (MaxUint64 when
	// drained); the coordinator applies a control record at LSN r only once
	// min(next) > r, i.e. all heap records before it are staged.
	var (
		progressMu sync.Mutex
		progressCv = sync.NewCond(&progressMu)
		next       = make([]uint64, ApplyParallelism)
	)
	for w, q := range queues {
		if len(q) == 0 {
			next[w] = math.MaxUint64
		} else {
			next[w] = q[0].lsn
		}
	}
	var wg sync.WaitGroup
	for w, q := range queues {
		if len(q) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, q []stageItem) {
			defer wg.Done()
			for i, item := range q {
				if err := a.store.StageOp(item.op); err != nil {
					panic(fmt.Sprintf("repl: parallel replay: %v", err))
				}
				progressMu.Lock()
				if i+1 < len(q) {
					next[w] = q[i+1].lsn
				} else {
					next[w] = math.MaxUint64
				}
				progressCv.Broadcast()
				progressMu.Unlock()
			}
		}(w, q)
	}
	waitStagedBefore := func(lsn uint64) {
		progressMu.Lock()
		for {
			min := uint64(math.MaxUint64)
			for _, n := range next {
				if n < min {
					min = n
				}
			}
			if min > lsn {
				break
			}
			progressCv.Wait()
		}
		progressMu.Unlock()
	}
	for i := range controls {
		waitStagedBefore(controls[i].LSN)
		a.applyOne(controls[i])
	}
	wg.Wait()
	if expected > a.appliedLSN+1 {
		a.appliedLSN = expected - 1
	}
	return a.appliedLSN, nil
}

// keyHash is FNV-1a over the key, picking the staging worker so each key's
// operations replay in log order on one worker.
func keyHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func isHeap(t redo.Type) bool {
	return t == redo.TypeHeapInsert || t == redo.TypeHeapUpdate || t == redo.TypeHeapDelete
}

// applyOne replays a single record. Replay bypasses snapshot conflict
// checks (ts.Max snapshots): the primary already serialized these writes.
func (a *Applier) applyOne(r redo.Record) {
	txn := mvcc.TxnID(r.Txn)
	switch r.Type {
	case redo.TypeHeapInsert, redo.TypeHeapUpdate:
		// Replay errors are impossible by construction (primary-serialized
		// order); a failure here would mean a corrupted stream.
		if err := a.store.Put(txn, r.Key, r.Value, ts.Max); err != nil {
			panic(fmt.Sprintf("repl: replay Put lsn=%d: %v", r.LSN, err))
		}
	case redo.TypeHeapDelete:
		if err := a.store.Delete(txn, r.Key, ts.Max); err != nil {
			panic(fmt.Sprintf("repl: replay Delete lsn=%d: %v", r.LSN, err))
		}
	case redo.TypePendingCommit:
		// Locks the transaction's tuples until COMMIT/ABORT replays
		// (Sec. IV-A); readers at the RCP wait instead of missing it.
		a.store.MarkPending(txn)
	case redo.TypeCommit, redo.TypeCommitPrepared:
		if err := a.store.Commit(txn, r.TS); err != nil {
			// The transaction wrote nothing on this shard (control-only
			// stream); still advance the visibility watermark.
			a.store.AdvanceCommitWatermark(r.TS)
		}
	case redo.TypeAbort, redo.TypeAbortPrepared:
		_ = a.store.Abort(txn) // not-found is fine: nothing was staged here
	case redo.TypePrepare:
		a.store.MarkPrepared(txn)
	case redo.TypeDDL:
		if r.TS > a.maxDDLTS {
			a.maxDDLTS = r.TS
		}
		if r.Txn != 0 && r.TS > a.ddlTS[r.Txn] {
			a.ddlTS[r.Txn] = r.TS // DDL records carry the table ID in Txn
		}
		a.store.AdvanceCommitWatermark(r.TS)
		if a.onDDL != nil {
			a.onDDL(r)
		}
	case redo.TypeHeartbeat:
		a.store.AdvanceCommitWatermark(r.TS)
	}
}

// MaxDDLTS returns the largest replayed DDL timestamp.
func (a *Applier) MaxDDLTS() ts.Timestamp {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maxDDLTS
}
