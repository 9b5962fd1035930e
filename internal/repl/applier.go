// Package repl implements GlobalDB's redo replication: primaries ship log
// batches to replicas asynchronously or synchronously (Sec. II), and
// replicas replay them while tracking the maximum commit timestamp the RCP
// calculation consumes (Sec. IV-A).
//
// The paper replays redo in parallel. This reproduction replays each batch
// sequentially, in log order, through Applier.Apply: replicas, WAL recovery
// and the replay benchmark share that one function. Shipped batches are
// small (about one record on a read-mostly cluster, six under TPC-C), and a
// key-partitioned parallel stager measured 2.5–3.3 µs per record at 5- to
// 160-record batches against 1.2–1.5 µs for sequential replay on a two-core
// VM: its goroutine, gate and queues cost more than the work they split.
package repl

import (
	"fmt"
	"sync"

	"globaldb/internal/redo"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
)

// Applier replays redo records into a replica's MVCC store in log order.
//
// Sequential replay never meets a foreign intent: the primary's Put rejects
// one, and a transaction logs only the writes that staged, so in log order a
// key's intent holder has always committed or aborted before another
// transaction's heap record for that key appears. Heap records therefore
// stage with a plain Put/Delete at ts.Max, and nothing waits.
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
