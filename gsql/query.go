package gsql

import (
	"context"
	"errors"
	"fmt"

	"globaldb"
	"globaldb/internal/keys"
	"globaldb/internal/obs"
)

// ErrNotSelect is returned by the Query entry points when the statement is
// not a SELECT. Callers that accept any statement (like the database/sql
// driver) match it and fall back to Exec.
var ErrNotSelect = errors.New("gsql: Query requires a SELECT statement")

// Rows streams a SELECT's output rows. It is the one consumer of the
// SELECT's operator pipeline (see buildPipeline): each Next pulls blocks
// from the operator below (scans fetch storage pages lazily), projects the
// next row and applies DISTINCT, OFFSET and LIMIT, so a consumer that stops
// early never ships the rest of the table. Aggregation and an ORDER BY the
// scan cannot satisfy are operators inside the pipeline: they drain their
// input on the first Next and then stream their result. Exec drains a Rows
// into a Result.
//
// A Rows must be Closed. Close also ends the autocommit transaction that
// backs an out-of-transaction primary read, so dropping a Rows without
// closing leaks that transaction.
type Rows struct {
	ctx        context.Context
	cols       []string
	onReplicas bool

	// The batch-native pipeline below, with this Rows as the thin row
	// adapter at the consumer edge (each Next steps through the current
	// block; blocks are pulled on demand).
	bp      *boundPlan
	it      blockIter
	blk     *rowBlock
	bi      int
	scr     []any           // joined plans' combined-row buffer
	seen    map[string]bool // DISTINCT filter
	enc     keys.Encoder    // DISTINCT keys
	skipped int64
	yielded int64

	// totals accumulates the scan counters as the pipeline's scans close.
	totals *scanTotals

	row    []any
	err    error
	closed bool
	tx     *globaldb.Tx // the statement's autocommit transaction while it is open
	span   *obs.Span    // a traced Exec's execute span, ended at Close
}

// Columns names the output columns, available before the first Next.
func (r *Rows) Columns() []string { return r.cols }

// OnReplicas reports whether the query was served from asynchronous
// replicas at the RCP rather than shard primaries.
func (r *Rows) OnReplicas() bool { return r.onReplicas }

// ScanStats reports the query's per-layer scan row counts, the counters
// Result.Scan carries. They settle as the pipeline's scans close, so they
// are final only after the Rows is Closed; before that they report the
// scans that have already finished.
func (r *Rows) ScanStats() globaldb.ScanStats { return r.totals.s }

// JoinStrategy names the join strategy a two-table SELECT runs with, the
// one Result.JoinStrategy reports; empty for a single-table SELECT.
func (r *Rows) JoinStrategy() string {
	if r.bp.inner == nil {
		return ""
	}
	return r.bp.chosenJoin.String()
}

// Next advances to the following output row, returning false at the end of
// the result or on error (check Err afterwards).
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	for r.bp.limit < 0 || r.yielded < r.bp.limit {
		if r.blk == nil || r.bi >= r.blk.n() {
			blk, err := r.it.NextBlock(r.ctx)
			if err != nil {
				r.err = err
				return false
			}
			if blk == nil {
				break
			}
			r.blk, r.bi = blk, 0
		}
		row := r.blk.flat(r.bi, r.scr)
		r.bi++
		out, err := project(r.bp, row)
		if err != nil {
			r.err = err
			return false
		}
		if r.seen != nil {
			key, err := distinctKey(&r.enc, out)
			if err != nil {
				r.err = err
				return false
			}
			if r.seen[string(key)] {
				continue
			}
			r.seen[string(key)] = true
		}
		if r.skipped < r.bp.offset {
			r.skipped++
			continue
		}
		r.yielded++
		r.row = out
		return true
	}
	return false
}

// Row returns the current output row. It is valid after a Next that
// returned true and until the following Next call.
func (r *Rows) Row() []any { return r.row }

// Err returns the first error encountered while streaming, or nil.
func (r *Rows) Err() error { return r.err }

// Close stops the pipeline, releasing scan cursors, and ends the
// statement's autocommit transaction: Commit when every Next succeeded,
// Abort otherwise. A point SELECT's one-read context has ended before its
// first row (queryRows). Idempotent.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.it.Close()
	var err error
	if tx := r.tx; tx != nil {
		r.tx = nil
		if r.err != nil {
			err = tx.Abort(r.ctx)
		} else {
			err = tx.Commit(r.ctx)
		}
	}
	r.span.End()
	return err
}

// result drains the rows into a Result and closes them: what Exec returns
// for a SELECT.
func (r *Rows) result() (*Result, error) {
	res := &Result{Columns: r.cols, OnReplicas: r.onReplicas}
	for r.Next() {
		res.Rows = append(res.Rows, r.row)
	}
	cerr := r.Close()
	if r.err != nil {
		return nil, r.err
	}
	if cerr != nil {
		return nil, cerr
	}
	res.Scan, res.JoinStrategy = r.totals.s, r.JoinStrategy()
	return res, nil
}

// Query runs a SELECT and streams its output rows, binding args to the
// statement's placeholders. It shares Exec's plan cache. The returned Rows
// must be closed.
func (s *Session) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	cs, err := s.cachedStatement(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := cs.stmt.(*Select)
	if !ok {
		return nil, fmt.Errorf("%w, have %T", ErrNotSelect, cs.stmt)
	}
	params, err := bindArgs(cs.numParams, args)
	if err != nil {
		return nil, err
	}
	return s.queryRows(ctx, sel, cs.plan, params)
}

// queryRows binds a SELECT, opens its read context (session transaction,
// one-read or autocommit primary read, or replica read) and hangs a Rows
// off the operator pipeline. Query, prepared Query and Exec (which drains
// the Rows) all run SELECTs through it.
func (s *Session) queryRows(ctx context.Context, sel *Select, plan *selectPlan, params []any) (*Rows, error) {
	bp, err := s.bindForExec(sel, plan, params)
	if err != nil {
		return nil, err
	}
	// The execute span exists only under a traced Exec (nil otherwise, and
	// every span call is then a no-op pointer compare). It rides the
	// context into the scan cursors' prefetch goroutines (per-shard
	// scan-page spans) and the autocommit transaction's commit fan-out, and
	// ends when the Rows closes.
	sp := s.curTrace.Root().Child("execute")
	ctx = obs.WithSpan(ctx, sp)
	rc, err := s.openReadContext(ctx, sel, bp)
	if err != nil {
		sp.End()
		return nil, err
	}
	it, totals, err := buildPipeline(ctx, rc.r, bp)
	if err == nil && rc.kind == readOneRead {
		// Building the pipeline made the plan's one Get (openScan). End the
		// context now, before a row can leave: its Commit settles the read.
		if err = rc.tx.Commit(ctx); err != nil {
			it.Close()
		}
		rc.tx = nil
	}
	if err != nil {
		if rc.tx != nil {
			_ = rc.tx.Abort(ctx)
		}
		sp.End()
		return nil, err
	}
	if sp != nil { // untraced, skip boxing Tag's arguments
		if bp.inner != nil {
			sp.Tag("read=%s join=%s", rc.kind, bp.chosenJoin)
		} else {
			sp.Tag("read=%s", rc.kind)
		}
	}
	rows := newRows(ctx, bp, it, totals)
	rows.onReplicas, rows.tx, rows.span = rc.onReplicas, rc.tx, sp
	return rows, nil
}

// newRows hangs a Rows off an open pipeline whose blocks arrive in output
// order; Next applies projection, DISTINCT, OFFSET and LIMIT as it steps
// through them.
func newRows(ctx context.Context, bp *boundPlan, it blockIter, totals *scanTotals) *Rows {
	rows := &Rows{ctx: ctx, cols: bp.outCols, bp: bp, it: it, scr: bp.rowScratch(), totals: totals}
	if bp.distinct {
		rows.seen = make(map[string]bool)
	}
	return rows
}
