package gsql

import (
	"context"
	"errors"
	"fmt"

	"globaldb"
	"globaldb/internal/keys"
)

// ErrNotSelect is returned by the Query entry points when the statement is
// not a SELECT. Callers that accept any statement (like the database/sql
// driver) match it and fall back to Exec.
var ErrNotSelect = errors.New("gsql: Query requires a SELECT statement")

// Rows streams a SELECT's output rows. Rows wraps the volcano operator
// pipeline directly: each Next pulls combined rows from the scans (which
// fetch storage pages lazily) and projects them, so a consumer that stops
// early never ships the rest of the table. Pipeline breakers — GROUP BY,
// and ORDER BY the scan cannot satisfy — materialize their result up front
// and then iterate it; everything else streams end to end.
//
// A Rows must be Closed. Close also settles the autocommit read
// transaction that backs an out-of-transaction primary read, so dropping a
// Rows without closing leaks that transaction.
type Rows struct {
	ctx        context.Context
	cols       []string
	onReplicas bool

	// Streaming state: the batch-native pipeline below, with this Rows as
	// the thin row adapter at the consumer edge (each Next steps through
	// the current block; blocks are pulled on demand).
	bp      *boundPlan
	it      blockIter
	blk     *rowBlock
	bi      int
	scr     []any           // joined plans' combined-row buffer
	seen    map[string]bool // DISTINCT filter
	enc     keys.Encoder    // DISTINCT keys
	skipped int64
	yielded int64

	// Materialized fallback (grouped or sorted results).
	mat [][]any
	mi  int

	// Scan counters: totals accumulates as the pipeline's scans close
	// (streaming path); matScan carries the already-final counters of a
	// materialized result.
	totals  *scanTotals
	matScan globaldb.ScanStats

	row    []any
	err    error
	closed bool
	finish func(ok bool) error // settles the backing read context; nil after run
}

// Columns names the output columns, available before the first Next.
func (r *Rows) Columns() []string { return r.cols }

// OnReplicas reports whether the query was served from asynchronous
// replicas at the RCP rather than shard primaries.
func (r *Rows) OnReplicas() bool { return r.onReplicas }

// ScanStats reports the query's per-layer scan row counts — the same
// counters Result.Scan carries on the materializing path. On a streaming
// query the counters settle as the pipeline's scans close, so they are
// final only after the Rows is drained or Closed; before that they report
// the scans that have already finished.
func (r *Rows) ScanStats() globaldb.ScanStats {
	if r.totals != nil {
		return r.totals.s
	}
	return r.matScan
}

// Next advances to the following output row, returning false at the end of
// the result or on error (check Err afterwards).
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.it == nil { // materialized result
		if r.mi >= len(r.mat) {
			return false
		}
		r.row = r.mat[r.mi]
		r.mi++
		return true
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

// Close stops the pipeline, releasing scan cursors and settling the
// backing read transaction. Idempotent.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.it != nil {
		r.it.Close()
	}
	if r.finish != nil {
		f := r.finish
		r.finish = nil
		return f(r.err == nil)
	}
	return nil
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

// queryRows opens the read context for a SELECT (session transaction,
// one-read or autocommit primary read, or replica read) and hangs a
// streaming Rows off the operator pipeline.
func (s *Session) queryRows(ctx context.Context, sel *Select, plan *selectPlan, params []any) (*Rows, error) {
	bp, err := s.bindForExec(sel, plan, params)
	if err != nil {
		return nil, err
	}

	rc, err := s.openReadContext(ctx, sel, bp)
	if err != nil {
		return nil, err
	}
	if bp.grouped || (len(bp.orderBy) > 0 && !scanSatisfiesOrder(bp.selectPlan)) {
		// Pipeline breaker: run to completion (through the DN-partial
		// aggregate path when the plan pushes down), then iterate the
		// materialized result.
		res, err := execSelect(ctx, rc.r, bp)
		ferr := rc.finish(err == nil)
		if err != nil {
			return nil, err
		}
		if ferr != nil {
			return nil, ferr
		}
		return &Rows{cols: res.Columns, onReplicas: rc.onReplicas, mat: res.Rows, matScan: res.Scan}, nil
	}
	it, _, totals, err := buildPipeline(ctx, rc.r, bp)
	if err != nil {
		_ = rc.finish(false)
		return nil, err
	}
	rows := newStreamRows(ctx, bp, it)
	rows.onReplicas, rows.totals, rows.finish = rc.onReplicas, totals, rc.finish
	return rows, nil
}

// newStreamRows hangs a Rows off an open pipeline whose blocks arrive in
// output order; Next applies projection, DISTINCT, OFFSET and LIMIT as it
// steps through them.
func newStreamRows(ctx context.Context, bp *boundPlan, it blockIter) *Rows {
	rows := &Rows{ctx: ctx, cols: bp.outCols, bp: bp, it: it, scr: bp.rowScratch()}
	if bp.distinct {
		rows.seen = make(map[string]bool)
	}
	return rows
}
