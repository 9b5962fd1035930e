package gsql

import (
	"context"
	"fmt"

	"globaldb"
	"globaldb/gsql/fragment"
	"globaldb/internal/table"
)

// The operator pipeline is batch-native: each operator's NextBlock moves a
// rowBlock — a batch of combined rows, one column of table.Rows per FROM
// table — pulled from the operator below it. Scans hand whole decoded
// storage pages upward as blocks, filters compact a block in place
// (selection, not per-row copying), and joins fan one outer row out across
// an inner block. Operators still fetch lazily, so a consumer that stops
// early — a LIMIT, an aggregate short-circuit — stops the whole pipeline,
// and the scan at the bottom stops requesting pages from storage. Rows
// leave block form only at the true row edges: result assembly / driver
// Rows.Next, and the aggregation hash probe.

// rowBlock is a batch of combined rows: tabs[t][i] is FROM-table t's row
// in combined row i. All tabs have equal length. A block returned by
// NextBlock is valid until the following NextBlock call; consumers may
// retain the table.Rows inside it, but not the block or its slices.
type rowBlock struct {
	tabs [][]table.Row
}

// n returns the number of combined rows in the block.
func (b *rowBlock) n() int {
	if len(b.tabs) == 0 {
		return 0
	}
	return len(b.tabs[0])
}

// flat returns combined row i as the one flat row lowered expressions
// evaluate over: a single-table block's row itself, or the FROM rows'
// columns copied back to back into scratch (see selectPlan.rowScratch).
func (b *rowBlock) flat(i int, scratch []any) []any {
	if len(b.tabs) == 1 {
		return b.tabs[0][i]
	}
	out := scratch[:0]
	for t := range b.tabs {
		out = append(out, b.tabs[t][i]...)
	}
	return out
}

// rowScratch returns the buffer a joined plan copies each combined row
// into, sized once per execution; single-table plans evaluate on the table
// row itself and need none.
func (p *selectPlan) rowScratch() []any {
	if len(p.tables) == 1 {
		return nil
	}
	return make([]any, 0, p.width)
}

// blockIter is a batch-native volcano operator: NextBlock returns the next
// non-empty block, or nil at the end of the stream.
type blockIter interface {
	NextBlock(ctx context.Context) (*rowBlock, error)
	Close()
}

// pointRow yields a point get's result: one block of one row, or nothing
// when the key was not found.
type pointRow struct {
	row  [1]table.Row
	tabs [1][]table.Row
	blk  rowBlock
	done bool
}

func (p *pointRow) NextBlock(context.Context) (*rowBlock, error) {
	if p.done {
		return nil, nil
	}
	p.done = true
	p.tabs[0] = p.row[:]
	p.blk.tabs = p.tabs[:]
	return &p.blk, nil
}

func (p *pointRow) Close() {}

// scanTotals accumulates per-layer scan row counts across every scan a
// query opens (outer plus join inners), surfaced on the Result so pushdown
// wins are observable per query.
type scanTotals struct {
	s globaldb.ScanStats
}

// scanIter adapts a streaming globaldb.Rows into single-table blocks,
// moving each decoded storage page upward as one block reference.
type scanIter struct {
	rows    *globaldb.Rows
	totals  *scanTotals
	counted bool
	blk     rowBlock
	tabs    [1][]table.Row
}

func (s *scanIter) NextBlock(context.Context) (*rowBlock, error) {
	if !s.rows.NextBatch() {
		return nil, s.rows.Err()
	}
	s.tabs[0] = s.rows.Batch()
	s.blk.tabs = s.tabs[:]
	return &s.blk, nil
}

func (s *scanIter) Close() {
	if !s.counted {
		s.counted = true
		if s.totals != nil {
			s.totals.s = s.totals.s.Add(s.rows.ScanStats())
		}
	}
	_ = s.rows.Close()
}

// filterIter drops combined rows failing the predicate, compacting each
// block in place: survivors are selected by shifting references down, never
// by re-allocating rows.
type filterIter struct {
	child  blockIter
	filter *fragment.Expr
	scr    []any
}

func (f *filterIter) NextBlock(ctx context.Context) (*rowBlock, error) {
	for {
		blk, err := f.child.NextBlock(ctx)
		if blk == nil || err != nil {
			return nil, err
		}
		n := blk.n()
		keep := 0
		for i := 0; i < n; i++ {
			pass, err := fragment.EvalCond(f.filter, blk.flat(i, f.scr))
			if err != nil {
				return nil, err
			}
			if !pass {
				continue
			}
			if keep != i {
				for t := range blk.tabs {
					blk.tabs[t][keep] = blk.tabs[t][i]
				}
			}
			keep++
		}
		if keep > 0 {
			for t := range blk.tabs {
				blk.tabs[t] = blk.tabs[t][:keep]
			}
			return blk, nil
		}
	}
}

func (f *filterIter) Close() { f.child.Close() }

// nestedLoopIter streams a nested-loop join: for each outer row it opens a
// fresh inner scan (whose key expressions may bind outer columns) and
// yields [outer, inner] blocks — the outer row's reference fanned across
// each inner block.
type nestedLoopIter struct {
	outer     blockIter
	openInner func(outerRow table.Row) (blockIter, error)

	outerBlk *rowBlock
	oi       int
	curOuter table.Row
	inner    blockIter

	blk      rowBlock
	tabs     [2][]table.Row
	outerRep []table.Row
}

func (j *nestedLoopIter) NextBlock(ctx context.Context) (*rowBlock, error) {
	for {
		if j.inner == nil {
			if j.outerBlk == nil || j.oi >= j.outerBlk.n() {
				blk, err := j.outer.NextBlock(ctx)
				if blk == nil || err != nil {
					return nil, err
				}
				j.outerBlk, j.oi = blk, 0
			}
			j.curOuter = j.outerBlk.tabs[0][j.oi]
			j.oi++
			inner, err := j.openInner(j.curOuter)
			if err != nil {
				return nil, err
			}
			j.inner = inner
		}
		iblk, err := j.inner.NextBlock(ctx)
		if err != nil {
			return nil, err
		}
		if iblk == nil {
			j.inner.Close()
			j.inner = nil
			continue
		}
		irows := iblk.tabs[0]
		if cap(j.outerRep) < len(irows) {
			j.outerRep = make([]table.Row, len(irows))
		}
		rep := j.outerRep[:len(irows)]
		for i := range rep {
			rep[i] = j.curOuter
		}
		j.tabs[0], j.tabs[1] = rep, irows
		j.blk.tabs = j.tabs[:]
		return &j.blk, nil
	}
}

func (j *nestedLoopIter) Close() {
	if j.inner != nil {
		j.inner.Close()
	}
	j.outer.Close()
}

// openScan builds the streaming scan operator for one table, with se its
// bound key and range expressions. outerRow, when non-nil, binds outer
// column references in them (join inner lookups). fetchLimit > 0 caps the
// rows the scan requests from storage (a fully pushed LIMIT); pageHint > 0
// sizes the first fetched page (early-terminating consumers); prefetch is the
// pages-ahead window hint passed to the shard cursors (< 0 disables
// background prefetching for scans the executor expects to stop early).
// frag, when non-nil, is the bound DN-side fragment attached to the scan's
// pages; totals, when non-nil, accumulates the scan's per-layer row counts
// at Close.
func openScan(ctx context.Context, r reader, s *tableScan, se *scanExprs, outerRow table.Row, fetchLimit, pageHint, prefetch int, frag *fragment.Fragment, totals *scanTotals) (blockIter, error) {
	keyVals, err := scanKey(s, se, outerRow)
	if err != nil {
		return nil, err
	}
	name := s.tab.schema.Name
	opts := globaldb.ScanOpts{Limit: fetchLimit, PageSize: pageHint, Prefetch: prefetch, Range: scanRange(s, se, outerRow), Pushdown: frag}
	var rows *globaldb.Rows
	switch s.kind {
	case accessPoint:
		row, found, err := r.Get(ctx, name, keyVals)
		if err != nil || !found {
			return &pointRow{done: true}, err
		}
		return &pointRow{row: [1]table.Row{row}}, nil
	case accessPKPrefix:
		rows, err = r.ScanPKRows(ctx, name, keyVals, opts)
	case accessIndex:
		rows, err = r.ScanIndexRows(ctx, name, s.index, keyVals, opts)
	case accessFull:
		rows, err = r.ScanTableRows(ctx, name, opts)
	default:
		return nil, fmt.Errorf("gsql: unknown access kind %v", s.kind)
	}
	if err != nil {
		return nil, err
	}
	return &scanIter{rows: rows, totals: totals}, nil
}

// scanRange evaluates a scan's pushed range bounds over the outer row. A
// bound whose value is NULL or fails to coerce to the column kind is
// dropped — the residual filter still holds the conjunct, so dropping only
// widens the scan.
func scanRange(s *tableScan, se *scanExprs, outerRow []any) *globaldb.ScanRange {
	if s.rangeCol < 0 || (se.lo == nil && se.hi == nil) {
		return nil
	}
	bound := func(e *fragment.Expr) any {
		if e == nil {
			return nil
		}
		v, err := fragment.Eval(e, outerRow)
		if err != nil {
			return nil
		}
		cv, err := coerceValue(s.tab.schema, s.rangeCol, v)
		if err != nil {
			return nil
		}
		return cv
	}
	rng := &globaldb.ScanRange{Lo: bound(se.lo), Hi: bound(se.hi), LoExcl: s.loExcl, HiExcl: s.hiExcl}
	if rng.Lo == nil && rng.Hi == nil {
		return nil
	}
	return rng
}

// buildPipeline assembles the batch-native operator tree for a planned
// SELECT: scan(outer, with any DN-side fragment attached) -> [join(inner):
// fused lookup-pushdown, hash, or nested-loop] -> residual filter.
// orderDone reports whether the scan already delivers rows in the plan's
// ORDER BY order (so the driver can skip the sort and terminate early on
// LIMIT). The returned totals accumulate every scan's per-layer row counts
// as iterators close.
func buildPipeline(ctx context.Context, r reader, p *boundPlan) (it blockIter, orderDone bool, totals *scanTotals, err error) {
	totals = &scanTotals{}
	orderDone = scanSatisfiesOrder(p.selectPlan)

	strategy := joinNestLoop
	if p.inner != nil {
		strategy = p.resolveJoin()
	}

	// The DN-partial phase: bind the fragment template with this
	// execution's parameters. A bind failure (e.g. an exotic parameter
	// type) falls back to CN-side evaluation — the fragment is an
	// optimization, not a dependency. A pushed lookup join binds its own
	// fragment (outer scan + inner lookup fused); a bind failure there
	// falls back to the nested loop the same way.
	filter := p.x.filter
	var frag *fragment.Fragment
	lookupOn := false
	if strategy == joinLookup {
		if bf, bindErr := p.join.lookup.frag.Bind(p.params); bindErr == nil {
			frag = bf
			filter = p.x.lookupFilter
			lookupOn = true
		} else {
			strategy = joinNestLoop
		}
	}
	if !lookupOn && p.push != nil && !p.push.agg && !p.noPushdown {
		if bf, bindErr := p.push.frag.Bind(p.params); bindErr == nil {
			frag = bf
			filter = p.x.pushFilter
		}
	}

	// A limit is pushed all the way into the outer scan only when nothing
	// above it can drop, add or reorder rows. With the filter running
	// DN-side the limit budgets qualifying rows, so `WHERE pushed LIMIT k`
	// ships O(k) rows instead of scanning to the CN. A pushed lookup join
	// qualifies too: the cursor's budget counts joined rows as the data
	// nodes emit them, so LIMIT stops the outer cursor's page fetching
	// early exactly like the single-table case. Everything else still
	// benefits from streaming: the limit operator simply stops pulling.
	fetchLimit := 0
	pageHint := 0
	prefetch := 0
	if p.limit >= 0 && (p.inner == nil || lookupOn) && !p.grouped &&
		(len(p.orderBy) == 0 || orderDone) && !p.distinct {
		if filter == nil {
			fetchLimit = int(p.limit + p.offset)
		} else {
			// The LIMIT will terminate the scan early but cannot be pushed
			// into the cursor's row budget (a CN-side residual filter still
			// drops rows), so the cursor cannot know when the consumer will
			// stop. Cap the prefetch window to zero — fetch pages strictly
			// on demand — so early termination never pays the WAN for pages
			// nobody reads. Fully pushed limits (fetchLimit > 0) keep the
			// prefetcher: the cursor's own row budget stops it exactly.
			prefetch = -1
		}
		// Early termination will stop the scan after limit+offset output
		// rows; start with a page of about that size so a satisfied LIMIT
		// costs one small page instead of a full default page.
		pageHint = int(p.limit + p.offset)
		if pageHint < 16 {
			pageHint = 16
		}
	}
	if lookupOn {
		rows, err := openLookupRows(ctx, r, p, fetchLimit, pageHint, prefetch, frag)
		if err != nil {
			return nil, false, nil, err
		}
		it = &lookupJoinIter{rows: rows, totals: totals,
			outerW: len(p.tables[0].schema.Columns)}
	} else {
		scan, err := openScan(ctx, r, p.outer, &p.x.outer, nil, fetchLimit, pageHint, prefetch, frag, totals)
		if err != nil {
			return nil, false, nil, err
		}
		it = scan
		switch {
		case p.inner != nil && strategy == joinHash:
			it = &hashJoinIter{r: r, p: p, hj: p.join.hash, outer: it, totals: totals}
		case p.inner != nil:
			it = &nestedLoopIter{
				outer: it,
				openInner: func(outerRow table.Row) (blockIter, error) {
					// Inner lookups are opened per outer row, drained, and
					// closed immediately — there is no consumption to overlap a
					// prefetch with, so keep them on the synchronous path
					// rather than paying a goroutine + channel per outer row.
					return openScan(ctx, r, p.inner, &p.x.inner, outerRow, 0, 0, -1, nil, totals)
				},
			}
		}
	}
	if filter != nil {
		it = &filterIter{child: it, filter: filter, scr: p.rowScratch()}
	}
	if p.inner != nil {
		p.chosenJoin = strategy
	}
	return it, orderDone, totals, nil
}

// scanSatisfiesOrder reports whether the streaming outer scan already
// yields rows in the plan's ORDER BY order: single-table plans whose scan
// is a PK-prefix scan (key order within the shard) or a full scan (the
// cross-shard merge yields global primary-key order), with an ascending
// ORDER BY that follows the primary key — columns bound by the equality
// prefix are constant and may be skipped. When true, the sort is elided and
// LIMIT terminates the scan early.
func scanSatisfiesOrder(p *selectPlan) bool {
	if p.inner != nil || p.grouped || len(p.orderBy) == 0 {
		return false
	}
	s := p.outer
	sch := s.tab.schema
	var bound map[int]bool
	switch s.kind {
	case accessPoint:
		return true // at most one row
	case accessPKPrefix:
		bound = make(map[int]bool, len(s.keyExprs))
		for i := range s.keyExprs {
			bound[sch.PK[i]] = true
		}
	case accessFull:
	default:
		return false
	}
	pos := 0
	for _, o := range p.orderBy {
		if o.Desc {
			return false
		}
		cr, ok := o.Expr.(*ColRef)
		if !ok {
			return false
		}
		ti, ci, err := resolveCol(cr, p.tables)
		if err != nil || ti != 0 {
			return false
		}
		if bound[ci] {
			continue // constant under the equality prefix
		}
		for pos < len(sch.PK) && bound[sch.PK[pos]] {
			pos++
		}
		if pos >= len(sch.PK) || sch.PK[pos] != ci {
			return false
		}
		pos++
	}
	return true
}
