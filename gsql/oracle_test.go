package gsql

import (
	"context"
	"fmt"

	"globaldb"
	"globaldb/gsql/fragment"
	"globaldb/internal/table"
)

// This file is the differential oracle: a materializing executor that
// drains every scan into a slice, then filters and joins row by row on the
// computing node with no pushed fragment, range or prefetch. It shares only
// the operators above the join with the SELECT pipeline (aggregate, HAVING,
// sort, and Rows.Next's projection, DISTINCT, OFFSET and LIMIT). The
// pipeline (execPlan, Session.Query, and the UPDATE/DELETE row search in
// matchingRows) must agree with it on every query.

// execPlan runs a bound SELECT on r through the one SELECT pipeline and
// drains its Rows: what Exec does once the read context is open.
func execPlan(ctx context.Context, r reader, p *boundPlan) (*Result, error) {
	it, totals, err := buildPipeline(ctx, r, p)
	if err != nil {
		return nil, err
	}
	return newRows(ctx, p, it, totals).result()
}

// execSelectMaterialized runs a planned SELECT the drain-everything way:
// every scan materializes before the next stage runs, and the sort always
// runs.
func execSelectMaterialized(ctx context.Context, r reader, p *boundPlan) (*Result, error) {
	rows, err := joinRows(ctx, r, p)
	if err != nil {
		return nil, err
	}
	it := p.aboveJoin(newRowsBlock(rows, len(p.tables)), false, false)
	return newRows(ctx, p, it, &scanTotals{}).result()
}

// joinRows produces the combined (outer[, inner]) rows passing the filter,
// materializing every scan.
func joinRows(ctx context.Context, r reader, p *boundPlan) ([][]table.Row, error) {
	// A limit can be pushed into the outer scan only when nothing after it
	// can drop or reorder rows.
	pushLimit := 0
	if p.limit >= 0 && p.filter == nil && p.inner == nil && !p.grouped &&
		len(p.orderBy) == 0 && !p.distinct && p.offset == 0 {
		pushLimit = int(p.limit)
	}
	outerRows, err := scanOne(ctx, r, p.outer, &p.x.outer, nil, pushLimit)
	if err != nil {
		return nil, err
	}
	scr := p.rowScratch()
	var combined [][]table.Row
	for _, orow := range outerRows {
		if p.inner == nil {
			ok, err := fragment.EvalCond(p.x.filter, orow)
			if err != nil {
				return nil, err
			}
			if ok {
				combined = append(combined, []table.Row{orow})
			}
			continue
		}
		innerRows, err := scanOne(ctx, r, p.inner, &p.x.inner, orow, 0)
		if err != nil {
			return nil, err
		}
		for _, irow := range innerRows {
			ok, err := fragment.EvalCond(p.x.filter, append(append(scr[:0], orow...), irow...))
			if err != nil {
				return nil, err
			}
			if ok {
				combined = append(combined, []table.Row{orow, irow})
			}
		}
	}
	return combined, nil
}

// scanOne executes one table scan by its access path's key alone — no range,
// no fragment — and drains it. outerRow, when non-nil, binds outer column
// references in the scan's key expressions (join inner lookups).
func scanOne(ctx context.Context, r reader, s *tableScan, se *scanExprs, outerRow table.Row, limit int) ([]table.Row, error) {
	keyVals, err := scanKey(s, se, outerRow)
	if err != nil {
		return nil, err
	}
	name := s.tab.schema.Name
	opts := globaldb.ScanOpts{Limit: limit}
	switch s.kind {
	case accessPoint:
		row, found, err := r.Get(ctx, name, keyVals)
		if err != nil || !found {
			return nil, err
		}
		return []table.Row{row}, nil
	case accessPKPrefix:
		return drain(r.ScanPKRows(ctx, name, keyVals, opts))
	case accessIndex:
		return drain(r.ScanIndexRows(ctx, name, s.index, keyVals, opts))
	case accessFull:
		return drain(r.ScanTableRows(ctx, name, opts))
	default:
		return nil, fmt.Errorf("gsql: unknown access kind %v", s.kind)
	}
}

// drain materializes a streaming scan.
func drain(rows *globaldb.Rows, err error) ([]table.Row, error) {
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []table.Row
	for rows.Next() {
		out = append(out, rows.Row())
	}
	return out, rows.Err()
}

// rowsBlock yields row-major combined rows as one block.
type rowsBlock struct {
	blk  rowBlock
	done bool
}

func newRowsBlock(rows [][]table.Row, ntabs int) *rowsBlock {
	b := &rowsBlock{done: len(rows) == 0}
	b.blk.tabs = make([][]table.Row, ntabs)
	for t := range b.blk.tabs {
		for _, r := range rows {
			b.blk.tabs[t] = append(b.blk.tabs[t], r[t])
		}
	}
	return b
}

func (b *rowsBlock) NextBlock(context.Context) (*rowBlock, error) {
	if b.done {
		return nil, nil
	}
	b.done = true
	return &b.blk, nil
}

func (b *rowsBlock) Close() {}
