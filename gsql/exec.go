package gsql

import (
	"context"
	"fmt"
	"sort"

	"globaldb"
	"globaldb/gsql/fragment"
	"globaldb/internal/keys"
	"globaldb/internal/table"
)

// reader is the read surface shared by read-write transactions and
// read-only (replica) queries. Both globaldb.Tx and globaldb.Query
// implement it. Point gets and the streaming scans, which pull pages on
// demand, are all the operator pipeline runs on — for SELECT and for the
// UPDATE/DELETE row search alike.
type reader interface {
	Get(ctx context.Context, tableName string, pkVals []any) (globaldb.Row, bool, error)
	ScanPKRows(ctx context.Context, tableName string, pkPrefix []any, o globaldb.ScanOpts) (*globaldb.Rows, error)
	ScanIndexRows(ctx context.Context, tableName, indexName string, prefix []any, o globaldb.ScanOpts) (*globaldb.Rows, error)
	ScanTableRows(ctx context.Context, tableName string, o globaldb.ScanOpts) (*globaldb.Rows, error)
}

var (
	_ reader = (*globaldb.Tx)(nil)
	_ reader = (*globaldb.Query)(nil)
)

// execSelect runs a planned SELECT against a reader. Plans with a pushed
// aggregation run DN-partial/CN-final: data nodes fold matching rows into
// per-group partial states and the CN merges them. Everything else runs
// through the streaming operator pipeline (scan, with any pushed filter
// and projection evaluated on the data nodes -> join -> residual filter ->
// project/aggregate/sort/limit). Orderings and aggregates drain the
// pipeline; everything else streams and terminates the scans early once
// LIMIT is satisfied.
func execSelect(ctx context.Context, r reader, p *boundPlan) (*Result, error) {
	if p.push != nil && p.push.agg && !p.noPushdown {
		res, ok, err := execPushedAgg(ctx, r, p)
		if err != nil {
			return nil, err
		}
		if ok {
			return res, nil
		}
	}
	it, orderDone, totals, err := buildPipeline(ctx, r, p)
	if err != nil {
		return nil, err
	}
	res, err := finishSelect(ctx, p, it, orderDone)
	it.Close()
	if err != nil {
		return nil, err
	}
	res.Scan = totals.s
	if p.inner != nil {
		res.JoinStrategy = p.chosenJoin.String()
	}
	return res, nil
}

// execPushedAgg runs a grouped SELECT with DN-partial aggregation: each
// shard ships one pre-merged partial state row per group, the coordinator
// merge combines equal groups across shards, and this function finalizes
// the states into SQL aggregate values, then applies HAVING, output
// expressions, ORDER BY and LIMIT exactly as CN-side aggregation would.
// ok=false means the fragment could not be bound for this execution and
// the caller should fall back to the CN-side path.
func execPushedAgg(ctx context.Context, r reader, p *boundPlan) (res *Result, ok bool, err error) {
	pp := p.push
	bf, err := pp.frag.Bind(p.params)
	if err != nil {
		return nil, false, nil
	}
	s := p.outer
	sch := s.tab.schema
	opts := globaldb.ScanOpts{Range: scanRange(s, &p.x.outer, nil), Pushdown: bf}
	var rows *globaldb.Rows
	switch s.kind {
	case accessFull:
		rows, err = r.ScanTableRows(ctx, sch.Name, opts)
	case accessPKPrefix:
		keyVals, keyErr := scanKey(s, &p.x.outer, nil)
		if keyErr != nil {
			return nil, true, keyErr
		}
		rows, err = r.ScanPKRows(ctx, sch.Name, keyVals, opts)
	default:
		return nil, false, nil
	}
	if err != nil {
		return nil, true, err
	}
	defer rows.Close()

	ngroup := len(pp.groupCols)
	states := make([]fragment.AggState, len(p.x.aggs))
	var groups [][]any
	for rows.Next() {
		row := rows.Row()
		if len(row) != ngroup+len(states) {
			return nil, true, fmt.Errorf("gsql: partial aggregate row has %d values, want %d", len(row), ngroup+len(states))
		}
		for i := range states {
			st, isState := row[ngroup+i].(fragment.AggState)
			if !isState {
				return nil, true, fmt.Errorf("gsql: partial aggregate slot %d holds %T", i, row[ngroup+i])
			}
			states[i] = st
		}
		// The group row carries the group-key values at their columns, so
		// group-column references in outputs, HAVING and ORDER BY resolve.
		g := p.groupRow(nil, states)
		for i, ci := range pp.groupCols {
			g[ci] = row[i]
		}
		groups = append(groups, g)
	}
	if err := rows.Err(); err != nil {
		return nil, true, err
	}
	// A global aggregate over zero rows still yields one output row, with
	// the same empty-state results as CN-side aggregation.
	if len(groups) == 0 && len(p.groupBy) == 0 {
		groups = append(groups, p.groupRow(nil, make([]fragment.AggState, len(p.x.aggs))))
	}
	res, err = finishAggGroups(p, groups)
	if err != nil {
		return nil, true, err
	}
	res.Scan = rows.ScanStats()
	return res, true, nil
}

// finishSelect consumes the combined-row block stream and produces the
// result: aggregation or projection, then ordering, DISTINCT, OFFSET and
// LIMIT. When there is no ORDER BY — or orderDone says the stream already
// arrives in ORDER BY order (order-preserving scan) — the non-grouped path
// streams and stops pulling as soon as the limit is met: the early
// termination that makes LIMIT k cost O(k·page) rows end to end. ORDER BY
// with a LIMIT keeps only a bounded top-N heap instead of draining and
// sorting the whole input.
func finishSelect(ctx context.Context, p *boundPlan, it blockIter, orderDone bool) (*Result, error) {
	if p.grouped {
		return aggregateRows(ctx, p, it)
	}
	out := &Result{Columns: p.outCols}
	if len(p.orderBy) == 0 || orderDone {
		// Rows.Next is the one DISTINCT/OFFSET/LIMIT streaming loop; drain it.
		rows := newStreamRows(ctx, p, it)
		for rows.Next() {
			out.Rows = append(out.Rows, rows.Row())
		}
		if err := rows.Err(); err != nil {
			return nil, err
		}
		return out, nil
	}
	scr := p.rowScratch()
	// ORDER BY: with a LIMIT (and no DISTINCT, which dedups after the
	// sort), keep only the top limit+offset rows in a bounded heap —
	// O(N log k) comparisons and O(k) memory instead of materializing and
	// fully sorting the input. Otherwise drain, then sort on
	// pre-projection keys. limit+offset >= 0 rejects sentinel-huge limits
	// whose sum overflows (MaxInt64 LIMITs are a common "no limit"
	// idiom); those take the drain path, which never sums them.
	if p.limit >= 0 && !p.distinct && p.limit+p.offset >= 0 {
		top := newTopN(p.orderBy, p.x.orderBy, p.limit+p.offset)
		for {
			blk, err := it.NextBlock(ctx)
			if err != nil {
				return nil, err
			}
			if blk == nil {
				break
			}
			for i, n := 0, blk.n(); i < n; i++ {
				row := blk.flat(i, scr)
				keys, admit, err := top.tryAdmitKeys(row)
				if err != nil {
					return nil, err
				}
				if !admit {
					continue
				}
				outRow, err := project(p, row)
				if err != nil {
					return nil, err
				}
				if err := top.add(outRow, keys); err != nil {
					return nil, err
				}
			}
		}
		rows, err := top.sorted()
		if err != nil {
			return nil, err
		}
		if p.offset > 0 {
			if int64(len(rows)) <= p.offset {
				rows = nil
			} else {
				rows = rows[p.offset:]
			}
		}
		out.Rows = rows
		return out, nil
	}
	var sortKeys [][]any
	for {
		blk, err := it.NextBlock(ctx)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			break
		}
		for i, n := 0, blk.n(); i < n; i++ {
			row := blk.flat(i, scr)
			outRow, err := project(p, row)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, outRow)
			keys := make([]any, len(p.x.orderBy))
			if err := evalInto(p.x.orderBy, row, keys); err != nil {
				return nil, err
			}
			sortKeys = append(sortKeys, keys)
		}
	}
	if err := sortAndLimit(p, out, sortKeys); err != nil {
		return nil, err
	}
	return out, nil
}

// project evaluates the output expressions over one combined (or group)
// row. Only the output row is allocated: it outlives the pipeline in the
// Result.
func project(p *boundPlan, row []any) ([]any, error) {
	outRow := make([]any, len(p.x.out))
	if err := evalInto(p.x.out, row, outRow); err != nil {
		return nil, err
	}
	return outRow, nil
}

func findIndex(sch *table.Schema, name string) (table.Index, error) {
	for _, ix := range sch.Indexes {
		if ix.Name == name {
			return ix, nil
		}
	}
	return table.Index{}, fmt.Errorf("gsql: table %s has no index %q", sch.Name, name)
}

// scanKey evaluates a scan's key expressions over the outer row (nil
// outside a join's inner lookups) and coerces each value to the kind of the
// key column it binds (int64 literals bind to DOUBLE columns, etc.): the
// leading primary-key columns for point and PK-prefix access, the leading
// index columns for index access. A full scan has no key.
func scanKey(s *tableScan, se *scanExprs, outerRow []any) ([]any, error) {
	sch := s.tab.schema
	cols := sch.PK
	if s.kind == accessIndex {
		ix, err := findIndex(sch, s.index)
		if err != nil {
			return nil, err
		}
		cols = ix.Cols
	}
	keyVals := make([]any, len(se.key))
	for i := range se.key {
		v, err := fragment.Eval(&se.key[i], outerRow)
		if err != nil {
			return nil, err
		}
		if keyVals[i], err = coerceValue(sch, cols[i], v); err != nil {
			return nil, err
		}
	}
	return keyVals, nil
}

// coerceValue converts v to the kind of the schema column, or fails.
func coerceValue(sch *table.Schema, col int, v any) (any, error) {
	kind := sch.Columns[col].Kind
	cv, err := fragment.CoerceKey(kind, v)
	if err != nil {
		return nil, fmt.Errorf("%w: %T for %s column %s", ErrType, v, kind, sch.Columns[col].Name)
	}
	return cv, nil
}

// ---- Aggregation ----

// groupRow builds the row a group's HAVING, outputs and ORDER BY keys are
// evaluated over: a representative combined row (nil: all NULL), then each
// aggregate slot's final value.
func (p *boundPlan) groupRow(rep []any, states []fragment.AggState) []any {
	row := make([]any, p.width+len(states))
	copy(row, rep)
	for i, spec := range p.x.aggs {
		row[p.width+i] = states[i].Final(spec.Kind)
	}
	return row
}

// aggregateRows groups the combined-row block stream and computes
// aggregate outputs — the CN-side aggregation path. It folds the same slot
// specs into the same fragment.AggState a data node folds when the
// aggregation is pushed down, so pushing it changes where it runs, never
// what it computes. The hash probe is a true row edge, one row at a time;
// aggregation is a pipeline breaker that holds per-group state only (each
// group keeps one representative row), never the input rows.
func aggregateRows(ctx context.Context, p *boundPlan, it blockIter) (*Result, error) {
	type group struct {
		rep    []any
		states []fragment.AggState
		seen   []map[string]bool // per DISTINCT slot: argument values folded
	}
	index := map[string]*group{}
	var groups []*group
	newGroup := func(rep []any) *group {
		g := &group{rep: append([]any(nil), rep...), states: make([]fragment.AggState, len(p.x.aggs))}
		groups = append(groups, g)
		return g
	}
	scr := p.rowScratch()
	keyVals := make([]any, len(p.x.groupBy))
	var keyEnc, argEnc keys.Encoder
	for {
		blk, err := it.NextBlock(ctx)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			break
		}
		for i, n := 0, blk.n(); i < n; i++ {
			row := blk.flat(i, scr)
			if err := evalInto(p.x.groupBy, row, keyVals); err != nil {
				return nil, err
			}
			key, err := distinctKey(&keyEnc, keyVals)
			if err != nil {
				return nil, err
			}
			g := index[string(key)]
			if g == nil {
				g = newGroup(row)
				index[string(key)] = g
			}
			for si, spec := range p.x.aggs {
				if !p.aggDistinct[si] {
					if err := g.states[si].Accumulate(spec, row); err != nil {
						return nil, err
					}
					continue
				}
				v, err := fragment.Eval(spec.Arg, row)
				if err != nil {
					return nil, err
				}
				if v == nil {
					continue // SQL aggregates skip NULLs
				}
				vkey, err := distinctKey(&argEnc, []any{v})
				if err != nil {
					return nil, err
				}
				if g.seen == nil {
					g.seen = make([]map[string]bool, len(p.x.aggs))
				}
				if g.seen[si] == nil {
					g.seen[si] = map[string]bool{}
				}
				if g.seen[si][string(vkey)] {
					continue
				}
				g.seen[si][string(vkey)] = true
				if err := g.states[si].Fold(spec.Kind, v); err != nil {
					return nil, err
				}
			}
		}
	}

	// A global aggregate over zero rows still yields one output row.
	if len(groups) == 0 && len(p.groupBy) == 0 {
		newGroup(nil)
	}
	rows := make([][]any, len(groups))
	for i, g := range groups {
		rows[i] = p.groupRow(g.rep, g.states)
	}
	return finishAggGroups(p, rows)
}

// finishAggGroups runs the CN-final phase over group rows: HAVING, output
// expressions and ORDER BY keys over each group row, then
// sort/DISTINCT/OFFSET/LIMIT. The CN-side aggregation and the DN-partial
// merge path both end here.
func finishAggGroups(p *boundPlan, groups [][]any) (*Result, error) {
	out := &Result{Columns: p.outCols}
	var sortKeys [][]any
	for _, g := range groups {
		ok, err := fragment.EvalCond(p.x.having, g)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		outRow, err := project(p, g)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, outRow)
		if len(p.x.orderBy) > 0 {
			keys := make([]any, len(p.x.orderBy))
			if err := evalInto(p.x.orderBy, g, keys); err != nil {
				return nil, err
			}
			sortKeys = append(sortKeys, keys)
		}
	}
	if err := sortAndLimit(p, out, sortKeys); err != nil {
		return nil, err
	}
	return out, nil
}

// sortAndLimit orders result rows by the pre-computed sort keys (one key
// vector per row, evaluated on the pre-projection rows so ORDER BY may
// reference any column) and applies LIMIT.
func sortAndLimit(p *boundPlan, res *Result, sortKeys [][]any) error {
	if len(p.orderBy) > 0 && len(res.Rows) > 1 {
		idx := make([]int, len(res.Rows))
		for i := range idx {
			idx[i] = i
		}
		var sortErr error
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := sortKeys[idx[a]], sortKeys[idx[b]]
			for i, o := range p.orderBy {
				c, err := compareNullable(ka[i], kb[i])
				if err != nil && sortErr == nil {
					sortErr = err
				}
				if c == 0 {
					continue
				}
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		if sortErr != nil {
			return sortErr
		}
		sorted := make([][]any, len(res.Rows))
		for i, j := range idx {
			sorted[i] = res.Rows[j]
		}
		res.Rows = sorted
	}
	if p.distinct {
		seen := make(map[string]bool, len(res.Rows))
		var enc keys.Encoder
		kept := res.Rows[:0]
		for _, row := range res.Rows {
			key, err := distinctKey(&enc, row)
			if err != nil {
				return err
			}
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			kept = append(kept, row)
		}
		res.Rows = kept
	}
	if p.offset > 0 {
		if int64(len(res.Rows)) <= p.offset {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[p.offset:]
		}
	}
	if p.limit >= 0 && int64(len(res.Rows)) > p.limit {
		res.Rows = res.Rows[:p.limit]
	}
	return nil
}

// distinctKey encodes a tuple for DISTINCT, GROUP BY and the value sets of
// DISTINCT aggregates with the memcomparable key encoding data nodes group
// by and the hash join keys on. Each value is type-tagged (NULL never
// merges with a TEXT value, BIGINT 1 never with DOUBLE 1.0, -0.0 never with
// 0.0) and self-delimiting (no byte inside a TEXT value can shift tuple
// boundaries). The key aliases enc's buffer until enc's next use.
func distinctKey(enc *keys.Encoder, row []any) ([]byte, error) {
	enc.Reset()
	for _, v := range row {
		if err := fragment.AppendKeyValue(enc, v); err != nil {
			return nil, err
		}
	}
	return enc.Bytes(), nil
}

// compareNullable orders values with NULLs first.
func compareNullable(a, b any) (int, error) {
	switch {
	case a == nil && b == nil:
		return 0, nil
	case a == nil:
		return -1, nil
	case b == nil:
		return 1, nil
	}
	return fragment.Compare(a, b)
}
