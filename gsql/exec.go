package gsql

import (
	"context"
	"fmt"

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
func (p *boundPlan) groupRow(rep []any, states []fragment.AggState) table.Row {
	row := make(table.Row, p.width+len(states))
	copy(row, rep)
	for i, spec := range p.x.aggs {
		row[p.width+i] = states[i].Final(spec.Kind)
	}
	return row
}

// aggregateIter is CN-side aggregation: on its first NextBlock it drains
// the combined-row stream below it into groups and yields one single-table
// block of group rows, the input HAVING, the sort and Rows.Next evaluate
// over.
type aggregateIter struct {
	child blockIter
	p     *boundPlan
	done  bool
	blk   rowBlock
	tabs  [1][]table.Row
}

func (a *aggregateIter) NextBlock(ctx context.Context) (*rowBlock, error) {
	if a.done {
		return nil, nil
	}
	a.done = true
	groups, err := aggregateRows(ctx, a.p, a.child)
	if err != nil || len(groups) == 0 {
		return nil, err
	}
	a.tabs[0] = groups
	a.blk.tabs = a.tabs[:]
	return &a.blk, nil
}

func (a *aggregateIter) Close() { a.child.Close() }

// aggregateRows groups the combined-row block stream and returns one group
// row per group, in first-arrival order. It folds the same slot specs into
// the same fragment.AggState a data node folds when the aggregation is
// pushed down, so pushing it changes where it runs, never what it
// computes. The hash probe is a true row edge, one row at a time; the
// aggregation holds per-group state only (each group keeps one
// representative row), never the input rows.
func aggregateRows(ctx context.Context, p *boundPlan, it blockIter) ([]table.Row, error) {
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
	rows := make([]table.Row, len(groups))
	for i, g := range groups {
		rows[i] = p.groupRow(g.rep, g.states)
	}
	return rows, nil
}

// pushedAggIter is the source of a pushed aggregation: it reads the scan
// carrying the bound DN-partial aggregate fragment, where each shard ships
// one pre-merged partial state row per group and the coordinator merge
// combines equal groups across shards, and turns each partial row into the
// group row CN-side aggregation would have produced.
type pushedAggIter struct {
	child  blockIter
	p      *boundPlan
	states []fragment.AggState
	groups []table.Row
	gotRow bool // a partial row arrived
	done   bool
	blk    rowBlock
	tabs   [1][]table.Row
}

func (a *pushedAggIter) NextBlock(ctx context.Context) (*rowBlock, error) {
	if a.done {
		return nil, nil
	}
	p := a.p
	if a.states == nil {
		a.states = make([]fragment.AggState, len(p.x.aggs))
	}
	groups := a.groups[:0]
	blk, err := a.child.NextBlock(ctx)
	switch {
	case err != nil:
		return nil, err
	case blk == nil:
		a.done = true
		if a.gotRow || len(p.groupBy) > 0 {
			return nil, nil
		}
		// A global aggregate over zero rows still yields one output row,
		// with the same empty-state results as CN-side aggregation.
		groups = append(groups, p.groupRow(nil, a.states))
	default:
		a.gotRow = true
		ngroup := len(p.push.groupCols)
		for _, row := range blk.tabs[0] {
			if len(row) != ngroup+len(a.states) {
				return nil, fmt.Errorf("gsql: partial aggregate row has %d values, want %d", len(row), ngroup+len(a.states))
			}
			for i := range a.states {
				st, isState := row[ngroup+i].(fragment.AggState)
				if !isState {
					return nil, fmt.Errorf("gsql: partial aggregate slot %d holds %T", i, row[ngroup+i])
				}
				a.states[i] = st
			}
			// The group row carries the group-key values at their columns,
			// so group-column references in outputs, HAVING and ORDER BY
			// resolve.
			g := p.groupRow(nil, a.states)
			for i, ci := range p.push.groupCols {
				g[ci] = row[i]
			}
			groups = append(groups, g)
		}
	}
	a.groups = groups
	a.tabs[0] = groups
	a.blk.tabs = a.tabs[:]
	return &a.blk, nil
}

func (a *pushedAggIter) Close() { a.child.Close() }

// distinctKey encodes a tuple for DISTINCT, GROUP BY and the value sets of
// DISTINCT aggregates with the memcomparable key encoding data nodes group
// by and the hash join keys on. Each value is type-tagged (NULL never
// merges with a TEXT value, BIGINT 1 never with DOUBLE 1.0, -0.0 never with
// 0.0) and self-delimiting (no byte inside a TEXT value can shift tuple
// boundaries). The key aliases enc's buffer until enc's next use.
func distinctKey(enc *keys.Encoder, row []any) ([]byte, error) {
	enc.Reset()
	for _, v := range row {
		if err := table.AppendValue(enc, v); err != nil {
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
