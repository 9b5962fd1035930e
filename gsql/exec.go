package gsql

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"globaldb"
	"globaldb/gsql/fragment"
	"globaldb/internal/table"
)

// reader is the read surface shared by read-write transactions and
// read-only (replica) queries. Both globaldb.Tx and globaldb.Query
// implement it. The Rows variants stream pages on demand and are what the
// operator pipeline runs on; the materializing variants remain for the
// legacy drain path (kept as the differential-testing oracle and for
// UPDATE/DELETE row collection).
type reader interface {
	Get(ctx context.Context, tableName string, pkVals []any) (globaldb.Row, bool, error)
	ScanPKRows(ctx context.Context, tableName string, pkPrefix []any, o globaldb.ScanOpts) (*globaldb.Rows, error)
	ScanIndexRows(ctx context.Context, tableName, indexName string, prefix []any, o globaldb.ScanOpts) (*globaldb.Rows, error)
	ScanTableRows(ctx context.Context, tableName string, o globaldb.ScanOpts) (*globaldb.Rows, error)
	ScanPK(ctx context.Context, tableName string, pkPrefix []any, limit int) ([]globaldb.Row, error)
	ScanIndex(ctx context.Context, tableName, indexName string, prefix []any, limit int) ([]globaldb.Row, error)
	ScanTable(ctx context.Context, tableName string, limit int) ([]globaldb.Row, error)
}

var (
	_ reader = (*globaldb.Tx)(nil)
	_ reader = (*globaldb.Query)(nil)
)

// rowEnv is the evaluation environment for one combined row (one row per
// FROM table; the inner row is nil while planning inner lookups) plus the
// statement's bound parameter values.
type rowEnv struct {
	tables []*boundTable
	rows   []table.Row
	params []any
}

func (e *rowEnv) colValue(ref *ColRef) (any, error) {
	ti, ci, err := resolveCol(ref, e.tables)
	if err != nil {
		return nil, err
	}
	if ti >= len(e.rows) || e.rows[ti] == nil {
		return nil, fmt.Errorf("gsql: column %s references a row that is not bound yet", ref)
	}
	return e.rows[ti][ci], nil
}

func (e *rowEnv) paramValue(idx int) (any, error) {
	if idx < 1 || idx > len(e.params) {
		return nil, fmt.Errorf("gsql: statement references parameter $%d but %d were bound", idx, len(e.params))
	}
	return e.params[idx-1], nil
}

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
	env := &rowEnv{tables: p.tables, params: p.params}
	opts := globaldb.ScanOpts{Range: scanRange(s, env), Pushdown: bf}
	var rows *globaldb.Rows
	switch s.kind {
	case accessFull:
		rows, err = r.ScanTableRows(ctx, sch.Name, opts)
	case accessPKPrefix:
		keyVals, keyErr := scanKey(s, env)
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
	var groups []finishedGroup
	for rows.Next() {
		row := rows.Row()
		if len(row) != ngroup+len(p.aggs) {
			return nil, true, fmt.Errorf("gsql: partial aggregate row has %d values, want %d", len(row), ngroup+len(p.aggs))
		}
		// Rebuild a representative row from the group key so group-column
		// references in outputs, HAVING and ORDER BY resolve.
		rep := make(table.Row, len(sch.Columns))
		for i, ci := range pp.groupCols {
			rep[ci] = row[i]
		}
		vals := make(map[string]any, len(p.aggs))
		for i := range p.aggs {
			st, isState := row[ngroup+i].(fragment.AggState)
			if !isState {
				return nil, true, fmt.Errorf("gsql: partial aggregate slot %d holds %T", i, row[ngroup+i])
			}
			vals[p.aggKeys[i]] = st.Final(pp.frag.Aggs[i].Kind)
		}
		groups = append(groups, finishedGroup{rep: []table.Row{rep}, vals: vals})
	}
	if err := rows.Err(); err != nil {
		return nil, true, err
	}
	// A global aggregate over zero rows still yields one output row, with
	// the same empty-state results as CN-side aggregation.
	if len(groups) == 0 && len(p.groupBy) == 0 {
		vals := make(map[string]any, len(p.aggs))
		for i, fn := range p.aggs {
			vals[p.aggKeys[i]] = newAggState(fn).result()
		}
		groups = append(groups, finishedGroup{rep: nil, vals: vals})
	}
	res, err = finishAggGroups(p, groups)
	if err != nil {
		return nil, true, err
	}
	res.Scan = rows.ScanStats()
	return res, true, nil
}

// execSelectMaterialized is the legacy drain-everything path: every scan
// materializes before the next stage runs. It is retained as the oracle the
// differential tests compare the streaming pipeline against.
func execSelectMaterialized(ctx context.Context, r reader, p *boundPlan) (*Result, error) {
	rows, err := joinRows(ctx, r, p)
	if err != nil {
		return nil, err
	}
	return finishSelect(ctx, p, newSliceBlocks(rows, len(p.tables)), false)
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
	env := rowEnv{tables: p.tables, params: p.params}
	var scr [2]table.Row
	// ORDER BY: with a LIMIT (and no DISTINCT, which dedups after the
	// sort), keep only the top limit+offset rows in a bounded heap —
	// O(N log k) comparisons and O(k) memory instead of materializing and
	// fully sorting the input. Otherwise drain, then sort on
	// pre-projection keys. limit+offset >= 0 rejects sentinel-huge limits
	// whose sum overflows (MaxInt64 LIMITs are a common "no limit"
	// idiom); those take the drain path, which never sums them.
	if p.limit >= 0 && !p.distinct && p.limit+p.offset >= 0 {
		top := newTopN(p.orderBy, p.limit+p.offset)
		for {
			blk, err := it.NextBlock(ctx)
			if err != nil {
				return nil, err
			}
			if blk == nil {
				break
			}
			for i, n := 0, blk.n(); i < n; i++ {
				env.rows = blk.row(i, scr[:])
				keys, admit, err := top.tryAdmitKeys(&env)
				if err != nil {
					return nil, err
				}
				if !admit {
					continue
				}
				outRow, err := projectEnv(p, &env)
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
			env.rows = blk.row(i, scr[:])
			outRow, err := projectEnv(p, &env)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, outRow)
			keys := make([]any, len(p.orderBy))
			for i, o := range p.orderBy {
				v, err := evalExpr(o.Expr, &env)
				if err != nil {
					return nil, err
				}
				keys[i] = v
			}
			sortKeys = append(sortKeys, keys)
		}
	}
	if err := sortAndLimit(p, out, sortKeys); err != nil {
		return nil, err
	}
	return out, nil
}

// projectEnv evaluates the output expressions over the environment's
// current combined row. The environment is reused across rows; only the
// output row is freshly allocated (it outlives the pipeline in the
// Result).
func projectEnv(p *boundPlan, env *rowEnv) ([]any, error) {
	outRow := make([]any, len(p.outExprs))
	for i, e := range p.outExprs {
		v, err := evalExpr(e, env)
		if err != nil {
			return nil, err
		}
		outRow[i] = v
	}
	return outRow, nil
}

// joinRows produces the combined (outer[, inner]) rows passing the filter,
// materializing every scan — the legacy path (differential oracle, and row
// collection for UPDATE/DELETE which must materialize before writing).
func joinRows(ctx context.Context, r reader, p *boundPlan) ([][]table.Row, error) {
	// A limit can be pushed into the outer scan only when nothing after it
	// can drop or reorder rows.
	pushLimit := 0
	if p.limit >= 0 && p.filter == nil && p.inner == nil && !p.grouped &&
		len(p.orderBy) == 0 && !p.distinct && p.offset == 0 {
		pushLimit = int(p.limit)
	}
	outerRows, err := scanOne(ctx, r, p, p.outer, nil, pushLimit)
	if err != nil {
		return nil, err
	}
	var combined [][]table.Row
	for _, orow := range outerRows {
		if p.inner == nil {
			cr := []table.Row{orow}
			ok, err := passes(p.filter, p.tables, cr, p.params)
			if err != nil {
				return nil, err
			}
			if ok {
				combined = append(combined, cr)
			}
			continue
		}
		innerRows, err := scanOne(ctx, r, p, p.inner, orow, 0)
		if err != nil {
			return nil, err
		}
		for _, irow := range innerRows {
			cr := []table.Row{orow, irow}
			ok, err := passes(p.filter, p.tables, cr, p.params)
			if err != nil {
				return nil, err
			}
			if ok {
				combined = append(combined, cr)
			}
		}
	}
	return combined, nil
}

func passes(filter Expr, tables []*boundTable, rows []table.Row, params []any) (bool, error) {
	if filter == nil {
		return true, nil
	}
	v, err := evalExpr(filter, &rowEnv{tables: tables, rows: rows, params: params})
	if err != nil {
		return false, err
	}
	return truthy(v)
}

// scanOne executes one table scan. outerRow, when non-nil, binds outer
// column references in the scan's key expressions (join inner lookups).
func scanOne(ctx context.Context, r reader, p *boundPlan, s *tableScan, outerRow table.Row, limit int) ([]table.Row, error) {
	env := &rowEnv{tables: p.tables, params: p.params}
	if outerRow != nil {
		env.rows = []table.Row{outerRow}
	}
	keyVals, err := scanKey(s, env)
	if err != nil {
		return nil, err
	}
	name := s.tab.schema.Name
	switch s.kind {
	case accessPoint:
		row, found, err := r.Get(ctx, name, keyVals)
		if err != nil || !found {
			return nil, err
		}
		return []table.Row{row}, nil
	case accessPKPrefix:
		return r.ScanPK(ctx, name, keyVals, limit)
	case accessIndex:
		return r.ScanIndex(ctx, name, s.index, keyVals, limit)
	case accessFull:
		return r.ScanTable(ctx, name, limit)
	default:
		return nil, fmt.Errorf("gsql: unknown access kind %v", s.kind)
	}
}

func findIndex(sch *table.Schema, name string) (table.Index, error) {
	for _, ix := range sch.Indexes {
		if ix.Name == name {
			return ix, nil
		}
	}
	return table.Index{}, fmt.Errorf("gsql: table %s has no index %q", sch.Name, name)
}

// scanKey evaluates a scan's key expressions under env and coerces each value
// to the kind of the key column it binds (int64 literals bind to DOUBLE
// columns, etc.): the leading primary-key columns for point and PK-prefix
// access, the leading index columns for index access. A full scan has no key.
func scanKey(s *tableScan, env *rowEnv) ([]any, error) {
	sch := s.tab.schema
	cols := sch.PK
	if s.kind == accessIndex {
		ix, err := findIndex(sch, s.index)
		if err != nil {
			return nil, err
		}
		cols = ix.Cols
	}
	keyVals := make([]any, len(s.keyExprs))
	for i, e := range s.keyExprs {
		v, err := evalExpr(e, env)
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
	if v == nil {
		return nil, nil
	}
	kind := sch.Columns[col].Kind
	switch kind {
	case table.Int64:
		if x, ok := v.(int64); ok {
			return x, nil
		}
		if f, ok := v.(float64); ok && f == float64(int64(f)) {
			return int64(f), nil
		}
	case table.Float64:
		if x, ok := v.(float64); ok {
			return x, nil
		}
		if x, ok := v.(int64); ok {
			return float64(x), nil
		}
	case table.String:
		if x, ok := v.(string); ok {
			return x, nil
		}
	case table.Bytes:
		if x, ok := v.([]byte); ok {
			return x, nil
		}
		if x, ok := v.(string); ok {
			return []byte(x), nil
		}
	case table.Bool:
		if x, ok := v.(bool); ok {
			return x, nil
		}
	}
	return nil, fmt.Errorf("%w: %T for %s column %s", ErrType, v, kind, sch.Columns[col].Name)
}

// ---- Aggregation ----

// aggState accumulates one aggregate function over a group.
type aggState struct {
	fn       *FuncExpr
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max any
	distinct map[string]bool
}

func newAggState(fn *FuncExpr) *aggState {
	st := &aggState{fn: fn}
	if fn.Distinct {
		st.distinct = make(map[string]bool)
	}
	return st
}

func (st *aggState) add(env evalEnv) error {
	if len(st.fn.Args) == 1 {
		if _, isStar := st.fn.Args[0].(*Star); isStar {
			if st.fn.Name != "COUNT" {
				return fmt.Errorf("gsql: %s(*) is not valid", st.fn.Name)
			}
			st.count++
			return nil
		}
	}
	if len(st.fn.Args) != 1 {
		return fmt.Errorf("gsql: %s takes one argument", st.fn.Name)
	}
	v, err := evalExpr(st.fn.Args[0], env)
	if err != nil {
		return err
	}
	if v == nil {
		return nil // SQL aggregates skip NULLs
	}
	if st.distinct != nil {
		key := fmt.Sprintf("%T:%v", v, v)
		if st.distinct[key] {
			return nil
		}
		st.distinct[key] = true
	}
	st.count++
	switch st.fn.Name {
	case "COUNT":
		return nil
	case "SUM", "AVG":
		switch x := v.(type) {
		case int64:
			st.sumI += x
			st.sumF += float64(x)
		case float64:
			st.isFloat = true
			st.sumF += x
		default:
			return fmt.Errorf("%w: %s(%T)", ErrType, st.fn.Name, v)
		}
		return nil
	case "MIN":
		if st.min == nil {
			st.min = v
			return nil
		}
		c, err := compare(v, st.min)
		if err != nil {
			return err
		}
		if c < 0 {
			st.min = v
		}
		return nil
	case "MAX":
		if st.max == nil {
			st.max = v
			return nil
		}
		c, err := compare(v, st.max)
		if err != nil {
			return err
		}
		if c > 0 {
			st.max = v
		}
		return nil
	default:
		return fmt.Errorf("gsql: unknown aggregate %q", st.fn.Name)
	}
}

func (st *aggState) result() any {
	switch st.fn.Name {
	case "COUNT":
		return st.count
	case "SUM":
		if st.count == 0 {
			return nil
		}
		if st.isFloat {
			return st.sumF
		}
		return st.sumI
	case "AVG":
		if st.count == 0 {
			return nil
		}
		return st.sumF / float64(st.count)
	case "MIN":
		return st.min
	case "MAX":
		return st.max
	default:
		return nil
	}
}

// aggEnv evaluates final expressions with aggregate slots substituted and
// group keys resolvable through a representative row.
type aggEnv struct {
	base *rowEnv
	vals map[string]any // FuncExpr.String() -> aggregate result
}

func (e *aggEnv) colValue(ref *ColRef) (any, error) { return e.base.colValue(ref) }
func (e *aggEnv) paramValue(idx int) (any, error)   { return e.base.paramValue(idx) }

// evalWithAggs evaluates e, substituting aggregate results.
func evalWithAggs(e Expr, env *aggEnv) (any, error) {
	if f, ok := e.(*FuncExpr); ok && aggregateFuncs[f.Name] {
		v, ok := env.vals[f.String()]
		if !ok {
			return nil, fmt.Errorf("gsql: aggregate %s has no computed slot", f)
		}
		return v, nil
	}
	switch x := e.(type) {
	case *BinaryExpr:
		if x.Op == "AND" || x.Op == "OR" {
			// Rebuild with substituted children; cheap and correct.
			lv, err := evalWithAggs(x.Left, env)
			if err != nil {
				return nil, err
			}
			rv, err := evalWithAggs(x.Right, env)
			if err != nil {
				return nil, err
			}
			return evalBinary(&BinaryExpr{Op: x.Op, Left: &Literal{Val: lv}, Right: &Literal{Val: rv}}, env)
		}
		lv, err := evalWithAggs(x.Left, env)
		if err != nil {
			return nil, err
		}
		rv, err := evalWithAggs(x.Right, env)
		if err != nil {
			return nil, err
		}
		return evalBinary(&BinaryExpr{Op: x.Op, Left: &Literal{Val: lv}, Right: &Literal{Val: rv}}, env)
	case *UnaryExpr:
		v, err := evalWithAggs(x.X, env)
		if err != nil {
			return nil, err
		}
		return evalExpr(&UnaryExpr{Op: x.Op, X: &Literal{Val: v}}, env)
	case *IsNullExpr:
		v, err := evalWithAggs(x.X, env)
		if err != nil {
			return nil, err
		}
		return (v == nil) != x.Neg, nil
	default:
		return evalExpr(e, env)
	}
}

// finishedGroup is one group ready for the CN-final phase: a
// representative row for group-key references and the computed aggregate
// values keyed by the aggregate call's text. Both the CN-side aggregation
// and the DN-partial merge path converge on this shape, so HAVING, output
// evaluation, ORDER BY and LIMIT are shared verbatim between them.
type finishedGroup struct {
	rep  []table.Row
	vals map[string]any
}

// aggregateRows groups the combined-row block stream and computes
// aggregate outputs — the CN-side aggregation path. The hash probe is a
// true row edge: each block's rows feed the group map one at a time
// through a reused environment, but the pipeline below still moves whole
// blocks. Aggregation is a pipeline breaker — it consumes the stream to
// the end — but still holds only per-group state, never the input rows
// (each group retains one cloned representative row).
func aggregateRows(ctx context.Context, p *boundPlan, it blockIter) (*Result, error) {
	type group struct {
		rep    []table.Row // representative row for group-key evaluation
		states []*aggState
	}
	groups := map[string]*group{}
	var order []string

	env := rowEnv{tables: p.tables, params: p.params}
	var scr [2]table.Row
	keyVals := make([]any, len(p.groupBy))
	for {
		blk, err := it.NextBlock(ctx)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			break
		}
		for i, n := 0, blk.n(); i < n; i++ {
			env.rows = blk.row(i, scr[:])
			for gi, g := range p.groupBy {
				v, err := evalExpr(g, &env)
				if err != nil {
					return nil, err
				}
				keyVals[gi] = v
			}
			key := distinctKey(keyVals)
			grp, ok := groups[key]
			if !ok {
				grp = &group{rep: append([]table.Row(nil), env.rows...)}
				for _, fn := range p.aggs {
					grp.states = append(grp.states, newAggState(fn))
				}
				groups[key] = grp
				order = append(order, key)
			}
			for _, st := range grp.states {
				if err := st.add(&env); err != nil {
					return nil, err
				}
			}
		}
	}

	// A global aggregate over zero rows still yields one output row.
	if len(groups) == 0 && len(p.groupBy) == 0 {
		grp := &group{rep: nil}
		for _, fn := range p.aggs {
			grp.states = append(grp.states, newAggState(fn))
		}
		groups[""] = grp
		order = append(order, "")
	}

	finished := make([]finishedGroup, 0, len(order))
	for _, key := range order {
		grp := groups[key]
		vals := make(map[string]any, len(grp.states))
		for i, st := range grp.states {
			vals[p.aggKeys[i]] = st.result()
		}
		finished = append(finished, finishedGroup{rep: grp.rep, vals: vals})
	}
	return finishAggGroups(p, finished)
}

// finishAggGroups runs the CN-final phase over computed groups: HAVING,
// output expressions with aggregate slots substituted, ORDER BY keys, then
// sort/DISTINCT/OFFSET/LIMIT.
func finishAggGroups(p *boundPlan, groups []finishedGroup) (*Result, error) {
	out := &Result{Columns: p.outCols}
	var sortKeys [][]any
	for _, grp := range groups {
		env := &aggEnv{base: &rowEnv{tables: p.tables, rows: grp.rep, params: p.params}, vals: grp.vals}
		if p.having != nil {
			hv, err := evalWithAggs(p.having, env)
			if err != nil {
				return nil, err
			}
			ok, err := truthy(hv)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		outRow := make([]any, len(p.outExprs))
		for i, e := range p.outExprs {
			v, err := evalWithAggs(e, env)
			if err != nil {
				return nil, err
			}
			outRow[i] = v
		}
		out.Rows = append(out.Rows, outRow)
		if len(p.orderBy) > 0 {
			keys := make([]any, len(p.orderBy))
			for i, o := range p.orderBy {
				v, err := evalWithAggs(o.Expr, env)
				if err != nil {
					return nil, err
				}
				keys[i] = v
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
		kept := res.Rows[:0]
		for _, row := range res.Rows {
			key := distinctKey(row)
			if seen[key] {
				continue
			}
			seen[key] = true
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

// distinctKey builds a collision-free dedup key for DISTINCT rows and
// GROUP BY tuples: each value is type-tagged (so NULL never merges with
// the text "<nil>") and length-prefixed (so no embedded byte in a TEXT
// value can shift tuple boundaries and make distinct tuples collide).
func distinctKey(row []any) string {
	var sb strings.Builder
	for _, v := range row {
		part := fmt.Sprintf("%T:%v", v, v)
		fmt.Fprintf(&sb, "%d:%s;", len(part), part)
	}
	return sb.String()
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
	return compare(a, b)
}
