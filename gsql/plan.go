package gsql

import (
	"fmt"
	"strings"

	"globaldb/internal/table"
)

// accessKind is the access path a table scan uses.
type accessKind uint8

const (
	// accessPoint is a primary-key point lookup (all PK columns bound).
	accessPoint accessKind = iota + 1
	// accessPKPrefix is a single-shard scan over a PK prefix.
	accessPKPrefix
	// accessIndex is a single-shard secondary-index prefix scan.
	accessIndex
	// accessFull is an all-shard full table scan.
	accessFull
)

func (k accessKind) String() string {
	switch k {
	case accessPoint:
		return "point-get"
	case accessPKPrefix:
		return "pk-prefix-scan"
	case accessIndex:
		return "index-scan"
	case accessFull:
		return "full-scan"
	default:
		return fmt.Sprintf("accessKind(%d)", uint8(k))
	}
}

// boundTable is one FROM table resolved against the catalog.
type boundTable struct {
	ref    TableRef
	schema *table.Schema
}

// tableScan is the plan for reading one table.
type tableScan struct {
	tab  *boundTable
	kind accessKind
	// keyExprs are the expressions bound to the leading key columns (the
	// full PK for accessPoint, a PK prefix for accessPKPrefix, an index
	// prefix for accessIndex). For the inner side of a join they may
	// reference outer columns.
	keyExprs []Expr
	// index is the chosen index for accessIndex.
	index string
	// rangeCol is the column position (in the table's schema) the pushed
	// range bounds apply to: the first key column after the bound equality
	// prefix. -1 when no range is pushed. The bounds stay in the residual
	// filter too, so dropping them at execution time is always safe.
	rangeCol         int
	rangeLo, rangeHi Expr
	loExcl, hiExcl   bool
}

func (s *tableScan) describe() string {
	var sb strings.Builder
	sb.WriteString(s.kind.String())
	sb.WriteString(" on ")
	sb.WriteString(s.tab.schema.Name)
	if s.index != "" {
		sb.WriteString(" via index " + s.index)
	}
	if len(s.keyExprs) > 0 {
		parts := make([]string, len(s.keyExprs))
		for i, e := range s.keyExprs {
			parts[i] = e.String()
		}
		sb.WriteString(" [" + strings.Join(parts, ", ") + "]")
	}
	if s.rangeLo != nil || s.rangeHi != nil {
		col := s.tab.schema.Columns[s.rangeCol].Name
		var parts []string
		if s.rangeLo != nil {
			op := ">="
			if s.loExcl {
				op = ">"
			}
			parts = append(parts, col+" "+op+" "+s.rangeLo.String())
		}
		if s.rangeHi != nil {
			op := "<="
			if s.hiExcl {
				op = "<"
			}
			parts = append(parts, col+" "+op+" "+s.rangeHi.String())
		}
		sb.WriteString(" range (" + strings.Join(parts, ", ") + ")")
	}
	return sb.String()
}

// selectPlan is a fully planned SELECT.
type selectPlan struct {
	stmt   *Select
	tables []*boundTable // FROM order: [outer] or [outer, inner]
	outer  *tableScan
	inner  *tableScan // nil unless joined
	// filter is the residual predicate: WHERE for single-table plans,
	// WHERE AND ON for joins. Evaluated against the combined row.
	filter Expr

	// Output shape.
	outCols  []string // output column names
	outExprs []Expr   // one per output column (aggregates allowed)

	// Aggregation.
	grouped     bool
	aggs        []*FuncExpr // unique aggregate calls, in slot order
	aggDistinct []bool      // per slot: fold each distinct argument value once
	groupBy     []Expr
	having      Expr
	orderBy     []OrderItem
	limit       int64
	offset      int64
	distinct    bool

	// push is the DN-partial execution phase, when any part of the plan
	// can run on data nodes (see pushdown.go); nil otherwise. Execution
	// falls back to pure CN-side evaluation when disabled or when binding
	// fails, so push is an optimization, never a semantic dependency.
	push *pushPlan

	// join is the join-strategy analysis for two-table plans (see
	// join.go): which physical strategies beyond nested-loop this plan can
	// execute with, precompiled. nil when only nested-loop applies.
	join *joinPlan

	// x holds every expression above lowered to the evaluator's form (see
	// expr.go); width is the number of columns in the combined row.
	x     planExprs
	width int
}

// readsOnce reports whether the plan's whole storage access is one point get
// on one table: the one r.Get of openScan. Such a plan may run at a snapshot
// that is valid for one read only (beginAutocommit).
func (p *selectPlan) readsOnce() bool {
	return p.inner == nil && p.outer.kind == accessPoint
}

// describe renders the plan for EXPLAIN.
func (p *selectPlan) describe() []string {
	out := []string{"select"}
	if p.grouped {
		out = append(out, fmt.Sprintf("  aggregate: %d functions, %d group keys", len(p.aggs), len(p.groupBy)))
	}
	out = append(out, "  outer: "+p.outer.describe())
	if p.inner != nil {
		if p.join == nil {
			out = append(out, "  inner (nested-loop join): "+p.inner.describe())
		} else {
			out = append(out, "  inner: "+p.inner.describe())
			out = append(out, p.join.describe(p)...)
		}
	}
	if p.filter != nil {
		out = append(out, "  filter: "+p.filter.String())
	}
	if p.push != nil {
		out = append(out, p.push.describe(p)...)
	}
	if len(p.orderBy) > 0 {
		parts := make([]string, len(p.orderBy))
		for i, o := range p.orderBy {
			parts[i] = o.Expr.String()
			if o.Desc {
				parts[i] += " DESC"
			}
		}
		out = append(out, "  order by: "+strings.Join(parts, ", "))
	}
	if p.limit >= 0 {
		out = append(out, fmt.Sprintf("  limit: %d", p.limit))
	}
	if p.offset > 0 {
		out = append(out, fmt.Sprintf("  offset: %d", p.offset))
	}
	if p.distinct {
		out = append(out, "  distinct")
	}
	return out
}

// boundPlan is one execution of a selectPlan: the immutable plan plus the
// parameter values bound for this run and the LIMIT/OFFSET resolved from
// any placeholder. Planning happens once per statement text; binding
// happens per execution, which is what lets prepared statements skip the
// parser and planner entirely on the hot path.
type boundPlan struct {
	*selectPlan
	params []any
	// x shadows the plan's lowered expressions with this execution's
	// parameter values bound.
	x      planExprs
	limit  int64
	offset int64
	// noPushdown forces CN-side evaluation for this execution (session
	// toggle and the pushdown-vs-CN differential tests).
	noPushdown bool
	// joinMode is the session's SET JOIN strategy request for this
	// execution (joinAuto lets resolveJoin decide from estimates).
	joinMode joinStrategy
	// rowEst, when non-nil, gives a table's approximate row count for AUTO
	// strategy selection. Advisory only.
	rowEst interface{ RowEstimate(tableName string) int64 }
	// chosenJoin records the strategy buildPipeline actually wired, so
	// results and traces can report it.
	chosenJoin joinStrategy
}

// bind attaches one execution's parameter values to a plan. The plan is
// not modified, so it can be rebound with fresh values on every call.
func (p *selectPlan) bind(params []any) (*boundPlan, error) {
	bp := &boundPlan{selectPlan: p, params: params, limit: p.limit, offset: p.offset}
	var err error
	if bp.x, err = p.x.bind(params); err != nil {
		return nil, err
	}
	if e := p.stmt.LimitExpr; e != nil {
		n, err := resolveCount(e, params, "LIMIT")
		if err != nil {
			return nil, err
		}
		bp.limit = n
	}
	if e := p.stmt.OffsetExpr; e != nil {
		n, err := resolveCount(e, params, "OFFSET")
		if err != nil {
			return nil, err
		}
		bp.offset = n
	}
	return bp, nil
}

// resolveCount evaluates a parameterized LIMIT/OFFSET to a non-negative
// count.
func resolveCount(e Expr, params []any, what string) (int64, error) {
	v, err := evalConst(e, params)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("%w: %s must bind a BIGINT, got %T", ErrType, what, v)
	}
	if n < 0 {
		return 0, fmt.Errorf("gsql: negative %s %d", what, n)
	}
	return n, nil
}

// catalog abstracts schema lookup for planning.
type catalog interface {
	Schema(name string) (*table.Schema, error)
}

// planSelect resolves and plans a SELECT statement.
func planSelect(cat catalog, sel *Select) (*selectPlan, error) {
	outerSchema, err := cat.Schema(sel.From.Table)
	if err != nil {
		return nil, err
	}
	tables := []*boundTable{{ref: sel.From, schema: outerSchema}}
	if sel.Join != nil {
		innerSchema, err := cat.Schema(sel.Join.Table)
		if err != nil {
			return nil, err
		}
		if sel.Join.refName() == sel.From.refName() {
			return nil, fmt.Errorf("gsql: duplicate table name %q in FROM; use aliases", sel.Join.refName())
		}
		tables = append(tables, &boundTable{ref: *sel.Join, schema: innerSchema})
	}

	p := &selectPlan{
		stmt: sel, tables: tables, orderBy: sel.OrderBy,
		limit: sel.Limit, offset: sel.Offset, distinct: sel.Distinct,
		having: sel.Having,
	}

	// Check all column references resolve.
	for _, it := range sel.Items {
		if _, ok := it.Expr.(*Star); ok {
			continue
		}
		if err := checkRefs(it.Expr, tables); err != nil {
			return nil, err
		}
	}
	conjs := conjuncts(sel.Where)
	if sel.On != nil {
		conjs = append(conjs, conjuncts(sel.On)...)
	}
	for _, c := range conjs {
		if err := checkRefs(c, tables); err != nil {
			return nil, err
		}
	}
	for _, g := range sel.GroupBy {
		if err := checkRefs(g, tables); err != nil {
			return nil, err
		}
	}
	for _, o := range sel.OrderBy {
		// ORDER BY may also name a select alias; rewrite it first.
		rewritten := rewriteAlias(o.Expr, sel.Items)
		if err := checkRefs(rewritten, tables); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := checkRefs(sel.Having, tables); err != nil {
			return nil, err
		}
	}

	// Residual filter: WHERE (plus ON for joins).
	p.filter = sel.Where
	if sel.On != nil {
		if p.filter == nil {
			p.filter = sel.On
		} else {
			p.filter = &BinaryExpr{Op: "AND", Left: p.filter, Right: sel.On}
		}
	}

	// Access paths. The outer table binds only conjuncts whose value side
	// is constant; the inner may bind outer column references too.
	p.outer = chooseAccess(tables[0], conjs, tables, nil)
	if len(tables) == 2 {
		p.inner = chooseAccess(tables[1], conjs, tables, tables[0])
	}

	// Output columns.
	if err := p.buildOutputs(); err != nil {
		return nil, err
	}
	// Rewrite ORDER BY aliases after outputs are known.
	for i := range p.orderBy {
		p.orderBy[i].Expr = rewriteAlias(p.orderBy[i].Expr, sel.Items)
	}

	// Aggregation analysis.
	p.groupBy = sel.GroupBy
	for _, e := range p.outExprs {
		if isAggregate(e) {
			p.grouped = true
		}
	}
	if sel.Having != nil && isAggregate(sel.Having) {
		p.grouped = true
	}
	if len(sel.GroupBy) > 0 {
		p.grouped = true
	}
	if p.grouped {
		seen := map[string]bool{}
		collect := func(e Expr) {
			for _, f := range collectAggs(e) {
				if k := f.String(); !seen[k] {
					seen[k] = true
					p.aggs = append(p.aggs, f)
				}
			}
		}
		for _, e := range p.outExprs {
			collect(e)
		}
		if sel.Having != nil {
			collect(sel.Having)
		}
		for _, o := range p.orderBy {
			collect(o.Expr)
		}
		// Non-aggregate outputs must be group-by expressions.
		if err := p.checkGrouping(); err != nil {
			return nil, err
		}
		if err := p.lowerAggs(); err != nil {
			return nil, err
		}
	}

	// Split the plan into DN-partial and CN-final phases where possible.
	p.push = analyzePushdown(p)
	// Decide which physical join strategies the plan can execute with.
	p.join = analyzeJoin(p)
	if err := p.lower(); err != nil {
		return nil, err
	}
	return p, nil
}

// buildOutputs expands stars and names output columns.
func (p *selectPlan) buildOutputs() error {
	for _, it := range p.stmt.Items {
		if _, ok := it.Expr.(*Star); ok {
			for _, bt := range p.tables {
				for ci, col := range bt.schema.Columns {
					_ = ci
					p.outCols = append(p.outCols, col.Name)
					p.outExprs = append(p.outExprs, &ColRef{Table: bt.ref.refName(), Name: col.Name})
				}
			}
			continue
		}
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*ColRef); ok {
				name = cr.Name
			} else {
				name = it.Expr.String()
			}
		}
		p.outCols = append(p.outCols, name)
		p.outExprs = append(p.outExprs, it.Expr)
	}
	if len(p.outExprs) == 0 {
		return fmt.Errorf("gsql: empty select list")
	}
	return nil
}

// checkGrouping verifies that every non-aggregate output expression appears
// in GROUP BY (by textual equality, the usual SQL shortcut).
func (p *selectPlan) checkGrouping() error {
	groupKeys := map[string]bool{}
	for _, g := range p.groupBy {
		groupKeys[g.String()] = true
	}
	for i, e := range p.outExprs {
		if isAggregate(e) {
			continue
		}
		if _, ok := e.(*Literal); ok {
			continue
		}
		if !groupKeys[e.String()] {
			if len(p.groupBy) == 0 {
				return fmt.Errorf("gsql: column %q must appear in GROUP BY or inside an aggregate", p.outCols[i])
			}
			return fmt.Errorf("gsql: output %q is neither aggregated nor grouped", p.outCols[i])
		}
	}
	return nil
}

// collectAggs gathers aggregate calls in an expression tree.
func collectAggs(e Expr) []*FuncExpr {
	var out []*FuncExpr
	switch x := e.(type) {
	case *FuncExpr:
		if aggregateFuncs[x.Name] {
			out = append(out, x)
			return out
		}
		for _, a := range x.Args {
			out = append(out, collectAggs(a)...)
		}
	case *BinaryExpr:
		out = append(out, collectAggs(x.Left)...)
		out = append(out, collectAggs(x.Right)...)
	case *UnaryExpr:
		out = append(out, collectAggs(x.X)...)
	case *IsNullExpr:
		out = append(out, collectAggs(x.X)...)
	case *InExpr:
		out = append(out, collectAggs(x.X)...)
		for _, it := range x.List {
			out = append(out, collectAggs(it)...)
		}
	case *BetweenExpr:
		out = append(out, collectAggs(x.X)...)
		out = append(out, collectAggs(x.Lo)...)
		out = append(out, collectAggs(x.Hi)...)
	}
	return out
}

// rewriteAlias substitutes select-item aliases in ORDER BY expressions.
func rewriteAlias(e Expr, items []SelectItem) Expr {
	cr, ok := e.(*ColRef)
	if !ok || cr.Table != "" {
		return e
	}
	for _, it := range items {
		if it.Alias == cr.Name {
			return it.Expr
		}
	}
	return e
}

// conjuncts splits an expression on AND.
func conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(conjuncts(b.Left), conjuncts(b.Right)...)
	}
	return []Expr{e}
}

// checkRefs verifies every column reference in e resolves unambiguously.
func checkRefs(e Expr, tables []*boundTable) error {
	switch x := e.(type) {
	case *ColRef:
		_, _, err := resolveCol(x, tables)
		return err
	case *Literal, *Placeholder, *Star, nil:
		return nil
	case *BinaryExpr:
		if err := checkRefs(x.Left, tables); err != nil {
			return err
		}
		return checkRefs(x.Right, tables)
	case *UnaryExpr:
		return checkRefs(x.X, tables)
	case *IsNullExpr:
		return checkRefs(x.X, tables)
	case *InExpr:
		if err := checkRefs(x.X, tables); err != nil {
			return err
		}
		for _, it := range x.List {
			if err := checkRefs(it, tables); err != nil {
				return err
			}
		}
		return nil
	case *BetweenExpr:
		if err := checkRefs(x.X, tables); err != nil {
			return err
		}
		if err := checkRefs(x.Lo, tables); err != nil {
			return err
		}
		return checkRefs(x.Hi, tables)
	case *FuncExpr:
		for _, a := range x.Args {
			if _, ok := a.(*Star); ok {
				continue
			}
			if err := checkRefs(a, tables); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("gsql: cannot analyze %T", e)
	}
}

// resolveCol finds the table and column positions of a reference.
func resolveCol(ref *ColRef, tables []*boundTable) (tab, col int, err error) {
	if ref.Table != "" {
		for ti, bt := range tables {
			if bt.ref.refName() == ref.Table {
				ci := bt.schema.ColIndex(ref.Name)
				if ci < 0 {
					return 0, 0, fmt.Errorf("gsql: table %s has no column %q", bt.ref.refName(), ref.Name)
				}
				return ti, ci, nil
			}
		}
		return 0, 0, fmt.Errorf("gsql: unknown table %q", ref.Table)
	}
	found := -1
	foundCol := -1
	for ti, bt := range tables {
		ci := bt.schema.ColIndex(ref.Name)
		if ci < 0 {
			continue
		}
		if found >= 0 {
			return 0, 0, fmt.Errorf("gsql: ambiguous column %q", ref.Name)
		}
		found, foundCol = ti, ci
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("gsql: unknown column %q", ref.Name)
	}
	return found, foundCol, nil
}

// refsOnly reports whether e references columns only from the given tables
// (by index into the resolution set).
func refsOnly(e Expr, tables []*boundTable, allowed map[int]bool) bool {
	ok := true
	var walk func(Expr)
	walk = func(e Expr) {
		if !ok || e == nil {
			return
		}
		switch x := e.(type) {
		case *ColRef:
			ti, _, err := resolveCol(x, tables)
			if err != nil || !allowed[ti] {
				ok = false
			}
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *UnaryExpr:
			walk(x.X)
		case *IsNullExpr:
			walk(x.X)
		case *InExpr:
			walk(x.X)
			for _, it := range x.List {
				walk(it)
			}
		case *BetweenExpr:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *FuncExpr:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return ok
}

// extractEq pulls equality bindings for target from the conjunct list.
// outer, when non-nil, allows the value side to reference the outer table
// (join lookups); otherwise the value side must be constant.
func extractEq(target *boundTable, targetIdx int, conjs []Expr, tables []*boundTable, outer *boundTable) map[int]Expr {
	allowed := map[int]bool{}
	if outer != nil {
		for ti, bt := range tables {
			if bt == outer {
				allowed[ti] = true
			}
		}
	}
	out := map[int]Expr{}
	for _, c := range conjs {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		for _, side := range [2][2]Expr{{b.Left, b.Right}, {b.Right, b.Left}} {
			colSide, valSide := side[0], side[1]
			cr, ok := colSide.(*ColRef)
			if !ok {
				continue
			}
			ti, ci, err := resolveCol(cr, tables)
			if err != nil || ti != targetIdx {
				continue
			}
			// The value side must not reference the target table itself.
			if !refsOnly(valSide, tables, allowed) {
				continue
			}
			if _, dup := out[ci]; !dup {
				out[ci] = valSide
			}
			break
		}
	}
	return out
}

// chooseAccess picks the cheapest access path for one table given the
// equality bindings available, then pushes any residual range on the next
// key column into the scan's bounds.
func chooseAccess(bt *boundTable, conjs []Expr, tables []*boundTable, outer *boundTable) *tableScan {
	targetIdx := -1
	for ti, t := range tables {
		if t == bt {
			targetIdx = ti
		}
	}
	eq := extractEq(bt, targetIdx, conjs, tables, outer)
	sch := bt.schema
	scan := func() *tableScan {
		// Point get: every PK column bound.
		if len(eq) > 0 {
			full := true
			keyExprs := make([]Expr, 0, len(sch.PK))
			for _, pkCol := range sch.PK {
				e, ok := eq[pkCol]
				if !ok {
					full = false
					break
				}
				keyExprs = append(keyExprs, e)
			}
			if full {
				return &tableScan{tab: bt, kind: accessPoint, keyExprs: keyExprs, rangeCol: -1}
			}
		}

		// PK prefix: leading PK columns bound, covering the distribution
		// column.
		pkPrefix := prefixBound(sch.PK, eq)
		pkCovers := coversShard(sch, sch.PK, pkPrefix)
		if pkPrefix > 0 && pkCovers {
			keyExprs := make([]Expr, pkPrefix)
			for i := 0; i < pkPrefix; i++ {
				keyExprs[i] = eq[sch.PK[i]]
			}
			pkScan := &tableScan{tab: bt, kind: accessPKPrefix, keyExprs: keyExprs, rangeCol: -1}
			if pkPrefix < len(sch.PK) {
				pkScan.rangeCol = sch.PK[pkPrefix]
			}
			// Prefer the longest usable index prefix if it binds more columns.
			if name, cols := bestIndex(sch, eq, pkPrefix); name != "" {
				return indexScanOf(bt, name, cols, eq)
			}
			return pkScan
		}

		// Secondary index with a usable (shard-covering) prefix.
		if name, cols := bestIndex(sch, eq, 0); name != "" {
			return indexScanOf(bt, name, cols, eq)
		}

		// Full scan: a range on the leading PK column still narrows every
		// shard's key range.
		return &tableScan{tab: bt, kind: accessFull, rangeCol: sch.PK[0]}
	}()
	if scan.rangeCol >= 0 {
		attachRange(scan, targetIdx, conjs, tables, outer)
	}
	return scan
}

func indexScanOf(bt *boundTable, name string, cols []int, eq map[int]Expr) *tableScan {
	keyExprs := make([]Expr, len(cols))
	for i, c := range cols {
		keyExprs[i] = eq[c]
	}
	s := &tableScan{tab: bt, kind: accessIndex, index: name, keyExprs: keyExprs, rangeCol: -1}
	for _, ix := range bt.schema.Indexes {
		if ix.Name == name && len(cols) < len(ix.Cols) {
			s.rangeCol = ix.Cols[len(cols)]
		}
	}
	return s
}

// attachRange extracts comparison conjuncts on scan.rangeCol whose value
// side is constant (or, for join inners, references only the outer table)
// and records them as pushed scan bounds. The conjuncts stay in the
// residual filter, so this is purely an access-path narrowing.
func attachRange(scan *tableScan, targetIdx int, conjs []Expr, tables []*boundTable, outer *boundTable) {
	allowed := map[int]bool{}
	if outer != nil {
		for ti, bt := range tables {
			if bt == outer {
				allowed[ti] = true
			}
		}
	}
	isRangeCol := func(e Expr) bool {
		cr, ok := e.(*ColRef)
		if !ok {
			return false
		}
		ti, ci, err := resolveCol(cr, tables)
		return err == nil && ti == targetIdx && ci == scan.rangeCol
	}
	setLo := func(e Expr, excl bool) {
		if scan.rangeLo == nil {
			scan.rangeLo, scan.loExcl = e, excl
		}
	}
	setHi := func(e Expr, excl bool) {
		if scan.rangeHi == nil {
			scan.rangeHi, scan.hiExcl = e, excl
		}
	}
	for _, c := range conjs {
		switch x := c.(type) {
		case *BinaryExpr:
			var op string
			var val Expr
			switch {
			case isRangeCol(x.Left) && refsOnly(x.Right, tables, allowed):
				op, val = x.Op, x.Right
			case isRangeCol(x.Right) && refsOnly(x.Left, tables, allowed):
				// Mirror the comparison so the column is on the left.
				val = x.Left
				switch x.Op {
				case "<":
					op = ">"
				case "<=":
					op = ">="
				case ">":
					op = "<"
				case ">=":
					op = "<="
				default:
					op = ""
				}
			}
			switch op {
			case ">":
				setLo(val, true)
			case ">=":
				setLo(val, false)
			case "<":
				setHi(val, true)
			case "<=":
				setHi(val, false)
			}
		case *BetweenExpr:
			if !x.Neg && isRangeCol(x.X) &&
				refsOnly(x.Lo, tables, allowed) && refsOnly(x.Hi, tables, allowed) {
				setLo(x.Lo, false)
				setHi(x.Hi, false)
			}
		}
	}
}

// prefixBound counts how many leading columns of key are bound in eq.
func prefixBound(key []int, eq map[int]Expr) int {
	n := 0
	for _, c := range key {
		if _, ok := eq[c]; !ok {
			break
		}
		n++
	}
	return n
}

// coversShard reports whether the first n key columns include the
// distribution column (required for a single-shard scan).
func coversShard(sch *table.Schema, key []int, n int) bool {
	for i := 0; i < n && i < len(key); i++ {
		if key[i] == sch.ShardBy {
			return true
		}
	}
	return false
}

// bestIndex finds the index with the longest shard-covering bound prefix
// strictly longer than minLen. Returns its name and the bound column
// positions.
func bestIndex(sch *table.Schema, eq map[int]Expr, minLen int) (string, []int) {
	bestLen := minLen
	bestName := ""
	var bestCols []int
	for _, ix := range sch.Indexes {
		n := prefixBound(ix.Cols, eq)
		if n > bestLen && coversShard(sch, ix.Cols, n) {
			bestLen = n
			bestName = ix.Name
			bestCols = append([]int(nil), ix.Cols[:n]...)
		}
	}
	return bestName, bestCols
}
