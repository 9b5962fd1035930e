package gsql

import (
	"strings"

	"globaldb/gsql/fragment"
	"globaldb/internal/table"
)

// This file is the planner half of GlobalDB's distributed execution split.
// planSelect calls analyzePushdown after choosing access paths; it rewrites
// one logical plan into a DN-partial phase (a serializable
// fragment.Fragment of filters, projections and partial aggregates that
// data nodes evaluate inside the paged scan RPC) and a CN-final phase (the
// residual filter, partial-state merge, HAVING, ORDER BY, DISTINCT,
// LIMIT/OFFSET). Anything it cannot prove pushable stays on the computing
// node, so the rewrite only ever narrows what crosses the WAN, never what
// the query means. Every outer scan but a point get takes the fragment; an
// index scan's data node runs it over the rows its index entries name.

// pushPlan records a SELECT's DN-partial phase.
type pushPlan struct {
	// frag is the fragment template; placeholders remain as OpParam nodes
	// and are bound per execution, so cached plans push down too.
	frag *fragment.Fragment
	// cnFilter is the residual filter evaluated on the CN when the
	// fragment is attached (the pushed conjuncts removed); nil when the
	// whole filter pushed down.
	cnFilter Expr
	// agg marks a DN-partial aggregation (CN merges states per group).
	agg bool
	// groupCols are the outer-schema positions of the GROUP BY columns
	// (agg only), used to rebuild representative rows from group keys.
	groupCols []int

	// describe-only fields (EXPLAIN).
	pushedExprs []Expr
	projected   []string
}

// analyzePushdown decides what part of the plan can run on data nodes.
// Pushdown applies to every outer scan but a point get, which ships one
// row anyway; an index scan's data node reads the rows its entries name
// and runs the fragment over them.
func analyzePushdown(p *selectPlan) *pushPlan {
	s := p.outer
	if s.kind == accessPoint {
		return nil
	}
	sch := s.tab.schema
	kinds := sch.Kinds()

	// Split the residual filter: conjuncts that lower against the outer
	// table alone run on the data nodes; the rest stay on the CN.
	outerOnly := &layout{tables: p.tables, scope: 1}
	var pushed []fragment.Expr
	var pushedSrc []Expr
	var residual []Expr
	for _, c := range conjuncts(p.filter) {
		if fe, err := lowerExpr(c, outerOnly); err == nil {
			pushed = append(pushed, fe)
			pushedSrc = append(pushedSrc, c)
		} else {
			residual = append(residual, c)
		}
	}

	pp := &pushPlan{
		frag:        &fragment.Fragment{Kinds: kinds, Filter: andAll(pushed)},
		cnFilter:    andAll2(residual),
		pushedExprs: pushedSrc,
	}

	if aggPush := analyzeAggPushdown(p, pp, residual); aggPush {
		return pp
	}

	// Row pushdown: a pushed filter and/or a projection must actually save
	// something, or the fragment is pure overhead.
	proj := projectionFor(p, pp.cnFilter, sch)
	if proj != nil {
		pp.frag.Project = proj
		for _, c := range proj {
			pp.projected = append(pp.projected, sch.Columns[c].Name)
		}
	}
	if pp.frag.Filter == nil && pp.frag.Project == nil {
		return nil
	}
	return pp
}

// analyzeAggPushdown upgrades the fragment to DN-partial aggregation when
// the whole plan qualifies: single table, fully pushed filter, plain
// column GROUP BY, and only mergeable aggregates; the data nodes then fold
// the very slot specs the CN folds when it aggregates itself. Float group
// columns are excluded: the CN groups by value (where -0 and +0 coincide)
// while group keys are ordered bytes (where they differ), and the two must
// agree.
func analyzeAggPushdown(p *selectPlan, pp *pushPlan, residual []Expr) bool {
	if !p.grouped || p.inner != nil || len(residual) > 0 {
		return false
	}
	sch := p.outer.tab.schema
	groupCols := make([]int, 0, len(p.groupBy))
	groupSet := map[int]bool{}
	for _, g := range p.groupBy {
		cr, ok := g.(*ColRef)
		if !ok {
			return false
		}
		ti, ci, err := resolveCol(cr, p.tables)
		if err != nil || ti != 0 {
			return false
		}
		if sch.Columns[ci].Kind == table.Float64 {
			return false
		}
		groupCols = append(groupCols, ci)
		groupSet[ci] = true
	}
	// DISTINCT aggregates have no mergeable partial state.
	for _, fn := range p.aggs {
		if fn.Distinct {
			return false
		}
	}
	// Everything evaluated after the merge — outputs, HAVING, ORDER BY —
	// may only touch group columns (reconstructable from the group key)
	// and aggregate slots (carried as states).
	for _, e := range p.outExprs {
		if !refsWithinGroup(e, p.tables, groupSet) {
			return false
		}
	}
	if p.having != nil && !refsWithinGroup(p.having, p.tables, groupSet) {
		return false
	}
	for _, o := range p.orderBy {
		if !refsWithinGroup(o.Expr, p.tables, groupSet) {
			return false
		}
	}
	pp.frag.GroupBy = groupCols
	pp.frag.Aggs = p.x.aggs
	pp.agg = true
	pp.groupCols = groupCols
	pp.cnFilter = nil
	return true
}

// refsWithinGroup reports whether every column reference in e (outside
// aggregate calls) names a group column of the outer table.
func refsWithinGroup(e Expr, tables []*boundTable, groupSet map[int]bool) bool {
	switch x := e.(type) {
	case nil, *Literal, *Placeholder:
		return true
	case *Star:
		return false
	case *ColRef:
		ti, ci, err := resolveCol(x, tables)
		return err == nil && ti == 0 && groupSet[ci]
	case *FuncExpr:
		if aggregateFuncs[x.Name] {
			return true // the aggregate's value comes from the merged state
		}
		for _, a := range x.Args {
			if !refsWithinGroup(a, tables, groupSet) {
				return false
			}
		}
		return true
	case *BinaryExpr:
		return refsWithinGroup(x.Left, tables, groupSet) && refsWithinGroup(x.Right, tables, groupSet)
	case *UnaryExpr:
		return refsWithinGroup(x.X, tables, groupSet)
	case *IsNullExpr:
		return refsWithinGroup(x.X, tables, groupSet)
	case *InExpr:
		if !refsWithinGroup(x.X, tables, groupSet) {
			return false
		}
		for _, it := range x.List {
			if !refsWithinGroup(it, tables, groupSet) {
				return false
			}
		}
		return true
	case *BetweenExpr:
		return refsWithinGroup(x.X, tables, groupSet) &&
			refsWithinGroup(x.Lo, tables, groupSet) && refsWithinGroup(x.Hi, tables, groupSet)
	default:
		return false
	}
}

// projectionFor computes the outer columns the CN still needs once the
// pushed conjuncts run DN-side. Returns nil when every column is needed
// (shipping full rows costs nothing extra).
func projectionFor(p *selectPlan, cnFilter Expr, sch *table.Schema) []int {
	needed := map[int]bool{}
	collect := func(e Expr) { collectOuterCols(e, p.tables, needed) }
	for _, e := range p.outExprs {
		collect(e)
	}
	collect(cnFilter)
	for _, o := range p.orderBy {
		collect(o.Expr)
	}
	collect(p.having)
	for _, g := range p.groupBy {
		collect(g)
	}
	if p.inner != nil {
		// Inner lookups bind outer columns in their key and range exprs.
		for _, e := range p.inner.keyExprs {
			collect(e)
		}
		collect(p.inner.rangeLo)
		collect(p.inner.rangeHi)
	}
	if len(needed) >= len(sch.Columns) {
		return nil
	}
	out := make([]int, 0, len(needed))
	for ci := range needed {
		out = append(out, ci)
	}
	// Schema order keeps the projected encoding deterministic.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	if len(out) == 0 {
		// Keep at least one column so shipped rows stay decodable (e.g.
		// SELECT COUNT(*) on the CN-side grouped path).
		out = append(out, 0)
	}
	return out
}

// collectOuterCols records outer-table column positions referenced by e.
func collectOuterCols(e Expr, tables []*boundTable, into map[int]bool) {
	switch x := e.(type) {
	case *ColRef:
		ti, ci, err := resolveCol(x, tables)
		if err == nil && ti == 0 {
			into[ci] = true
		}
	case *BinaryExpr:
		collectOuterCols(x.Left, tables, into)
		collectOuterCols(x.Right, tables, into)
	case *UnaryExpr:
		collectOuterCols(x.X, tables, into)
	case *IsNullExpr:
		collectOuterCols(x.X, tables, into)
	case *InExpr:
		collectOuterCols(x.X, tables, into)
		for _, it := range x.List {
			collectOuterCols(it, tables, into)
		}
	case *BetweenExpr:
		collectOuterCols(x.X, tables, into)
		collectOuterCols(x.Lo, tables, into)
		collectOuterCols(x.Hi, tables, into)
	case *FuncExpr:
		for _, a := range x.Args {
			collectOuterCols(a, tables, into)
		}
	}
}

// andAll folds lowered conjuncts into one fragment expression.
func andAll(conjs []fragment.Expr) *fragment.Expr {
	if len(conjs) == 0 {
		return nil
	}
	acc := conjs[0]
	for _, c := range conjs[1:] {
		acc = fragment.Expr{Op: fragment.OpAnd, Args: []fragment.Expr{acc, c}}
	}
	return &acc
}

// andAll2 folds gsql conjuncts back into one residual expression.
func andAll2(conjs []Expr) Expr {
	if len(conjs) == 0 {
		return nil
	}
	acc := conjs[0]
	for _, c := range conjs[1:] {
		acc = &BinaryExpr{Op: "AND", Left: acc, Right: c}
	}
	return acc
}

// describe renders the DN-partial / CN-final split for EXPLAIN.
func (pp *pushPlan) describe(p *selectPlan) []string {
	var out []string
	var dn []string
	if len(pp.pushedExprs) > 0 {
		parts := make([]string, len(pp.pushedExprs))
		for i, e := range pp.pushedExprs {
			parts[i] = e.String()
		}
		dn = append(dn, "filter "+strings.Join(parts, " AND "))
	}
	if pp.agg {
		parts := make([]string, len(p.aggs))
		for i, fn := range p.aggs {
			parts[i] = fn.String()
		}
		dn = append(dn, "partial-aggregate ["+strings.Join(parts, ", ")+"]")
		if len(p.groupBy) > 0 {
			gparts := make([]string, len(p.groupBy))
			for i, g := range p.groupBy {
				gparts[i] = g.String()
			}
			dn = append(dn, "group by ["+strings.Join(gparts, ", ")+"]")
		}
	} else if len(pp.projected) > 0 {
		dn = append(dn, "project ["+strings.Join(pp.projected, ", ")+"]")
	}
	out = append(out, "  dn-pushdown: "+strings.Join(dn, ", "))
	switch {
	case pp.agg:
		out = append(out, "  cn-final: merge partial aggregate states across shards")
	case pp.cnFilter != nil:
		out = append(out, "  cn-residual filter: "+pp.cnFilter.String())
	default:
		out = append(out, "  cn-residual filter: none")
	}
	return out
}
