package gsql

import (
	"fmt"

	"globaldb/gsql/fragment"
)

// This file lowers gsql's AST to fragment.Expr, the one expression form the
// system evaluates. planSelect lowers every expression of a plan once, over
// a flat row layout — the outer table's columns, then the inner table's,
// then one slot per aggregate call once rows are grouped — and from then on
// the computing node evaluates the lowered trees with fragment.Eval and
// folds aggregates into fragment.AggState: the kernel data nodes run on
// pushed fragments. The fragments a data node runs are lowered by the same
// function over the outer table alone, so a predicate means the same thing
// wherever it is evaluated. Placeholders lower to OpParam nodes that are
// bound per execution, which is what keeps cached plans reusable.

// ErrType is returned when an expression combines incompatible values. It
// is the evaluator's sentinel, so errors.Is works wherever the expression
// ran.
var ErrType = fragment.ErrType

// layout maps column references and aggregate calls to positions in the
// flat row a lowered expression is evaluated over.
type layout struct {
	tables []*boundTable
	// scope is how many leading FROM tables may be referenced: 1 for the
	// outer table alone (data-node fragments, and the inner side's lookup
	// keys, which bind outer columns), len(tables) for the combined row.
	scope int
	// aggs maps an aggregate call's text to its slot. Slots follow the
	// combined row's columns; nil means aggregates are not in scope.
	aggs map[string]int
}

// offset returns the position of FROM table ti's first column.
func (l *layout) offset(ti int) int {
	n := 0
	for _, bt := range l.tables[:ti] {
		n += len(bt.schema.Columns)
	}
	return n
}

// width returns the number of columns in the combined row.
func (l *layout) width() int { return l.offset(len(l.tables)) }

var binaryOps = map[string]fragment.Op{
	"=": fragment.OpEq, "<>": fragment.OpNe,
	"<": fragment.OpLt, "<=": fragment.OpLe,
	">": fragment.OpGt, ">=": fragment.OpGe,
	"AND": fragment.OpAnd, "OR": fragment.OpOr,
	"+": fragment.OpAdd, "-": fragment.OpSub, "*": fragment.OpMul,
	"/": fragment.OpDiv, "%": fragment.OpMod,
	"LIKE": fragment.OpLike,
}

var scalarOps = map[string]fragment.Op{
	"ABS": fragment.OpAbs, "LOWER": fragment.OpLower, "UPPER": fragment.OpUpper,
	"LENGTH": fragment.OpLength, "COALESCE": fragment.OpCoalesce,
}

var aggKinds = map[string]fragment.AggKind{
	"COUNT": fragment.AggCount, "SUM": fragment.AggSum, "AVG": fragment.AggAvg,
	"MIN": fragment.AggMin, "MAX": fragment.AggMax,
}

// lowerExpr translates a gsql expression into a fragment expression over
// lay. It fails on references outside lay's scope, on aggregates where no
// slot is in scope, and on anything the evaluator has no operator for; the
// pushdown analysis relies on that to keep such conjuncts on the computing
// node.
func lowerExpr(e Expr, lay *layout) (fragment.Expr, error) {
	switch x := e.(type) {
	case *Literal:
		switch x.Val.(type) {
		case nil, int64, float64, string, []byte, bool:
			return fragment.Expr{Op: fragment.OpConst, Val: x.Val}, nil
		}
		return fragment.Expr{}, fmt.Errorf("%w: literal of type %T", ErrType, x.Val)
	case *Placeholder:
		return fragment.Expr{Op: fragment.OpParam, Col: x.Idx}, nil
	case *ColRef:
		ti, ci, err := resolveCol(x, lay.tables)
		if err != nil {
			return fragment.Expr{}, err
		}
		if ti >= lay.scope {
			return fragment.Expr{}, fmt.Errorf("gsql: column %s is not in scope here", x)
		}
		return fragment.Expr{Op: fragment.OpCol, Col: lay.offset(ti) + ci}, nil
	case *Star:
		return fragment.Expr{}, fmt.Errorf("gsql: '*' is only valid in SELECT lists and COUNT(*)")
	case *UnaryExpr:
		switch x.Op {
		case "NOT":
			return lowerNode(fragment.OpNot, lay, x.X)
		case "-":
			return lowerNode(fragment.OpNeg, lay, x.X)
		}
		return fragment.Expr{}, fmt.Errorf("gsql: unknown unary operator %q", x.Op)
	case *BinaryExpr:
		op, ok := binaryOps[x.Op]
		if !ok {
			return fragment.Expr{}, fmt.Errorf("gsql: unknown operator %q", x.Op)
		}
		return lowerNode(op, lay, x.Left, x.Right)
	case *IsNullExpr:
		if x.Neg {
			return lowerNode(fragment.OpNotNull, lay, x.X)
		}
		return lowerNode(fragment.OpIsNull, lay, x.X)
	case *InExpr:
		op := fragment.OpIn
		if x.Neg {
			op = fragment.OpNotIn
		}
		return lowerNode(op, lay, append([]Expr{x.X}, x.List...)...)
	case *BetweenExpr:
		op := fragment.OpBetween
		if x.Neg {
			op = fragment.OpNotBetween
		}
		return lowerNode(op, lay, x.X, x.Lo, x.Hi)
	case *FuncExpr:
		if aggregateFuncs[x.Name] {
			slot, ok := lay.aggs[x.String()]
			if !ok {
				return fragment.Expr{}, fmt.Errorf("gsql: aggregate %s in a scalar context", x.Name)
			}
			return fragment.Expr{Op: fragment.OpCol, Col: lay.width() + slot}, nil
		}
		op, ok := scalarOps[x.Name]
		switch {
		case !ok:
			return fragment.Expr{}, fmt.Errorf("gsql: unknown function %q", x.Name)
		case x.Name == "COALESCE" && len(x.Args) == 0:
			return fragment.Expr{}, fmt.Errorf("gsql: COALESCE takes at least one argument")
		case x.Name != "COALESCE" && len(x.Args) != 1:
			return fragment.Expr{}, fmt.Errorf("gsql: %s takes one argument", x.Name)
		}
		return lowerNode(op, lay, x.Args...)
	default:
		return fragment.Expr{}, fmt.Errorf("gsql: cannot evaluate %T", e)
	}
}

// lowerNode lowers an operator node and its operands.
func lowerNode(op fragment.Op, lay *layout, args ...Expr) (fragment.Expr, error) {
	out := fragment.Expr{Op: op, Args: make([]fragment.Expr, len(args))}
	for i, a := range args {
		var err error
		if out.Args[i], err = lowerExpr(a, lay); err != nil {
			return fragment.Expr{}, err
		}
	}
	return out, nil
}

// lowerOpt lowers an optional expression (nil stays nil).
func lowerOpt(e Expr, lay *layout) (*fragment.Expr, error) {
	if e == nil {
		return nil, nil
	}
	le, err := lowerExpr(e, lay)
	if err != nil {
		return nil, err
	}
	return &le, nil
}

// lowerList lowers each expression of a list.
func lowerList(es []Expr, lay *layout) ([]fragment.Expr, error) {
	out := make([]fragment.Expr, len(es))
	for i, e := range es {
		var err error
		if out[i], err = lowerExpr(e, lay); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// lowerAgg lowers one aggregate call to the slot spec both the data nodes
// and the computing node fold: COUNT(*) counts rows, every other call folds
// its one argument, evaluated over lay.
func lowerAgg(fn *FuncExpr, lay *layout) (fragment.AggSpec, error) {
	kind := aggKinds[fn.Name]
	if len(fn.Args) != 1 {
		return fragment.AggSpec{}, fmt.Errorf("gsql: %s takes one argument", fn.Name)
	}
	if _, isStar := fn.Args[0].(*Star); isStar {
		if kind != fragment.AggCount {
			return fragment.AggSpec{}, fmt.Errorf("gsql: %s(*) is not valid", fn.Name)
		}
		return fragment.AggSpec{Kind: kind, Star: true}, nil
	}
	arg, err := lowerExpr(fn.Args[0], lay)
	if err != nil {
		return fragment.AggSpec{}, err
	}
	return fragment.AggSpec{Kind: kind, Arg: &arg}, nil
}

// evalConst lowers and evaluates an expression with no columns in scope —
// INSERT values and parameterized LIMIT/OFFSET: constants and parameters.
func evalConst(e Expr, params []any) (any, error) {
	le, err := lowerExpr(e, &layout{})
	if err != nil {
		return nil, err
	}
	be, err := fragment.BindExpr(&le, params)
	if err != nil {
		return nil, err
	}
	return fragment.Eval(be, nil)
}

// evalInto evaluates each expression over row into out, which must be as
// long as es.
func evalInto(es []fragment.Expr, row, out []any) error {
	for i := range es {
		v, err := fragment.Eval(&es[i], row)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// planExprs are a plan's expressions lowered over its layout. Placeholders
// remain OpParam nodes here; each execution binds a copy.
type planExprs struct {
	// filter is the residual WHERE [AND ON] over the combined row;
	// pushFilter and lookupFilter are what is left of it when the pushed
	// row fragment or the pushed lookup join runs.
	filter, pushFilter, lookupFilter *fragment.Expr
	// groupBy keys and aggregate slots, over the combined row.
	groupBy []fragment.Expr
	aggs    []fragment.AggSpec
	// having, outputs and ORDER BY keys: over the group row (the combined
	// row, then the aggregate slots) when grouped, else the combined row.
	having       *fragment.Expr
	out, orderBy []fragment.Expr
	// The key and range bounds of the outer scan, the join's inner scan
	// and the hash join's build scan.
	outer, inner, build scanExprs
}

// scanExprs are one scan's key expressions and range bounds, lowered over
// the outer row: an inner lookup binds outer columns, every other scan
// binds constants and parameters only.
type scanExprs struct {
	key    []fragment.Expr
	lo, hi *fragment.Expr
}

// lowerAggs lowers the plan's aggregate calls into slot specs. It runs
// before the pushdown analysis, which ships the same specs to data nodes.
func (p *selectPlan) lowerAggs() error {
	row := &layout{tables: p.tables, scope: len(p.tables)}
	for _, fn := range p.aggs {
		spec, err := lowerAgg(fn, row)
		if err != nil {
			return err
		}
		p.x.aggs = append(p.x.aggs, spec)
		p.aggDistinct = append(p.aggDistinct, fn.Distinct && !spec.Star)
	}
	return nil
}

// lower lowers every remaining expression of the plan into p.x.
func (p *selectPlan) lower() error {
	row := &layout{tables: p.tables, scope: len(p.tables)}
	p.width = row.width()
	final := row
	if p.grouped {
		final = &layout{tables: p.tables, scope: len(p.tables), aggs: make(map[string]int, len(p.aggs))}
		for i, fn := range p.aggs {
			final.aggs[fn.String()] = i
		}
	}
	orderBy := make([]Expr, len(p.orderBy))
	for i, o := range p.orderBy {
		orderBy[i] = o.Expr
	}
	var pushFilter, lookupFilter Expr
	if p.push != nil {
		pushFilter = p.push.cnFilter
	}
	if p.join != nil && p.join.lookup != nil {
		lookupFilter = p.join.lookup.cnFilter
	}
	x := &p.x
	var err error
	lowerTo := func(dst **fragment.Expr, e Expr, lay *layout) {
		if err == nil {
			*dst, err = lowerOpt(e, lay)
		}
	}
	lowerAll := func(dst *[]fragment.Expr, es []Expr, lay *layout) {
		if err == nil {
			*dst, err = lowerList(es, lay)
		}
	}
	lowerTo(&x.filter, p.filter, row)
	lowerTo(&x.pushFilter, pushFilter, row)
	lowerTo(&x.lookupFilter, lookupFilter, row)
	lowerAll(&x.groupBy, p.groupBy, row)
	lowerTo(&x.having, p.having, final)
	lowerAll(&x.out, p.outExprs, final)
	lowerAll(&x.orderBy, orderBy, final)
	outerRow := &layout{tables: p.tables, scope: 1}
	lowerScan := func(dst *scanExprs, s *tableScan) {
		if s == nil {
			return
		}
		lowerAll(&dst.key, s.keyExprs, outerRow)
		lowerTo(&dst.lo, s.rangeLo, outerRow)
		lowerTo(&dst.hi, s.rangeHi, outerRow)
	}
	lowerScan(&x.outer, p.outer)
	lowerScan(&x.inner, p.inner)
	if p.join != nil && p.join.hash != nil {
		lowerScan(&x.build, p.join.hash.build)
	}
	return err
}

// bind returns a copy of x with params substituted. Trees without
// parameters are shared, not copied, so binding a parameter-free plan
// allocates nothing.
func (x planExprs) bind(params []any) (planExprs, error) {
	var err error
	one := func(e **fragment.Expr) {
		if err == nil {
			*e, err = fragment.BindExpr(*e, params)
		}
	}
	all := func(es *[]fragment.Expr) {
		if err == nil {
			*es, err = fragment.BindExprs(*es, params)
		}
	}
	one(&x.filter)
	one(&x.pushFilter)
	one(&x.lookupFilter)
	all(&x.groupBy)
	one(&x.having)
	all(&x.out)
	all(&x.orderBy)
	for _, s := range [...]*scanExprs{&x.outer, &x.inner, &x.build} {
		all(&s.key)
		one(&s.lo)
		one(&s.hi)
	}
	if err == nil {
		x.aggs, err = fragment.BindAggs(x.aggs, params)
	}
	return x, err
}
