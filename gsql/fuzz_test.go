package gsql

import (
	"testing"

	"globaldb/gsql/fragment"
	"globaldb/internal/table"
)

// FuzzParseLowerEval drives arbitrary text through the SQL front as
// `SELECT <expr> FROM t`: whatever parses and plans has been lowered to
// fragment.Expr by the planner, and every lowered tree — filter, group keys,
// aggregate arguments, HAVING, outputs, ORDER BY keys, scan keys and range
// bounds — must evaluate over a fixed row (or its group row) without
// panicking. Errors are fine; panics and lowered column positions outside
// the row are not.
func FuzzParseLowerEval(f *testing.F) {
	for _, seed := range []string{
		"1 + 2 * a",
		"a = 3 AND b > ?",
		"COALESCE(SUM(b), 0)",
		"ABS(MIN(a) - 7) BETWEEN $1 AND $2",
		"COUNT(DISTINCT s) IN (1, 2), AVG(a + b)",
		"UPPER(s) LIKE 'A%' OR NOT z",
		"LENGTH(y) / 0, 1.5 % 0",
		"'x' + s, -b, t.a",
		"a IN (1, 2, NULL) IS NULL",
		"a, COUNT(*)",
	} {
		f.Add(seed)
	}
	cat := fakeCatalog{"t": &table.Schema{
		ID:   1,
		Name: "t",
		Columns: []table.Column{
			{Name: "a", Kind: table.Int64},
			{Name: "b", Kind: table.Float64},
			{Name: "s", Kind: table.String},
			{Name: "y", Kind: table.Bytes},
			{Name: "z", Kind: table.Bool},
		},
		PK: []int{0},
	}}
	row := []any{int64(3), 2.5, "abc", []byte("x\x00y"), true}
	f.Fuzz(func(t *testing.T, expr string) {
		stmt, err := Parse("SELECT " + expr + " FROM t")
		if err != nil {
			return
		}
		sel, ok := stmt.(*Select)
		if !ok || sel.Join != nil {
			return
		}
		n := CountParams(sel)
		if n > 16 {
			return
		}
		p, err := planSelect(cat, sel)
		if err != nil {
			return
		}
		params := make([]any, n)
		for i := range params {
			params[i] = int64(i + 1)
		}
		bp, err := p.bind(params)
		if err != nil {
			return
		}
		x := &bp.x
		var inRow func(e *fragment.Expr, width int)
		inRow = func(e *fragment.Expr, width int) {
			if e.Op == fragment.OpCol && (e.Col < 0 || e.Col >= width) {
				t.Fatalf("%q: column %d lowered over a row of %d", expr, e.Col, width)
			}
			for i := range e.Args {
				inRow(&e.Args[i], width)
			}
		}
		eval := func(e *fragment.Expr, over []any) {
			if e != nil {
				inRow(e, len(over))
				_, _ = fragment.Eval(e, over)
			}
		}
		evalAll := func(es []fragment.Expr, over []any) {
			for i := range es {
				eval(&es[i], over)
			}
		}
		eval(x.filter, row)
		eval(x.pushFilter, row)
		evalAll(x.groupBy, row)
		evalAll(x.outer.key, nil)
		eval(x.outer.lo, nil)
		eval(x.outer.hi, nil)
		final := row
		if p.grouped {
			states := make([]fragment.AggState, len(x.aggs))
			for i, spec := range x.aggs {
				eval(spec.Arg, row)
				_ = states[i].Accumulate(spec, row)
			}
			final = bp.groupRow(row, states)
		}
		eval(x.having, final)
		evalAll(x.out, final)
		evalAll(x.orderBy, final)
	})
}
