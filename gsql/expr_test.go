package gsql

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"globaldb/gsql/fragment"
)

// lowerEval parses `SELECT <exprSQL> FROM t`, lowers the expression with no
// columns in scope and evaluates it with the fragment evaluator — the path
// every expression takes at the computing node and on data nodes.
func lowerEval(t *testing.T, exprSQL string) (any, error) {
	t.Helper()
	sel := mustParse(t, "SELECT "+exprSQL+" FROM t").(*Select)
	e, err := lowerExpr(sel.Items[0].Expr, &layout{})
	if err != nil {
		t.Fatalf("lower(%q): %v", exprSQL, err)
	}
	return fragment.Eval(&e, nil)
}

func evalSQL(t *testing.T, exprSQL string) any {
	t.Helper()
	v, err := lowerEval(t, exprSQL)
	if err != nil {
		t.Fatalf("eval(%q): %v", exprSQL, err)
	}
	return v
}

func TestEvalArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want any
	}{
		{"1 + 2", int64(3)},
		{"7 / 2", int64(3)},
		{"7 % 3", int64(1)},
		{"7.0 / 2", 3.5},
		{"1 + 2.5", 3.5},
		{"2 * 3 + 1", int64(7)},
		{"-(2 + 3)", int64(-5)},
		{"'ab' + 'cd'", "abcd"},
	}
	for _, c := range cases {
		if got := evalSQL(t, c.src); got != c.want {
			t.Errorf("%s = %v (%T), want %v", c.src, got, got, c.want)
		}
	}
}

func TestEvalDivisionByZero(t *testing.T) {
	if _, err := lowerEval(t, "1 / 0"); err == nil {
		t.Fatal("integer division by zero must fail")
	}
	if _, err := lowerEval(t, "1.0 / 0.0"); err == nil {
		t.Fatal("float division by zero must fail")
	}
}

func TestEvalComparisons(t *testing.T) {
	cases := []struct {
		src  string
		want any
	}{
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 4", false},
		{"1 = 1.0", true},
		{"'a' < 'b'", true},
		{"'a' = 'a'", true},
		{"TRUE = TRUE", true},
		{"1 <> 2", true},
		{"2 BETWEEN 1 AND 3", true},
		{"4 NOT BETWEEN 1 AND 3", true},
		{"2 IN (1, 2, 3)", true},
		{"5 NOT IN (1, 2, 3)", true},
		{"NULL IS NULL", true},
		{"1 IS NOT NULL", true},
	}
	for _, c := range cases {
		if got := evalSQL(t, c.src); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalNullPropagation(t *testing.T) {
	for _, src := range []string{"NULL + 1", "1 < NULL", "NOT NULL", "NULL IN (1, 2)", "NULL BETWEEN 1 AND 2"} {
		if got := evalSQL(t, src); got != nil {
			t.Errorf("%s = %v, want NULL", src, got)
		}
	}
	// Three-valued logic short circuits.
	if got := evalSQL(t, "FALSE AND NULL"); got != false {
		t.Errorf("FALSE AND NULL = %v", got)
	}
	if got := evalSQL(t, "TRUE OR NULL"); got != true {
		t.Errorf("TRUE OR NULL = %v", got)
	}
	if got := evalSQL(t, "TRUE AND NULL"); got != nil {
		t.Errorf("TRUE AND NULL = %v", got)
	}
	if got := evalSQL(t, "FALSE OR NULL"); got != nil {
		t.Errorf("FALSE OR NULL = %v", got)
	}
}

func TestEvalLike(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"'hello' LIKE 'h%'", true},
		{"'hello' LIKE '%llo'", true},
		{"'hello' LIKE 'h_llo'", true},
		{"'hello' LIKE 'x%'", false},
		{"'h.llo' LIKE 'h.llo'", true},
		{"'hxllo' LIKE 'h.llo'", false}, // dot is literal, not a wildcard
		{"'hello' NOT LIKE 'x%'", true},
	}
	for _, c := range cases {
		if got := evalSQL(t, c.src); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalScalarFuncs(t *testing.T) {
	cases := []struct {
		src  string
		want any
	}{
		{"ABS(-3)", int64(3)},
		{"ABS(-2.5)", 2.5},
		{"LOWER('AbC')", "abc"},
		{"UPPER('AbC')", "ABC"},
		{"LENGTH('abcd')", int64(4)},
		{"COALESCE(NULL, NULL, 7)", int64(7)},
		{"COALESCE(NULL, 'x', 'y')", "x"},
		{"ABS(NULL)", nil},
	}
	for _, c := range cases {
		if got := evalSQL(t, c.src); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalTypeErrors(t *testing.T) {
	for _, src := range []string{"1 + 'x'", "'a' < 1", "NOT 5", "TRUE AND 3", "ABS('x')"} {
		if _, err := lowerEval(t, src); !errors.Is(err, ErrType) {
			t.Errorf("%s: err = %v, want ErrType", src, err)
		}
	}
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry and totality over int64/float64 mixes.
	f := func(a, b int64) bool {
		c1, err1 := fragment.Compare(a, b)
		c2, err2 := fragment.Compare(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a int64, b float64) bool {
		if math.IsNaN(b) {
			return true // NaN never enters storage (no NaN literals)
		}
		c1, err1 := fragment.Compare(a, b)
		c2, err2 := fragment.Compare(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 == -c2
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestArithIntFloatProperties(t *testing.T) {
	// int64+int64 stays integral; mixing with float64 promotes.
	f := func(a, b int32) bool {
		v, err := fragment.Arith("+", int64(a), int64(b))
		if err != nil {
			return false
		}
		_, isInt := v.(int64)
		return isInt && v.(int64) == int64(a)+int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a int32, b float32) bool {
		v, err := fragment.Arith("*", int64(a), float64(b))
		if err != nil {
			return false
		}
		_, isFloat := v.(float64)
		return isFloat
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// TestLowerResolvesColumns checks column references lower to positions in
// the flat combined row — outer columns, then inner columns — and that
// references the planner cannot resolve fail at plan time, before any row
// is evaluated.
func TestLowerResolvesColumns(t *testing.T) {
	p := plan(t, "SELECT o.amount, l.item, o.w_id FROM orders o JOIN lines l ON l.w_id = o.w_id AND l.o_id = o.o_id")
	row := []any{int64(1), int64(2), int64(10), 7.5, int64(1), int64(2), int64(3), "widget"}
	if p.width != len(row) {
		t.Fatalf("combined width = %d, want %d", p.width, len(row))
	}
	out := make([]any, len(p.x.out))
	if err := evalInto(p.x.out, row, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 7.5 || out[1] != "widget" || out[2] != int64(1) {
		t.Fatalf("outputs = %v", out)
	}
	// The inner lookup's keys bind the outer row alone.
	key := make([]any, len(p.x.inner.key))
	if err := evalInto(p.x.inner.key, row[:4], key); err != nil || key[0] != int64(1) || key[1] != int64(2) {
		t.Fatalf("inner key = %v, %v", key, err)
	}
	for _, sql := range []string{
		"SELECT nope FROM orders",
		"SELECT u.w_id FROM orders",
		"SELECT w_id FROM orders o JOIN lines l ON l.w_id = o.w_id",
		"SELECT amount FROM orders WHERE SUM(amount) > 1",
		"SELECT ABS(amount, 1) FROM orders",
		"SELECT SUM(*) FROM orders",
	} {
		if _, err := planSelect(testCatalog(), mustParse(t, sql).(*Select)); err == nil {
			t.Errorf("%s: planned, want an error", sql)
		}
	}
	// With no columns in scope (INSERT values) any reference fails.
	if _, err := lowerExpr(&ColRef{Name: "a"}, &layout{}); err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("reference with no table in scope: %v", err)
	}
	// A data-node fragment sees the outer table only.
	outerOnly := &layout{tables: p.tables, scope: 1}
	if _, err := lowerExpr(&ColRef{Table: "l", Name: "item"}, outerOnly); err == nil {
		t.Fatal("inner column lowered into an outer-only fragment")
	}
}

func TestLikePatternCache(t *testing.T) {
	// Same pattern twice exercises the cache path.
	for i := 0; i < 2; i++ {
		ok, err := fragment.LikeMatch("abc", "a%")
		if err != nil || !ok {
			t.Fatalf("likeMatch: %v %v", ok, err)
		}
	}
	if _, err := fragment.LikeMatch("x", "[("); err != nil {
		// Metacharacters are quoted, so this is a literal non-match.
		t.Fatalf("quoted pattern: %v", err)
	}
}
