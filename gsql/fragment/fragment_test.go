package fragment

import (
	"fmt"
	"reflect"
	"testing"

	"globaldb/internal/table"
)

func col(i int) Expr      { return Expr{Op: OpCol, Col: i} }
func constant(v any) Expr { return Expr{Op: OpConst, Val: v} }
func bin(op Op, l, r Expr) *Expr {
	return &Expr{Op: op, Args: []Expr{l, r}}
}

// TestFragmentRoundTrip proves the fragment wire format is lossless for a
// representative mix of node types and values — the property the stateless
// RPC boundary depends on.
func TestFragmentRoundTrip(t *testing.T) {
	or := func(args ...Expr) Expr {
		acc := args[0]
		for _, a := range args[1:] {
			acc = Expr{Op: OpOr, Args: []Expr{acc, a}}
		}
		return acc
	}
	filter := &Expr{Op: OpAnd, Args: []Expr{
		*bin(OpGe, col(2), constant(int64(-7))),
		or(
			*bin(OpLike, col(3), constant("t%")),
			Expr{Op: OpIn, Args: []Expr{col(1), constant(int64(1)), constant(nil), constant(3.5)}},
			Expr{Op: OpBetween, Args: []Expr{col(2), {Op: OpParam, Col: 1}, constant(int64(90))}},
			Expr{Op: OpNot, Args: []Expr{{Op: OpIsNull, Args: []Expr{col(0)}}}},
			*bin(OpEq, Expr{Op: OpLength, Args: []Expr{col(3)}}, constant(int64(2))),
			*bin(OpEq, col(4), constant(true)),
			*bin(OpEq, col(5), constant([]byte{0x00, 0xFF})),
		),
	}}
	f := &Fragment{
		Kinds:   []table.Kind{table.Int64, table.Int64, table.Int64, table.String, table.Bool, table.Bytes, table.Float64},
		Filter:  filter,
		Project: []int{0, 2, 3},
		GroupBy: []int{3, 1},
		Aggs: []AggSpec{
			{Kind: AggCount, Star: true},
			{Kind: AggSum, Arg: &Expr{Op: OpCol, Col: 2}},
			{Kind: AggAvg, Arg: &Expr{Op: OpAdd, Args: []Expr{col(2), constant(int64(1))}}},
			{Kind: AggMin, Arg: &Expr{Op: OpCol, Col: 6}},
		},
	}
	b, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch:\n in:  %+v\n out: %+v", f, got)
	}
	// Corrupt and truncated inputs must error, not panic.
	for cut := 1; cut < len(b); cut += 3 {
		if _, err := Decode(b[:cut]); err == nil {
			t.Fatalf("Decode accepted a %d-byte truncation", cut)
		}
	}
}

// TestDecodeRejectsBadArity: a tampered encoding whose operator nodes
// carry the wrong number of arguments (e.g. OpEq with zero args) must fail
// Decode validation — evaluating it would index past Args and panic the
// data node mid-RPC.
func TestDecodeRejectsBadArity(t *testing.T) {
	bad := []*Fragment{
		{Kinds: []table.Kind{table.Int64}, Filter: &Expr{Op: OpEq}},
		{Kinds: []table.Kind{table.Int64}, Filter: &Expr{Op: OpNot}},
		{Kinds: []table.Kind{table.Int64}, Filter: &Expr{Op: OpBetween, Args: []Expr{col(0), constant(int64(1))}}},
		{Kinds: []table.Kind{table.Int64}, Filter: &Expr{Op: OpIn}},
		{Kinds: []table.Kind{table.Int64}, Filter: &Expr{Op: Op(200), Args: []Expr{col(0)}}},
		{Kinds: []table.Kind{table.Int64}, Filter: bin(OpEq, col(3), constant(int64(1)))}, // column out of range
		{Kinds: []table.Kind{table.Int64}, Aggs: []AggSpec{{Kind: AggKind(99), Star: true}}},
		{Kinds: []table.Kind{table.Int64}, Aggs: []AggSpec{{Kind: AggSum}}}, // non-star agg without arg
	}
	for i, f := range bad {
		b, err := f.Encode()
		if err != nil {
			continue // unencodable is an acceptable rejection too
		}
		if _, err := Decode(b); err == nil {
			t.Fatalf("case %d: Decode accepted an invalid fragment %+v", i, f)
		}
	}
}

// TestBindSubstitutesParams checks that Bind replaces OpParam nodes with
// constants, rejects unbound positions, and leaves the template intact.
func TestBindSubstitutesParams(t *testing.T) {
	tpl := &Fragment{
		Kinds:  []table.Kind{table.Int64},
		Filter: bin(OpGt, col(0), Expr{Op: OpParam, Col: 1}),
	}
	bound, err := tpl.Bind([]any{int64(42)})
	if err != nil {
		t.Fatal(err)
	}
	if bound.Filter.Args[1].Op != OpConst || bound.Filter.Args[1].Val != int64(42) {
		t.Fatalf("bound arg = %+v", bound.Filter.Args[1])
	}
	if tpl.Filter.Args[1].Op != OpParam {
		t.Fatal("Bind mutated the template")
	}
	if _, err := tpl.Bind(nil); err == nil {
		t.Fatal("Bind accepted a missing parameter")
	}
	if _, err := tpl.Bind([]any{struct{}{}}); err == nil {
		t.Fatal("Bind accepted an unsupported parameter type")
	}
	// An unbound parameter reaching evaluation is an error, not a value.
	if _, err := Eval(tpl.Filter, []any{int64(1)}); err == nil {
		t.Fatal("Eval accepted an unbound parameter")
	}
}

// TestBindParamFreeAllocatesNothing checks that binding shares every
// subtree without a parameter: a parameter-free filter binds with zero
// allocations and comes back as the very same tree, and a tree with one
// parameter copies only the path down to it.
func TestBindParamFreeAllocatesNothing(t *testing.T) {
	filter := bin(OpAnd,
		*bin(OpGe, col(0), Expr{Op: OpConst, Val: int64(90)}),
		Expr{Op: OpLike, Args: []Expr{col(1), {Op: OpConst, Val: "t%"}}})
	params := []any{int64(7)}
	var bound *Expr
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if bound, err = BindExpr(filter, params); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("binding a parameter-free filter allocated %.0f times, want 0", allocs)
	}
	if bound != filter {
		t.Fatal("a parameter-free filter was copied")
	}
	if list, _ := BindExprs(filter.Args, params); &list[0] != &filter.Args[0] {
		t.Fatal("a parameter-free list was copied")
	}
	specs := []AggSpec{{Kind: AggCount, Star: true}, {Kind: AggSum, Arg: &filter.Args[0].Args[0]}}
	if got, _ := BindAggs(specs, params); &got[0] != &specs[0] {
		t.Fatal("parameter-free aggregate specs were copied")
	}

	withParam := bin(OpAnd, filter.Args[0], *bin(OpEq, col(2), Expr{Op: OpParam, Col: 1}))
	b, err := BindExpr(withParam, params)
	if err != nil {
		t.Fatal(err)
	}
	if &b.Args[0].Args[0] != &withParam.Args[0].Args[0] {
		t.Fatal("the parameter-free operand was copied")
	}
	if b.Args[1].Args[1].Op != OpConst || b.Args[1].Args[1].Val != int64(7) || withParam.Args[1].Args[1].Op != OpParam {
		t.Fatalf("bound %+v from template %+v", b.Args[1], withParam.Args[1])
	}
}

// TestAggStateMergeCommutes checks that partial states merge to the same
// final values regardless of how rows are split across shards — the
// property the cross-shard CN-final merge depends on.
func TestAggStateMergeCommutes(t *testing.T) {
	specs := []AggSpec{
		{Kind: AggCount, Star: true},
		{Kind: AggSum, Arg: &Expr{Op: OpCol, Col: 0}},
		{Kind: AggAvg, Arg: &Expr{Op: OpCol, Col: 0}},
		{Kind: AggMin, Arg: &Expr{Op: OpCol, Col: 0}},
		{Kind: AggMax, Arg: &Expr{Op: OpCol, Col: 0}},
	}
	rows := [][]any{{int64(5)}, {nil}, {int64(-3)}, {int64(12)}, {int64(0)}}

	accumulate := func(rows [][]any) []AggState {
		states := make([]AggState, len(specs))
		for _, r := range rows {
			for i, spec := range specs {
				if err := states[i].Accumulate(spec, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return states
	}
	whole := accumulate(rows)
	for split := 0; split <= len(rows); split++ {
		a, err := EncodeStates(accumulate(rows[:split]))
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeStates(accumulate(rows[split:]))
		if err != nil {
			t.Fatal(err)
		}
		merged, err := MergeEncodedStates(a, b)
		if err != nil {
			t.Fatal(err)
		}
		states, err := DecodeStates(merged)
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range specs {
			want := whole[i].Final(spec.Kind)
			got := states[i].Final(spec.Kind)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("split %d, %v: merged %v, whole %v", split, spec.Kind, got, want)
			}
		}
	}
	// SUM/AVG over zero rows are NULL; COUNT is 0.
	var empty AggState
	if empty.Final(AggSum) != nil || empty.Final(AggAvg) != nil || empty.Final(AggCount) != int64(0) {
		t.Fatalf("empty finals: sum=%v avg=%v count=%v",
			empty.Final(AggSum), empty.Final(AggAvg), empty.Final(AggCount))
	}
}

// TestGroupKeyRoundTrip checks group keys decode back to the grouped
// values, including NULLs.
func TestGroupKeyRoundTrip(t *testing.T) {
	f := &Fragment{
		Kinds:   []table.Kind{table.Int64, table.String, table.Bool},
		GroupBy: []int{1, 0},
		Aggs:    []AggSpec{{Kind: AggCount, Star: true}},
	}
	for _, row := range [][]any{
		{int64(7), "xa", true},
		{nil, "", false},
		{int64(-1), nil, true},
	} {
		key, err := f.EncodeGroupKey(row)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := f.DecodeGroupKey(key)
		if err != nil {
			t.Fatal(err)
		}
		want := []any{row[1], row[0]}
		if !reflect.DeepEqual(vals, want) {
			t.Fatalf("group key of %v: got %v, want %v", row, vals, want)
		}
	}
}

// TestProjectionRoundTrip checks projected rows re-expand to full width
// with unshipped columns nil.
func TestProjectionRoundTrip(t *testing.T) {
	f := &Fragment{
		Kinds:   []table.Kind{table.Int64, table.String, table.Float64, table.Bool},
		Project: []int{0, 2},
	}
	row := []any{int64(9), "drop me", 2.5, true}
	val, err := f.EncodeProjected(row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.DecodeProjected(val)
	if err != nil {
		t.Fatal(err)
	}
	want := []any{int64(9), nil, 2.5, nil}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("projected round trip: got %v, want %v", got, want)
	}
}

// TestEvalThreeValuedLogic spot-checks the SQL semantics the DN evaluator
// must share with gsql: NULL propagation, short circuits, LIKE.
func TestEvalThreeValuedLogic(t *testing.T) {
	row := []any{int64(10), nil, "text"}
	cases := []struct {
		name string
		e    *Expr
		want any
	}{
		{"null cmp", bin(OpGt, col(1), constant(int64(1))), nil},
		{"and short circuit", bin(OpAnd, *bin(OpLt, col(0), constant(int64(1))), *bin(OpGt, col(1), constant(int64(1)))), false},
		{"or short circuit", bin(OpOr, *bin(OpGt, col(0), constant(int64(1))), *bin(OpGt, col(1), constant(int64(1)))), true},
		{"null and true", bin(OpAnd, *bin(OpGt, col(1), constant(int64(1))), *bin(OpGt, col(0), constant(int64(1)))), nil},
		{"like", bin(OpLike, col(2), constant("te%")), true},
		{"like underscore", bin(OpLike, col(2), constant("t_xt")), true},
		{"in skips null items", &Expr{Op: OpIn, Args: []Expr{col(0), constant(nil), constant(int64(10))}}, true},
		// gsql skips NULL list items and returns Neg on no match (not the
		// standard-SQL NULL); the DN evaluator must mirror gsql, not the
		// standard.
		{"not in skips null items", &Expr{Op: OpNotIn, Args: []Expr{col(0), constant(nil), constant(int64(3))}}, true},
		{"mixed int float", bin(OpLt, col(0), constant(10.5)), true},
		{"is null", &Expr{Op: OpIsNull, Args: []Expr{col(1)}}, true},
		{"coalesce", &Expr{Op: OpCoalesce, Args: []Expr{col(1), col(0)}}, int64(10)},
	}
	for _, tc := range cases {
		got, err := Eval(tc.e, row)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("%s: got %v (%T), want %v", tc.name, got, got, tc.want)
		}
	}
	// Type errors surface as errors, not panics.
	if _, err := Eval(bin(OpAdd, col(2), constant(int64(1))), row); err == nil {
		t.Fatal("string + int should error")
	}
	if _, err := Eval(bin(OpDiv, col(0), constant(int64(0))), row); err == nil {
		t.Fatal("division by zero should error")
	}
}
