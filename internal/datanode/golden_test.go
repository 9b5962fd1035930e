package datanode

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"globaldb/gsql/fragment"
	"globaldb/internal/repl"
	"globaldb/internal/table"
	"globaldb/internal/ts"
)

// The golden-bytes test pins every byte the fragment path puts on the wire
// for a fixed five-kind table: the encoded fragment of each shape, the data
// node's pages of projected rows, index-scanned rows, joined rows and group
// keys with their partial states, and the keys a data node builds for
// pushed lookups. A refactor of the row codec must leave all of it
// unchanged.

// goldenOuter is the scanned table: one column of every kind, indexed on
// (e, c).
var goldenOuter = &table.Schema{ID: 71, Name: "outer", Columns: []table.Column{
	{Name: "a", Kind: table.Int64}, {Name: "b", Kind: table.Float64}, {Name: "c", Kind: table.String},
	{Name: "d", Kind: table.Bytes}, {Name: "e", Kind: table.Bool},
}, PK: []int{0}, Indexes: []table.Index{{ID: 73, Name: "outer_e_c", Cols: []int{4, 2}}}}

// goldenInner is the looked-up table, keyed (k BIGINT, t BYTEA).
var goldenInner = &table.Schema{ID: 72, Name: "inner", Columns: []table.Column{
	{Name: "k", Kind: table.Int64}, {Name: "t", Kind: table.Bytes}, {Name: "f", Kind: table.Float64},
	{Name: "s", Kind: table.String}, {Name: "z", Kind: table.Bool},
}, PK: []int{0, 1}}

var goldenOuterRows = []table.Row{
	{int64(1), 5.0, "b", []byte("b"), true},
	{int64(2), negZero(), "", []byte{}, false},
	{int64(3), nil, "n", []byte("n"), nil},
	{int64(4), 1.5, "héllo", nil, true},
	{int64(5), 7.0, "zz", []byte{0x00, 0xff}, false},
}

var goldenInnerRows = []table.Row{
	{int64(5), []byte("b"), 0.25, "five", true},
	{int64(5), []byte("bb"), -2.0, "decoy", false},
	{int64(0), []byte{}, negZero(), "zero", nil},
	{nil, []byte("n"), nil, "null key", true},
	{int64(1), []byte("b"), 3.0, nil, false},
}

func negZero() float64 {
	z := 0.0
	return -z
}

func goldenKinds(s *table.Schema) []table.Kind {
	kinds := make([]table.Kind, len(s.Columns))
	for i, c := range s.Columns {
		kinds[i] = c.Kind
	}
	return kinds
}

func goldenCol(c int) fragment.Expr { return fragment.Expr{Op: fragment.OpCol, Col: c} }

func goldenConst(v any) fragment.Expr { return fragment.Expr{Op: fragment.OpConst, Val: v} }

func goldenBin(op fragment.Op, a, b fragment.Expr) *fragment.Expr {
	return &fragment.Expr{Op: op, Args: []fragment.Expr{a, b}}
}

// goldenFragments returns one fragment of each shape: filter+projection,
// GROUP BY with every aggregate kind, and a lookup join.
func goldenFragments() (proj, agg, join *fragment.Fragment) {
	kinds := goldenKinds(goldenOuter)
	proj = &fragment.Fragment{Kinds: kinds,
		// a NOT IN (4, 9.5, NULL) AND (c <> 's' OR d = x'07' OR e = TRUE):
		// a constant of every kind, and every row but a = 4 kept.
		Filter: &fragment.Expr{Op: fragment.OpAnd, Args: []fragment.Expr{
			{Op: fragment.OpNotIn, Args: []fragment.Expr{goldenCol(0), goldenConst(int64(4)), goldenConst(9.5), goldenConst(nil)}},
			*goldenBin(fragment.OpOr, *goldenBin(fragment.OpNe, goldenCol(2), goldenConst("s")),
				*goldenBin(fragment.OpOr, *goldenBin(fragment.OpEq, goldenCol(3), goldenConst([]byte{7})),
					*goldenBin(fragment.OpEq, goldenCol(4), goldenConst(true)))),
		}},
		Project: []int{3, 1, 4, 2}}
	agg = &fragment.Fragment{Kinds: kinds,
		Filter:  goldenBin(fragment.OpNe, goldenCol(0), goldenConst(int64(4))),
		GroupBy: []int{4, 1},
		Aggs: []fragment.AggSpec{
			{Kind: fragment.AggCount, Star: true},
			{Kind: fragment.AggSum, Arg: &fragment.Expr{Op: fragment.OpCol, Col: 0}},
			{Kind: fragment.AggAvg, Arg: &fragment.Expr{Op: fragment.OpCol, Col: 1}},
			{Kind: fragment.AggMin, Arg: &fragment.Expr{Op: fragment.OpCol, Col: 2}},
			{Kind: fragment.AggMax, Arg: &fragment.Expr{Op: fragment.OpCol, Col: 3}},
		}}
	join = &fragment.Fragment{Kinds: kinds,
		Filter:  goldenBin(fragment.OpNe, goldenCol(0), goldenConst(int64(4))),
		Project: []int{4, 0, 2},
		Lookup: &fragment.Lookup{
			Prefix:   goldenInner.TablePrefix(),
			KeyExprs: []fragment.Expr{goldenCol(1), goldenCol(3)},
			KeyKinds: []table.Kind{table.Int64, table.Bytes},
			Kinds:    goldenKinds(goldenInner),
			Project:  []int{3, 2, 4},
		}}
	return proj, agg, join
}

// goldenIndexed returns proj scanning the entries of goldenOuter's index.
func goldenIndexed(proj *fragment.Fragment) *fragment.Fragment {
	f := *proj
	f.Index = true
	return &f
}

// goldenRig loads both tables, and the outer table's index entries, into a
// primary through the stored-row codec.
func goldenRig(t *testing.T) *rig {
	t.Helper()
	r := newRig(t, repl.Async)
	for _, load := range []struct {
		s    *table.Schema
		rows []table.Row
	}{{goldenOuter, goldenOuterRows}, {goldenInner, goldenInnerRows}} {
		for _, row := range load.rows {
			key, err := load.s.PrimaryKey(row)
			if err != nil {
				t.Fatal(err)
			}
			val, err := load.s.EncodeRow(row)
			if err != nil {
				t.Fatal(err)
			}
			r.primary.Store().ApplyCommitted(key, val, false, ts.Timestamp(5))
			for _, ix := range load.s.Indexes {
				ik, err := load.s.IndexKey(ix, row)
				if err != nil {
					t.Fatal(err)
				}
				r.primary.Store().ApplyCommitted(ik, key, false, ts.Timestamp(5))
			}
		}
	}
	return r
}

// goldenPage runs one fragment over the whole outer table, or over its
// whole index when the fragment scans index entries, and renders the
// response: one "key value" hex line per shipped pair, then the counters.
func goldenPage(t *testing.T, r *rig, f *fragment.Fragment) (string, error) {
	t.Helper()
	fb, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	start := goldenOuter.TablePrefix()
	if f.Index {
		start, _ = goldenOuter.IndexPrefix(goldenOuter.Indexes[0], nil)
	}
	end := append(append([]byte(nil), start...), 0xff)
	resp, err := r.client.ScanPageFrag(bg, "dn0", start, end, ts.Timestamp(10), 0, 0, fb, 0)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, kv := range resp.KVs {
		fmt.Fprintf(&sb, "%x %x\n", kv.Key, kv.Value)
	}
	fmt.Fprintf(&sb, "more=%v examined=%d looked=%d", resp.More, resp.Examined, resp.Looked)
	return sb.String(), nil
}

func checkGolden(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s moved:\n got: %s\nwant: %s", what, got, want)
	}
}

// TestGoldenFragmentBytes pins the wire encoding of each fragment shape.
func TestGoldenFragmentBytes(t *testing.T) {
	proj, agg, join := goldenFragments()
	for _, c := range []struct {
		name string
		f    *fragment.Fragment
		want string
	}{
		{"projection", proj, "01050102030405010a021604020000010100000000000000040001024023000000000000000100000b02050202020001030173000b0204020203000104010700040202040001050100010403010402000000"},
		{"group by", agg, "010501020304050105020200000101000000000000000400000204010501010002000102000003000102010004000102020005000102030000"},
		{"lookup join", join, "0105010203040501050202000001010000000000000004000103040002000001090300000000000000480202010002030001040501040203050103030204"},
		{"index entries", goldenIndexed(proj), "01050102030405010a021604020000010100000000000000040001024023000000000000000100000b02050202020001030173000b020402020300010401070004020204000105010001040301040200000001"},
	} {
		b, err := c.f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, c.name+" fragment", hex.EncodeToString(b), c.want)
	}
}

// TestGoldenPageBytes pins the pages a data node ships for each shape:
// projected rows, index-scanned rows, lookup-joined rows, and group keys
// with their states.
func TestGoldenPageBytes(t *testing.T) {
	r := goldenRig(t)
	proj, agg, join := goldenFragments()
	for _, c := range []struct {
		name string
		f    *fragment.Fragment
		want string
	}{
		{"projected rows", proj, "030000000000000047038000000000000001 0862000105c014000000000000090107620001\n" +
			"030000000000000047038000000000000002 080001057fffffffffffffff0900070001\n" +
			"030000000000000047038000000000000003 086e00010101076e0001\n" +
			"030000000000000047038000000000000005 0800ffff000105c01c0000000000000900077a7a0001\n" +
			"more=false examined=5 looked=0"},
		{"group keys", agg, "0101 0000000000000000010000000000000000000000000000000000000000000000000100000000000000034008000000000000000000000000000000000000000000000000000000000000000200000000000000010000000000000000000000000000000003016e0400000000000000010000000000000000000000000000000004016e\n" +
			"0900057fffffffffffffff 000000000000000001000000000000000000000000000000000000000000000000010000000000000002400000000000000001000000000000000100000000000000000000000000000000020000000000000001000000000000000000000000000000000300040000000000000001000000000000000000000000000000000400\n" +
			"090005c01c000000000000 00000000000000000100000000000000000000000000000000000000000000000001000000000000000540140000000000000100000000000000010000000000000000401c0000000000000200000000000000010000000000000000000000000000000003027a7a04000000000000000100000000000000000000000000000000040200ff\n" +
			"090105c014000000000000 0000000000000000010000000000000000000000000000000000000000000000000100000000000000013ff0000000000000010000000000000001000000000000000040140000000000000200000000000000010000000000000000000000000000000003016204000000000000000100000000000000000000000000000000040162\n" +
			"more=false examined=5 looked=0"},
		{"joined rows", join, "030000000000000047038000000000000001 0901038000000000000001076200010766697665000105bfd00000000000000901\n" +
			"030000000000000047038000000000000002 0900038000000000000002070001077a65726f0001057fffffffffffffff01\n" +
			"more=false examined=5 looked=2"},
		// The projected rows of the filter above, in (e, c) order, each
		// under its index entry's key.
		{"index entries", goldenIndexed(proj), "03000000000000004901076e0001038000000000000003 086e00010101076e0001\n" +
			"0300000000000000490900070001038000000000000002 080001057fffffffffffffff0900070001\n" +
			"0300000000000000490900077a7a0001038000000000000005 0800ffff000105c01c0000000000000900077a7a0001\n" +
			"030000000000000049090107620001038000000000000001 0862000105c014000000000000090107620001\n" +
			"more=false examined=5 looked=0"},
	} {
		got, err := goldenPage(t, r, c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkGolden(t, c.name+" page", got, c.want)
	}
}

// TestGoldenLookupKey pins the key a data node builds for a pushed lookup:
// the inner table's prefix followed by each outer value coerced to its key
// column, byte-identical to Schema.PrimaryKeyPrefix of the coerced values.
// The data node's key is observed through the rows it finds: the inner rows
// are stored under Schema.PrimaryKey, next to a decoy that a shorter key
// would also find.
func TestGoldenLookupKey(t *testing.T) {
	for _, c := range []struct {
		name string
		vals []any // outer values, coerced to (BIGINT, BYTEA)
		want string
	}{
		{"whole float into BIGINT", []any{5.0, []byte("b")}, "03000000000000004803800000000000000508620001"},
		{"-0.0 into BIGINT", []any{negZero(), []byte{}}, "030000000000000048038000000000000000080001"},
		{"TEXT into BYTEA", []any{int64(5), "b"}, "03000000000000004803800000000000000508620001"},
		{"NULL", []any{nil, []byte("n")}, "03000000000000004801086e0001"},
	} {
		coerced := make([]any, len(c.vals))
		for i, v := range c.vals {
			cv, err := fragment.CoerceKey(goldenInner.Columns[goldenInner.PK[i]].Kind, v)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			coerced[i] = cv
		}
		key, err := goldenInner.PrimaryKeyPrefix(coerced)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, c.name+" lookup key", hex.EncodeToString(key), c.want)
	}

	r := goldenRig(t)
	_, _, join := goldenFragments()
	lookup := func(filter *fragment.Expr, keyCols ...int) (string, error) {
		f := *join
		lk := *join.Lookup
		f.Filter = filter
		lk.KeyExprs = []fragment.Expr{goldenCol(keyCols[0]), goldenCol(keyCols[1])}
		f.Lookup = &lk
		return goldenPage(t, r, &f)
	}
	only := func(a int64) *fragment.Expr { return goldenBin(fragment.OpEq, goldenCol(0), goldenConst(a)) }
	// A whole DOUBLE 5.0 keys the BIGINT 5 row and not the decoy (5, "bb").
	got, err := lookup(only(1), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "whole float lookup", got, "030000000000000047038000000000000001 0901038000000000000001076200010766697665000105bfd00000000000000901\n"+
		"more=false examined=5 looked=1")
	// -0.0 keys the BIGINT 0 row.
	if got, err = lookup(only(2), 1, 3); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "-0.0 lookup", got, "030000000000000047038000000000000002 0900038000000000000002070001077a65726f0001057fffffffffffffff01\n"+
		"more=false examined=5 looked=1")
	// A NULL key finds nothing, not even the row stored under a NULL key.
	if got, err = lookup(only(3), 1, 3); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "NULL lookup", got, "more=false examined=5 looked=0")
	// TEXT 'b' coerces to the BYTEA key of (5, 'b') and finds that row; the
	// residual equality then refuses to compare TEXT with BYTEA, exactly as
	// the computing node's own nested loop would. A TEXT key that finds no
	// row is no error.
	if _, err = lookup(only(1), 1, 2); err == nil || !strings.Contains(err.Error(), fragment.ErrType.Error()) {
		t.Fatalf("TEXT key that finds a BYTEA row: err = %v, want a type error", err)
	}
	if got, err = lookup(only(5), 1, 2); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "TEXT lookup that finds nothing", got, "more=false examined=5 looked=0")
}
