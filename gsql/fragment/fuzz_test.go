package fragment

import (
	"bytes"
	"testing"

	"globaldb/internal/table"
)

// fuzzSeeds are representative fragments covering every wire-format
// branch: filters (incl. every operator arity), projections, group-bys and
// aggregate specs. Their encodings seed the fuzz corpus alongside the
// checked-in testdata/fuzz files.
func fuzzSeeds(tb testing.TB) [][]byte {
	kinds := []table.Kind{table.Int64, table.Float64, table.String, table.Bytes, table.Bool}
	col := func(c int) Expr { return Expr{Op: OpCol, Col: c} }
	konst := func(v any) Expr { return Expr{Op: OpConst, Val: v} }
	frags := []*Fragment{
		{Kinds: kinds},
		{Kinds: kinds, Filter: &Expr{Op: OpGe, Args: []Expr{col(0), konst(int64(42))}}},
		{Kinds: kinds, Filter: &Expr{Op: OpAnd, Args: []Expr{
			{Op: OpLike, Args: []Expr{col(2), konst("a%_z")}},
			{Op: OpNotBetween, Args: []Expr{col(1), konst(-1.5), konst(2.5)}},
		}}},
		{Kinds: kinds, Filter: &Expr{Op: OpIn, Args: []Expr{col(2), konst("x"), konst([]byte{0, 1}), konst(nil), konst(true)}},
			Project: []int{4, 0, 2}},
		{Kinds: kinds, Filter: &Expr{Op: OpNot, Args: []Expr{{Op: OpIsNull, Args: []Expr{col(3)}}}},
			GroupBy: []int{2, 0},
			Aggs: []AggSpec{
				{Kind: AggCount, Star: true},
				{Kind: AggSum, Arg: &Expr{Op: OpMul, Args: []Expr{col(0), konst(int64(3))}}},
				{Kind: AggAvg, Arg: &Expr{Op: OpCoalesce, Args: []Expr{col(1), konst(0.0)}}},
				{Kind: AggMin, Arg: &Expr{Op: OpLength, Args: []Expr{col(2)}}},
				{Kind: AggMax, Arg: &Expr{Op: OpParam, Col: 2}},
			}},
		// Lookup joins: a point lookup shipping all inner columns, a prefix
		// lookup with a filtered outer scan and projections on both sides,
		// and a semi-shaped shipment (empty inner projection) keyed by a
		// parameter.
		{Kinds: kinds, Lookup: &Lookup{
			Prefix:   []byte{0x03, 0, 0, 0, 0, 0, 0, 0, 9},
			KeyExprs: []Expr{col(0), col(2)},
			KeyKinds: []table.Kind{table.Int64, table.String},
			Kinds:    []table.Kind{table.Int64, table.String, table.Float64},
		}},
		{Kinds: kinds,
			Filter:  &Expr{Op: OpGe, Args: []Expr{col(1), konst(0.5)}},
			Project: []int{0, 2},
			Lookup: &Lookup{
				Prefix:   []byte{0x03, 0, 0, 0, 0, 0, 0, 0, 11},
				KeyExprs: []Expr{{Op: OpAdd, Args: []Expr{col(0), konst(int64(1))}}},
				KeyKinds: []table.Kind{table.Int64},
				Kinds:    []table.Kind{table.Int64, table.Bytes},
				Project:  []int{1},
			}},
		{Kinds: kinds, Lookup: &Lookup{
			Prefix:   []byte{0x03, 0xff},
			KeyExprs: []Expr{{Op: OpParam, Col: 1}},
			KeyKinds: []table.Kind{table.Bool},
			Kinds:    []table.Kind{table.Bool, table.String},
			Project:  []int{},
		}},
		// An index scan: the pairs are index entries naming rows.
		{Kinds: kinds, Filter: &Expr{Op: OpNotNull, Args: []Expr{col(2)}}, Project: []int{2}, Index: true},
	}
	var out [][]byte
	for _, f := range frags {
		b, err := f.Encode()
		if err != nil {
			tb.Fatalf("encoding seed fragment: %v", err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzFragmentDecode feeds arbitrary bytes through the hand-rolled wire
// codec: Decode must never panic, and anything it accepts must re-encode
// and re-decode to the same fragment (decode(encode(f)) round-trips).
func FuzzFragmentDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		frag, err := Decode(data)
		if err != nil {
			return // malformed input must be rejected, never panic
		}
		enc, err := frag.Encode()
		if err != nil {
			t.Fatalf("decoded fragment does not re-encode: %v", err)
		}
		frag2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded fragment does not decode: %v", err)
		}
		// Compare encodings, not structs: encoding is canonical, and byte
		// equality sidesteps NaN != NaN on float constants.
		enc2, err := frag2.Encode()
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not canonical:\n  first:  %x\n  second: %x", enc, enc2)
		}
	})
}

// FuzzStatesDecode covers the aggregate-state codec the coordinator's
// cross-shard merge runs on every partial row: DecodeStates must never
// panic, and accepted states must round-trip through EncodeStates.
func FuzzStatesDecode(f *testing.F) {
	enc, err := EncodeStates([]AggState{
		{Count: 3, SumI: 12, SumF: 12.5, IsFloat: true, Min: int64(-4), Max: "zz"},
		{Count: 0},
		{Count: 1, Min: []byte{0x00, 0xff}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		states, err := DecodeStates(data)
		if err != nil {
			return
		}
		enc, err := EncodeStates(states)
		if err != nil {
			t.Fatalf("decoded states do not re-encode: %v", err)
		}
		states2, err := DecodeStates(enc)
		if err != nil {
			t.Fatalf("re-encoded states do not decode: %v", err)
		}
		enc2, err := EncodeStates(states2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not canonical:\n  first:  %x\n  second: %x", enc, enc2)
		}
	})
}

// TestFragmentEncodeDecodeRoundTrip pins the deterministic property the
// fuzzer explores: every seed fragment survives encode/decode unchanged.
func TestFragmentEncodeDecodeRoundTrip(t *testing.T) {
	for i, seed := range fuzzSeeds(t) {
		f, err := Decode(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		enc, err := f.Encode()
		if err != nil {
			t.Fatalf("seed %d re-encode: %v", i, err)
		}
		if !bytes.Equal(enc, seed) {
			t.Fatalf("seed %d: encoding not canonical", i)
		}
	}
}
