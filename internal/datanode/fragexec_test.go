package datanode

import (
	"testing"

	"globaldb/gsql/fragment"
	"globaldb/internal/keys"
	"globaldb/internal/repl"
	"globaldb/internal/table"
	"globaldb/internal/ts"
)

// fragSchema is the two-column (id BIGINT, qty BIGINT) layout the fragment
// tests load: key (1, id), value the encoded row.
var fragKinds = []table.Kind{table.Int64, table.Int64}

func loadFragRows(t *testing.T, p *Primary, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		key := keys.NewEncoder(24).Uint64(1).Int64(int64(i)).Bytes()
		val := keys.NewEncoder(24).Int64(int64(i)).Int64(int64(i % 10)).Bytes()
		p.Store().ApplyCommitted(key, val, false, ts.Timestamp(5))
	}
}

func fragRange() (start, end []byte) {
	start = keys.NewEncoder(16).Uint64(1).Bytes()
	return start, keys.PrefixEnd(start)
}

// TestFragFilterPagedScan drives a filter fragment through the paged RPC:
// only matching rows come back, pages respect MaxPage on qualifying rows,
// resume keys continue the walk, and Examined accounts the storage rows
// evaluated node-side.
func TestFragFilterPagedScan(t *testing.T) {
	r := newRig(t, repl.Async)
	loadFragRows(t, r.primary, 100)
	frag := &fragment.Fragment{
		Kinds: fragKinds,
		// qty = 0, i.e. id % 10 == 0: 10 of 100 rows match.
		Filter: &fragment.Expr{Op: fragment.OpEq, Args: []fragment.Expr{
			{Op: fragment.OpCol, Col: 1}, {Op: fragment.OpConst, Val: int64(0)},
		}},
	}
	fb, err := frag.Encode()
	if err != nil {
		t.Fatal(err)
	}
	start, end := fragRange()
	var got []int64
	examined := 0
	pages := 0
	dec := frag.Layout().Decoder()
	for {
		resp, err := r.client.ScanPageFrag(bg, "dn0", start, end, ts.Timestamp(10), 0, 4, fb, 0)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		if len(resp.KVs) > 4 {
			t.Fatalf("page of %d rows exceeds MaxPage 4", len(resp.KVs))
		}
		examined += resp.Examined
		for _, kv := range resp.KVs {
			row, err := dec.DecodeAppend(kv.Key, kv.Value, nil)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, row[0].(int64))
		}
		if !resp.More {
			break
		}
		start = resp.Next
	}
	if len(got) != 10 {
		t.Fatalf("matched %d rows, want 10: %v", len(got), got)
	}
	for i, id := range got {
		if id != int64((i+1)*10) {
			t.Fatalf("row %d = %d, want %d", i, id, (i+1)*10)
		}
	}
	if examined != 100 {
		t.Fatalf("examined %d storage rows, want 100", examined)
	}
	if pages < 3 {
		t.Fatalf("expected multiple pages, got %d", pages)
	}
}

// TestFragProjectionShrinksRows checks DN-side projection re-encodes only
// the requested columns.
func TestFragProjectionShrinksRows(t *testing.T) {
	r := newRig(t, repl.Async)
	loadFragRows(t, r.primary, 5)
	frag := &fragment.Fragment{Kinds: fragKinds, Project: []int{1}}
	fb, err := frag.Encode()
	if err != nil {
		t.Fatal(err)
	}
	start, end := fragRange()
	resp, err := r.client.ScanPageFrag(bg, "dn0", start, end, ts.Timestamp(10), 0, 0, fb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.KVs) != 5 {
		t.Fatalf("got %d rows, want 5", len(resp.KVs))
	}
	dec := frag.Layout().Decoder()
	for i, kv := range resp.KVs {
		row, err := dec.DecodeAppend(kv.Key, kv.Value, nil)
		if err != nil {
			t.Fatal(err)
		}
		if row[0] != nil {
			t.Fatalf("unprojected column shipped: %v", row)
		}
		want := int64((i + 1) % 10)
		if row[1] != want {
			t.Fatalf("row %d qty = %v, want %d", i, row[1], want)
		}
	}
}

// TestFragAggregatePartials checks a grouped aggregate fragment returns
// one partial row per group, in group-key order, with states that
// finalize to the right values — and that the same request on a replica
// (the RCP read path) agrees.
func TestFragAggregatePartials(t *testing.T) {
	r := newRig(t, repl.Async)
	loadFragRows(t, r.primary, 100)
	frag := &fragment.Fragment{
		Kinds:   fragKinds,
		GroupBy: []int{1},
		Aggs: []fragment.AggSpec{
			{Kind: fragment.AggCount, Star: true},
			{Kind: fragment.AggSum, Arg: &fragment.Expr{Op: fragment.OpCol, Col: 0}},
		},
	}
	fb, err := frag.Encode()
	if err != nil {
		t.Fatal(err)
	}
	start, end := fragRange()
	check := func(node string) {
		t.Helper()
		resp, err := r.client.ScanPageFrag(bg, node, start, end, ts.Timestamp(10), 0, 0, fb, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.More {
			t.Fatal("aggregate response must be complete in one page")
		}
		if len(resp.KVs) != 10 {
			t.Fatalf("%s: got %d groups, want 10", node, len(resp.KVs))
		}
		if resp.Examined != 100 {
			t.Fatalf("%s: examined %d, want 100", node, resp.Examined)
		}
		dec := frag.Layout().Decoder()
		for g, kv := range resp.KVs {
			gvals, err := dec.DecodeAppend(kv.Key, kv.Value, nil)
			if err != nil {
				t.Fatal(err)
			}
			if gvals[0] != int64(g) {
				t.Fatalf("group %d key = %v (groups must arrive in key order)", g, gvals)
			}
			states, err := fragment.DecodeStates(kv.Value)
			if err != nil {
				t.Fatal(err)
			}
			if c := states[0].Final(fragment.AggCount); c != int64(10) {
				t.Fatalf("group %d count = %v", g, c)
			}
			// Group g holds ids g, g+10, ..., g+90 (with 100 for g=0):
			// sum = 10g + 450, plus 100 extra for group 0 (id 100).
			want := int64(10*g + 450)
			if g == 0 {
				want += 100
			}
			if s := states[1].Final(fragment.AggSum); s != want {
				t.Fatalf("group %d sum = %v, want %d", g, s, want)
			}
		}
	}
	check("dn0")
	// The replica serves the identical fragment at the same snapshot.
	// Seed its store directly (ApplyCommitted bypasses the redo stream).
	for i := 1; i <= 100; i++ {
		key := keys.NewEncoder(24).Uint64(1).Int64(int64(i)).Bytes()
		val := keys.NewEncoder(24).Int64(int64(i)).Int64(int64(i % 10)).Bytes()
		r.replica.Applier().Store().ApplyCommitted(key, val, false, ts.Timestamp(5))
	}
	check("dn0r0")
}

// TestFragBadRequests: corrupt fragments and unbound parameters error
// cleanly over the RPC instead of panicking the node.
func TestFragBadRequests(t *testing.T) {
	r := newRig(t, repl.Async)
	loadFragRows(t, r.primary, 3)
	start, end := fragRange()
	if _, err := r.client.ScanPageFrag(bg, "dn0", start, end, ts.Timestamp(10), 0, 0, []byte{0xFF, 0x01}, 0); err == nil {
		t.Fatal("corrupt fragment must error")
	}
	frag := &fragment.Fragment{
		Kinds:  fragKinds,
		Filter: &fragment.Expr{Op: fragment.OpParam, Col: 1},
	}
	fb, err := frag.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.ScanPageFrag(bg, "dn0", start, end, ts.Timestamp(10), 0, 0, fb, 0); err == nil {
		t.Fatal("unbound parameter must error")
	}
}
