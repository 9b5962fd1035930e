package datanode

import (
	"encoding/hex"
	"slices"
	"testing"

	"globaldb/gsql/fragment"
	"globaldb/internal/keys"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/table"
	"globaldb/internal/ts"
)

// The fuzz store holds the scan benchmark's data set in small: items
// (table 1, indexed on (w_id, tag)) over two warehouses and one warehouses
// row (table 2) each.
var (
	fuzzItems = &table.Schema{ID: 1, Name: "items", PK: []int{0, 1}, Columns: []table.Column{
		{Name: "w_id", Kind: table.Int64}, {Name: "i_id", Kind: table.Int64},
		{Name: "qty", Kind: table.Int64}, {Name: "src", Kind: table.Int64},
		{Name: "price", Kind: table.Float64}, {Name: "tag", Kind: table.String}},
		Indexes: []table.Index{{ID: 3, Name: "items_tag", Cols: []int{0, 5}}}}
	fuzzWarehouses = &table.Schema{ID: 2, Name: "warehouses", PK: []int{0}, Columns: []table.Column{
		{Name: "w_id", Kind: table.Int64}, {Name: "name", Kind: table.String},
		{Name: "code", Kind: table.Int64}}}
)

// fuzzScanFragments are the fragments the computing node sends for the
// scan benchmark's filtered scan (SELECT i_id, price FROM items WHERE
// qty >= 90), aggregate (SELECT tag, COUNT(*), SUM(qty) FROM items GROUP
// BY tag) and lookup join (SELECT i.i_id, w.name FROM items i JOIN
// warehouses w ON w.w_id = i.w_id WHERE i.qty >= 95), bound, and the
// filtered scan again over the items index.
var fuzzScanFragments = []string{
	"01060101010102030109020202000101000000000000005a0001020104000000",
	"0106010101010203000001050201010002000102020000",
	"01060101010102030109020202000101000000000000005f0001010100000109030000000000000002010200000103010301010101",
	"01060101010102030109020202000101000000000000005a000102010400000001",
}

func fuzzStore(tb testing.TB) *mvcc.Store {
	tb.Helper()
	store := mvcc.NewStore()
	put := func(s *table.Schema, row table.Row) {
		key, err := s.PrimaryKey(row)
		if err != nil {
			tb.Fatal(err)
		}
		val, err := s.EncodeRow(row)
		if err != nil {
			tb.Fatal(err)
		}
		store.ApplyCommitted(key, val, false, ts.Timestamp(5))
		for _, ix := range s.Indexes {
			ik, err := s.IndexKey(ix, row)
			if err != nil {
				tb.Fatal(err)
			}
			store.ApplyCommitted(ik, key, false, ts.Timestamp(5))
		}
	}
	for w := int64(1); w <= 2; w++ {
		for i := int64(1); i <= 40; i++ {
			put(fuzzItems, table.Row{w, i, i * 7 % 100, i%2 + 1, float64(i%500) + 0.5, []string{"t0", "t1", "t2"}[i%3]})
		}
		put(fuzzWarehouses, table.Row{w, []string{"", "warehouse-1", "warehouse-2"}[w], w})
	}
	return store
}

// fuzzScanPage runs one page of a fragment over the items table, or over
// its index when the fragment scans index entries.
func fuzzScanPage(store *mvcc.Store, frag []byte) (ScanPageResp, error) {
	start := fuzzItems.TablePrefix()
	if f, err := fragment.Decode(frag); err == nil && f.Index {
		start, _ = fuzzItems.IndexPrefix(fuzzItems.Indexes[0], nil)
	}
	return execFragScanPage(bg, store, ScanPageReq{Start: start, End: keys.PrefixEnd(start),
		SnapTS: ts.Timestamp(10), MaxPage: 8, Frag: frag}, 0)
}

// FuzzFragmentScan feeds arbitrary fragment bytes, as a peer could send
// them, through one page of the data node's fragment executor: nothing may
// panic, and every page the node returns must decode at the computing node
// with the fragment's layout. The second input goes to that decoder as a
// shipped row: arbitrary bytes never panic it either. The seed corpus
// (testdata/fuzz/FuzzFragmentScan) holds the scan benchmark's three
// fragments, each with one row of the page it ships, and the filtered scan
// over the items index.
func FuzzFragmentScan(f *testing.F) {
	for _, h := range fuzzScanFragments {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, []byte{})
	}
	store := fuzzStore(f)
	itemKinds := []table.Kind{table.Int64, table.Int64, table.Int64, table.Int64, table.Float64, table.String}
	f.Fuzz(func(t *testing.T, fb, row []byte) {
		frag, err := fragment.Decode(fb)
		if err != nil {
			return
		}
		dec := frag.Layout().Decoder()
		_, _ = dec.DecodeAppend(row, row, nil) // may fail, must not panic
		resp, err := fuzzScanPage(store, fb)
		if err != nil {
			return
		}
		// A plain scan ships the stored values as they are; they decode by
		// the table's own kinds, the only kinds a computing node sends.
		if frag.Project == nil && frag.Lookup == nil && !frag.HasAggs() && !slices.Equal(frag.Kinds, itemKinds) {
			return
		}
		dec = frag.Layout().Decoder()
		for _, kv := range resp.KVs {
			if _, err := dec.DecodeAppend(kv.Key, kv.Value, nil); err != nil {
				t.Fatalf("shipped pair %x/%x does not decode: %v", kv.Key, kv.Value, err)
			}
		}
	})
}

// TestFuzzScanFragmentsShipRows keeps the fuzz seeds honest: each of the
// benchmark's fragments ships at least one row from the fuzz store.
func TestFuzzScanFragmentsShipRows(t *testing.T) {
	store := fuzzStore(t)
	for _, h := range fuzzScanFragments {
		b, _ := hex.DecodeString(h)
		resp, err := fuzzScanPage(store, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.KVs) == 0 {
			t.Fatalf("fragment %s ships no rows", h)
		}
		t.Logf("%s: first row %x %x", h, resp.KVs[0].Key, resp.KVs[0].Value)
	}
}
