package globaldb

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"globaldb/gsql/fragment"
	"globaldb/internal/coordinator"
	"globaldb/internal/table"
)

// Both coordinator read contexts are snapshot sources as they stand.
var (
	_ snapshotSource = (*coordinator.Txn)(nil)
	_ snapshotSource = (*coordinator.ROTxn)(nil)
)

// typedReads is the read API Tx and Query share through the read core.
type typedReads interface {
	Get(ctx context.Context, tableName string, pkVals []any) (Row, bool, error)
	ScanPK(ctx context.Context, tableName string, pkPrefix []any, limit int) ([]Row, error)
	ScanIndex(ctx context.Context, tableName, indexName string, prefix []any, limit int) ([]Row, error)
	ScanPKRows(ctx context.Context, tableName string, pkPrefix []any, o ScanOpts) (*Rows, error)
	ScanIndexRows(ctx context.Context, tableName, indexName string, prefix []any, o ScanOpts) (*Rows, error)
	ScanTableRows(ctx context.Context, tableName string, o ScanOpts) (*Rows, error)
}

// drainStats drains a streaming scan and returns its rows with the
// deterministic part of its ScanStats (prefetch hits and WAN wait depend on
// timing).
func drainStats(r *Rows, err error) ([]Row, ScanStats, error) {
	if err != nil {
		return nil, ScanStats{}, err
	}
	rows, err := drainRows(r)
	st := r.ScanStats()
	st.PrefetchHits, st.WANWait = 0, 0
	return rows, st, err
}

// TestReadCoreSameThroughTxAndQuery runs every typed read through a Tx and
// through a Query over the same committed data and requires identical rows
// and per-layer scan counters: the two differ only in their snapshot source,
// so nothing a caller can observe about a read may depend on which one it
// holds.
func TestReadCoreSameThroughTxAndQuery(t *testing.T) {
	db := openDB(t)
	items := &Schema{
		Name: "items",
		Columns: []Column{
			{Name: "w_id", Kind: Int64},
			{Name: "i_id", Kind: Int64},
			{Name: "cat", Kind: String},
			{Name: "qty", Kind: Int64},
		},
		PK:      []int{0, 1},
		Indexes: []Index{{Name: "items_cat", Cols: []int{0, 2}}},
	}
	if err := db.CreateTable(bg, items); err != nil {
		t.Fatal(err)
	}
	sess, _ := db.Connect("xian")
	load, err := sess.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	for w := int64(1); w <= 3; w++ {
		for i := int64(1); i <= 20; i++ {
			if err := load.Insert(bg, "items", Row{w, i, fmt.Sprintf("c%d", i%4), w * i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := load.Commit(bg); err != nil {
		t.Fatal(err)
	}

	tx, err := sess.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort(bg)
	// A Query on replicas, once the RCP has passed the DDL and the load.
	deadline := time.Now().Add(10 * time.Second)
	for db.Cluster().Collector.RCP() < load.CommitTS() {
		if time.Now().After(deadline) {
			t.Fatalf("RCP stuck at %v", db.Cluster().Collector.RCP())
		}
		time.Sleep(2 * time.Millisecond)
	}
	q, err := sess.ReadOnly(bg, AnyStaleness, "items")
	if err != nil {
		t.Fatal(err)
	}
	if !q.OnReplicas() {
		t.Fatal("query must be served from replicas")
	}

	kinds := []table.Kind{table.Int64, table.Int64, table.String, table.Int64}
	col := func(c int) fragment.Expr { return fragment.Expr{Op: fragment.OpCol, Col: c} }
	qtyOver30 := &fragment.Expr{Op: fragment.OpGt, Args: []fragment.Expr{col(3), {Op: fragment.OpConst, Val: int64(30)}}}
	qty := col(3)
	get := func(i int64) func(typedReads) ([]Row, ScanStats, error) {
		return func(r typedReads) ([]Row, ScanStats, error) {
			row, found, err := r.Get(bg, "items", []any{int64(2), i})
			if !found {
				return nil, ScanStats{}, err
			}
			return []Row{row}, ScanStats{}, err
		}
	}
	// Scans that stop early run without prefetch, so the pages fetched do
	// not depend on how far ahead a prefetcher got.
	cases := []struct {
		name string
		want int // rows
		run  func(r typedReads) ([]Row, ScanStats, error)
	}{
		{"get hit", 1, get(7)},
		{"get miss", 0, get(70)},
		{"pk prefix", 20, func(r typedReads) ([]Row, ScanStats, error) {
			return drainStats(r.ScanPKRows(bg, "items", []any{int64(1)}, ScanOpts{PageSize: 7}))
		}},
		{"pk prefix + range", 4, func(r typedReads) ([]Row, ScanStats, error) {
			return drainStats(r.ScanPKRows(bg, "items", []any{int64(2)},
				ScanOpts{Range: &ScanRange{Lo: int64(5), Hi: int64(9), HiExcl: true}}))
		}},
		{"pk prefix slice + limit", 5, func(r typedReads) ([]Row, ScanStats, error) {
			rows, err := r.ScanPK(bg, "items", []any{int64(3)}, 5)
			return rows, ScanStats{}, err
		}},
		{"index prefix", 5, func(r typedReads) ([]Row, ScanStats, error) {
			return drainStats(r.ScanIndexRows(bg, "items", "items_cat", []any{int64(3), "c2"}, ScanOpts{}))
		}},
		{"index prefix slice", 5, func(r typedReads) ([]Row, ScanStats, error) {
			rows, err := r.ScanIndex(bg, "items", "items_cat", []any{int64(1), "c0"}, 0)
			return rows, ScanStats{}, err
		}},
		{"table scan, range + limit", 15, func(r typedReads) ([]Row, ScanStats, error) {
			return drainStats(r.ScanTableRows(bg, "items",
				ScanOpts{Range: &ScanRange{Lo: int64(2)}, Limit: 15, PageSize: 4, Prefetch: -1}))
		}},
		{"table scan, whole table", 60, func(r typedReads) ([]Row, ScanStats, error) {
			return drainStats(r.ScanTableRows(bg, "items", ScanOpts{}))
		}},
		{"pushed filter + projection", 15, func(r typedReads) ([]Row, ScanStats, error) {
			return drainStats(r.ScanTableRows(bg, "items", ScanOpts{
				Pushdown: &fragment.Fragment{Kinds: kinds, Filter: qtyOver30, Project: []int{0, 1, 3}}}))
		}},
		{"pushed partial aggregate", 4, func(r typedReads) ([]Row, ScanStats, error) {
			return drainStats(r.ScanPKRows(bg, "items", []any{int64(2)}, ScanOpts{
				Pushdown: &fragment.Fragment{Kinds: kinds, GroupBy: []int{2},
					Aggs: []fragment.AggSpec{{Kind: fragment.AggCount, Star: true}, {Kind: fragment.AggSum, Arg: &qty}}}}))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			txRows, txStats, err := tc.run(tx)
			if err != nil {
				t.Fatalf("Tx: %v", err)
			}
			qRows, qStats, err := tc.run(q)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if len(txRows) != tc.want {
				t.Fatalf("Tx read %d rows, want %d", len(txRows), tc.want)
			}
			if !reflect.DeepEqual(txRows, qRows) {
				t.Fatalf("rows differ:\n Tx    %v\n Query %v", txRows, qRows)
			}
			if txStats != qStats {
				t.Fatalf("scan stats differ:\n Tx    %+v\n Query %+v", txStats, qStats)
			}
		})
	}
}
