package globaldb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"globaldb/gsql/fragment"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/table"
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
// and per-layer scan counters: the two differ only in their read route,
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
		{"index prefix, pushed filter + projection", 2, func(r typedReads) ([]Row, ScanStats, error) {
			return drainStats(r.ScanIndexRows(bg, "items", "items_cat", []any{int64(3), "c1"}, ScanOpts{
				Pushdown: &fragment.Fragment{Kinds: kinds, Filter: qtyOver30, Project: []int{1, 3}}}))
		}},
		{"index prefix, pushed partial aggregate", 1, func(r typedReads) ([]Row, ScanStats, error) {
			return drainStats(r.ScanIndexRows(bg, "items", "items_cat", []any{int64(2), "c3"}, ScanOpts{
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

// TestIndexScanOneSnapshot moves rows between two index values while
// readers scan both: each move deletes a row under "a" and inserts it under
// "b" (or back) in one transaction. Every read of the two index prefixes,
// through a Tx on the primaries and through a Query on the replicas, must
// see each row exactly once and under the value it holds: the data node
// reads the row an entry names at the scan's own snapshot.
func TestIndexScanOneSnapshot(t *testing.T) {
	db := openDB(t)
	items := &Schema{
		Name: "items",
		Columns: []Column{
			{Name: "w_id", Kind: Int64},
			{Name: "i_id", Kind: Int64},
			{Name: "cat", Kind: String},
		},
		PK:      []int{0, 1},
		Indexes: []Index{{Name: "items_cat", Cols: []int{0, 2}}},
	}
	if err := db.CreateTable(bg, items); err != nil {
		t.Fatal(err)
	}
	const rows, moves = 16, 20
	sess, _ := db.Connect("xian")
	load, err := sess.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < rows; i++ {
		if err := load.Insert(bg, "items", Row{int64(1), i, []string{"a", "b"}[i%2]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Commit(bg); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for db.Cluster().Collector.RCP() < load.CommitTS() {
		if time.Now().After(deadline) {
			t.Fatalf("RCP stuck at %v", db.Cluster().Collector.RCP())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// read scans both index values and checks what it sees.
	read := func(who string, r typedReads) {
		n := 0
		for _, cat := range []string{"a", "b"} {
			got, err := r.ScanIndex(bg, "items", "items_cat", []any{int64(1), cat}, 0)
			if err != nil {
				t.Errorf("%s: %v", who, err)
				return
			}
			for _, row := range got {
				if row[2] != cat {
					t.Errorf("%s: row %v under index value %q", who, row, cat)
				}
			}
			n += len(got)
		}
		if n != rows {
			t.Errorf("%s: read %d rows across both index values, want %d", who, n, rows)
		}
	}
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for m := 0; m < moves; m++ {
				tx, err := sess.Begin(bg)
				if err != nil {
					t.Error(err)
					return
				}
				row, found, err := tx.Get(bg, "items", []any{int64(1), rng.Int63n(rows)})
				if err != nil || !found {
					t.Errorf("move: %v %v", found, err)
					tx.Abort(bg)
					return
				}
				moved := Row{row[0], row[1], map[any]string{"a": "b", "b": "a"}[row[2]]}
				if err := tx.DeleteRow(bg, "items", row); err != nil {
					t.Error(err)
				}
				if err := tx.Insert(bg, "items", moved); err != nil {
					t.Error(err)
				}
				if err := tx.Commit(bg); err != nil && !errors.Is(err, mvcc.ErrWriteConflict) {
					t.Errorf("move commit: %v", err)
				}
			}
		}(int64(w))
	}
	reads := [2]int{}
	for i, kind := range []string{"Tx", "Query"} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if kind == "Tx" {
					tx, err := sess.Begin(bg)
					if err != nil {
						t.Error(err)
						return
					}
					read(kind, tx)
					tx.Abort(bg)
				} else {
					q, err := sess.ReadOnly(bg, AnyStaleness, "items")
					if err != nil {
						t.Error(err)
						return
					}
					read(kind, q)
				}
				reads[i]++
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if reads[0] == 0 || reads[1] == 0 {
		t.Fatalf("reads during the moves: %d through a Tx, %d through a Query", reads[0], reads[1])
	}
	t.Logf("reads during the moves: %d through a Tx, %d through a Query", reads[0], reads[1])
}
