package globaldb

import (
	"fmt"
	"testing"
	"time"
)

// loadOrderRows commits n orders per warehouse for warehouses 1..w.
func loadOrderRows(t *testing.T, db *DB, w, n int) {
	t.Helper()
	sess, _ := db.Connect("xian")
	tx, err := sess.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	for wid := 1; wid <= w; wid++ {
		for oid := 1; oid <= n; oid++ {
			if err := tx.Insert(bg, "orders", Row{int64(wid), int64(oid), fmt.Sprintf("item-%d-%d", wid, oid)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}
}

func TestRowsIteratorPagedPKScan(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable(bg, ordersSchema()); err != nil {
		t.Fatal(err)
	}
	loadOrderRows(t, db, 2, 20)
	sess, _ := db.Connect("xian")
	tx, _ := sess.Begin(bg)
	defer tx.Abort(bg)

	// A page size far below the row count forces multiple round trips; the
	// iterator must still yield every row exactly once, in key order.
	rows, err := tx.ScanPKRows(bg, "orders", []any{int64(1)}, ScanOpts{PageSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []Row
	for rows.Next() {
		got = append(got, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("rows = %d, want 20", len(got))
	}
	for i, r := range got {
		if r[0] != int64(1) || r[1] != int64(i+1) {
			t.Fatalf("row %d = %v", i, r)
		}
	}

	// The drain wrapper agrees with the iterator.
	drained, err := tx.ScanPK(bg, "orders", []any{int64(1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(drained) != len(got) {
		t.Fatalf("ScanPK %d rows vs iterator %d", len(drained), len(got))
	}
}

func TestRowsIteratorRangePushdown(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable(bg, ordersSchema()); err != nil {
		t.Fatal(err)
	}
	loadOrderRows(t, db, 1, 30)
	sess, _ := db.Connect("xian")
	tx, _ := sess.Begin(bg)
	defer tx.Abort(bg)

	check := func(rng *ScanRange, want []int64) {
		t.Helper()
		rows, err := tx.ScanPKRows(bg, "orders", []any{int64(1)}, ScanOpts{Range: rng})
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var got []int64
		for rows.Next() {
			got = append(got, rows.Row()[1].(int64))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("range %+v: got %v want %v", rng, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("range %+v: got %v want %v", rng, got, want)
			}
		}
	}

	check(&ScanRange{Lo: int64(28)}, []int64{28, 29, 30})
	check(&ScanRange{Lo: int64(28), LoExcl: true}, []int64{29, 30})
	check(&ScanRange{Hi: int64(3)}, []int64{1, 2, 3})
	check(&ScanRange{Hi: int64(3), HiExcl: true}, []int64{1, 2})
	check(&ScanRange{Lo: int64(10), Hi: int64(12)}, []int64{10, 11, 12})
	check(&ScanRange{Lo: int64(10), LoExcl: true, Hi: int64(12), HiExcl: true}, []int64{11})

	// The range narrows what storage actually scans, not just the output.
	before := storageRowsScanned(db)
	check(&ScanRange{Lo: int64(5), Hi: int64(6)}, []int64{5, 6})
	if delta := storageRowsScanned(db) - before; delta > 4 {
		t.Fatalf("range scan touched %d storage rows, want <= 4", delta)
	}

	// A fully bound PK leaves no column for the range to apply to.
	if _, err := tx.ScanPKRows(bg, "orders", []any{int64(1), int64(2)}, ScanOpts{Range: &ScanRange{Lo: int64(1)}}); err == nil {
		t.Fatal("range over a fully bound PK must fail")
	}
}

func storageRowsScanned(db *DB) int64 {
	var total int64
	for _, p := range db.Cluster().Primaries() {
		total += p.Store().RowsScanned()
	}
	for shard := 0; shard < db.Cluster().Shards(); shard++ {
		for _, r := range db.Cluster().Replicas(shard) {
			total += r.Applier().Store().RowsScanned()
		}
	}
	return total
}

func TestRowsIteratorLimitStopsFetching(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable(bg, ordersSchema()); err != nil {
		t.Fatal(err)
	}
	loadOrderRows(t, db, 1, 200)
	sess, _ := db.Connect("xian")
	tx, _ := sess.Begin(bg)
	defer tx.Abort(bg)

	before := storageRowsScanned(db)
	rows, err := tx.ScanPKRows(bg, "orders", []any{int64(1)}, ScanOpts{Limit: 5, PageSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	rows.Close()
	if err := rows.Err(); err != nil || n != 5 {
		t.Fatalf("rows = %d err = %v", n, err)
	}
	if delta := storageRowsScanned(db) - before; delta > 8 {
		t.Fatalf("LIMIT 5 with page 8 touched %d storage rows, want <= 8", delta)
	}
}

func TestRowsIteratorTableKeyOrderMerge(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable(bg, ordersSchema()); err != nil {
		t.Fatal(err)
	}
	loadOrderRows(t, db, 5, 4) // warehouses hash across the 4 shards
	sess, _ := db.Connect("xian")
	tx, _ := sess.Begin(bg)
	defer tx.Abort(bg)

	rows, err := tx.ScanTableRows(bg, "orders", ScanOpts{PageSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got [][2]int64
	for rows.Next() {
		r := rows.Row()
		got = append(got, [2]int64{r[0].(int64), r[1].(int64)})
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("rows = %d, want 20", len(got))
	}
	// Global primary-key order regardless of shard placement.
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatalf("row %d out of PK order: %v after %v", i, b, a)
		}
	}
}

func TestRowsIteratorReadOnlyQuery(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable(bg, accountsSchema()); err != nil {
		t.Fatal(err)
	}
	sess, _ := db.Connect("xian")
	tx, _ := sess.Begin(bg)
	for i := 1; i <= 12; i++ {
		owner := "alice"
		if i%2 == 0 {
			owner = "bob"
		}
		if err := tx.Insert(bg, "accounts", Row{int64(i), owner, float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		q, err := sess.ReadOnly(bg, AnyStaleness, "accounts")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := q.ScanTableRows(bg, "accounts", ScanOpts{PageSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		rows.Close()
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if n == 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("read-only streaming scan saw %d rows, want 12", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
