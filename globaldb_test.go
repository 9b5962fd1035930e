package globaldb

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"globaldb/internal/ts"
)

var bg = context.Background()

func fastCfg() Config {
	cfg := ThreeCity()
	cfg.TimeScale = 0.02
	cfg.Shards = 4
	return cfg
}

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func accountsSchema() *Schema {
	return &Schema{
		Name: "accounts",
		Columns: []Column{
			{Name: "id", Kind: Int64},
			{Name: "owner", Kind: String},
			{Name: "balance", Kind: Float64},
		},
		PK: []int{0},
		Indexes: []Index{
			{Name: "accounts_owner", Cols: []int{0, 1}},
		},
	}
}

func ordersSchema() *Schema {
	return &Schema{
		Name: "orders",
		Columns: []Column{
			{Name: "w_id", Kind: Int64},
			{Name: "o_id", Kind: Int64},
			{Name: "item", Kind: String},
		},
		PK: []int{0, 1},
	}
}

func TestOpenAndConnect(t *testing.T) {
	db := openDB(t)
	if got := len(db.Regions()); got != 3 {
		t.Fatalf("regions = %d", got)
	}
	if db.Mode() != ts.ModeGClock {
		t.Fatalf("mode = %v", db.Mode())
	}
	if _, err := db.Connect("mars"); err == nil {
		t.Fatal("unknown region must fail")
	}
	s, err := db.Connect("xian")
	if err != nil || s.Region() != "xian" {
		t.Fatalf("connect: %v %v", s, err)
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable(bg, accountsSchema()); err != nil {
		t.Fatal(err)
	}
	sess, _ := db.Connect("xian")

	tx, err := sess.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(bg, "accounts", Row{int64(1), "alice", 100.0}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}

	tx2, _ := sess.Begin(bg)
	row, found, err := tx2.Get(bg, "accounts", []any{int64(1)})
	if err != nil || !found {
		t.Fatalf("get: %v %v", found, err)
	}
	if row[1] != "alice" || row[2] != 100.0 {
		t.Fatalf("row = %v", row)
	}
	row[2] = 175.5
	if err := tx2.Update(bg, "accounts", row); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(bg); err != nil {
		t.Fatal(err)
	}

	tx3, _ := sess.Begin(bg)
	row, _, _ = tx3.Get(bg, "accounts", []any{int64(1)})
	if row[2] != 175.5 {
		t.Fatalf("after update: %v", row)
	}
	if err := tx3.Delete(bg, "accounts", []any{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(bg); err != nil {
		t.Fatal(err)
	}

	tx4, _ := sess.Begin(bg)
	if _, found, _ := tx4.Get(bg, "accounts", []any{int64(1)}); found {
		t.Fatal("deleted row visible")
	}
	if err := tx4.Delete(bg, "accounts", []any{int64(1)}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	tx4.Abort(bg)
}

// TestDeleteRowSkipsTheRead: a caller that already holds the row (the SQL
// executor's DELETE does) removes it and its index entries without reading
// it again — no primary read is issued — and, the write being buffered, the
// transaction itself no longer sees the row.
func TestDeleteRowSkipsTheRead(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable(bg, accountsSchema()); err != nil {
		t.Fatal(err)
	}
	sess, _ := db.Connect("xian")
	tx, _ := sess.Begin(bg)
	for i, owner := range []string{"alice", "bob"} {
		if err := tx.Insert(bg, "accounts", Row{int64(i + 1), owner, 10.0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}

	tx2, _ := sess.Begin(bg)
	row, found, err := tx2.Get(bg, "accounts", []any{int64(1)})
	if err != nil || !found {
		t.Fatalf("get: %v %v", found, err)
	}
	reads := sess.CN().Stats().PrimaryReads
	if err := tx2.DeleteRow(bg, "accounts", row); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := tx2.Get(bg, "accounts", []any{int64(1)}); found {
		t.Fatal("transaction still sees the row it deleted")
	}
	if got := sess.CN().Stats().PrimaryReads - reads; got != 0 {
		t.Fatalf("DeleteRow and the read-back issued %d primary reads, want 0", got)
	}
	if err := tx2.Commit(bg); err != nil {
		t.Fatal(err)
	}

	tx3, _ := sess.Begin(bg)
	defer tx3.Abort(bg)
	if _, found, _ := tx3.Get(bg, "accounts", []any{int64(1)}); found {
		t.Fatal("deleted row visible after commit")
	}
	if rows, err := tx3.ScanIndex(bg, "accounts", "accounts_owner", []any{int64(1)}, 0); err != nil || len(rows) != 0 {
		t.Fatalf("index entry survived the delete: %v %v", rows, err)
	}
	if _, found, _ := tx3.Get(bg, "accounts", []any{int64(2)}); !found {
		t.Fatal("the other row vanished")
	}
}

func TestScanPKPrefix(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable(bg, ordersSchema()); err != nil {
		t.Fatal(err)
	}
	sess, _ := db.Connect("langzhong")
	tx, _ := sess.Begin(bg)
	for w := int64(1); w <= 2; w++ {
		for o := int64(1); o <= 5; o++ {
			if err := tx.Insert(bg, "orders", Row{w, o, fmt.Sprintf("item-%d-%d", w, o)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}

	tx2, _ := sess.Begin(bg)
	rows, err := tx2.ScanPK(bg, "orders", []any{int64(1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("scan w=1: %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0] != int64(1) || r[1] != int64(i+1) {
			t.Fatalf("row %d out of order: %v", i, r)
		}
	}
	// Limited scan.
	rows, _ = tx2.ScanPK(bg, "orders", []any{int64(2)}, 3)
	if len(rows) != 3 {
		t.Fatalf("limited scan: %d rows", len(rows))
	}
	// Prefix without the distribution column is rejected.
	if _, err := tx2.ScanPK(bg, "orders", nil, 0); err == nil {
		t.Fatal("empty prefix must fail")
	}
	tx2.Commit(bg)
}

func TestScanIndex(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable(bg, accountsSchema()); err != nil {
		t.Fatal(err)
	}
	sess, _ := db.Connect("xian")
	tx, _ := sess.Begin(bg)
	tx.Insert(bg, "accounts", Row{int64(10), "bob", 5.0})
	tx.Insert(bg, "accounts", Row{int64(11), "bob", 6.0})
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}
	tx2, _ := sess.Begin(bg)
	rows, err := tx2.ScanIndex(bg, "accounts", "accounts_owner", []any{int64(10), "bob"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != int64(10) {
		t.Fatalf("index scan: %v", rows)
	}
	// Unknown index.
	if _, err := tx2.ScanIndex(bg, "accounts", "nope", []any{int64(10)}, 0); err == nil {
		t.Fatal("unknown index must fail")
	}
	tx2.Commit(bg)
}

// TestIndexScanMessagesPerPage counts the request messages an index scan
// puts on the link from its city to a shard primary in another city: one
// per page, because the data node reads the rows its entries name, not one
// more per row read back from the computing node.
func TestIndexScanMessagesPerPage(t *testing.T) {
	// The Xi'an->Dongguan link carries only this test's requests: no
	// heartbeats to ship, the RCP collector sits in Langzhong, and the
	// scanned shard keeps no replica in Xi'an whose acknowledgements would
	// travel it.
	cfg := fastCfg()
	cfg.RCP.HeartbeatInterval = time.Hour
	cfg.ReplicasPerShard = 1
	cfg.Shards = 6 // shard 5: primary in Dongguan, replica in Langzhong
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
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
	w := int64(1)
	for db.Cluster().ShardOf(w) != 5 {
		w++
	}
	if db.Cluster().Primaries()[5].Region() != "dongguan" || db.Cluster().Replicas(5)[0].Region() != "langzhong" {
		t.Fatal("shard 5 is not placed in Dongguan with its replica in Langzhong")
	}
	const k = 5
	sess, _ := db.Connect("xian")
	load, _ := sess.Begin(bg)
	for i := int64(1); i <= 2*k; i++ {
		cat := "cold"
		if i%2 == 0 {
			cat = "hot"
		}
		if err := load.Insert(bg, "items", Row{w, i, cat}); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Commit(bg); err != nil {
		t.Fatal(err)
	}
	tx, _ := sess.Begin(bg)
	defer tx.Abort(bg)
	sent := func() int64 { return db.Cluster().Net.LinkStats("xian", "dongguan").Messages }
	before := sent()
	rows, err := tx.ScanIndex(bg, "items", "items_cat", []any{w, "hot"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != k {
		t.Fatalf("index scan read %d rows, want %d", len(rows), k)
	}
	if got := sent() - before; got != 1 {
		t.Fatalf("index scan of %d rows in one page sent %d messages to Dongguan, want 1", k, got)
	}
}

func TestReadOnlyQueryOnReplicas(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable(bg, accountsSchema()); err != nil {
		t.Fatal(err)
	}
	sess, _ := db.Connect("xian")
	tx, _ := sess.Begin(bg)
	tx.Insert(bg, "accounts", Row{int64(5), "eve", 42.0})
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}
	// Wait for the RCP to pass both the DDL and the commit.
	deadline := time.Now().Add(10 * time.Second)
	for db.Cluster().Collector.RCP() < tx.CommitTS() {
		if time.Now().After(deadline) {
			t.Fatalf("RCP stuck at %v", db.Cluster().Collector.RCP())
		}
		time.Sleep(2 * time.Millisecond)
	}
	q, err := sess.ReadOnly(bg, AnyStaleness, "accounts")
	if err != nil {
		t.Fatal(err)
	}
	if !q.OnReplicas() {
		t.Fatal("query must be served from replicas")
	}
	row, found, err := q.Get(bg, "accounts", []any{int64(5)})
	if err != nil || !found || row[1] != "eve" {
		t.Fatalf("replica get: %v %v %v", row, found, err)
	}
	rows, err := q.ScanPK(bg, "accounts", []any{int64(5)}, 0)
	if err != nil || len(rows) != 1 {
		t.Fatalf("replica scan: %v %v", rows, err)
	}
	// Unknown table in the gate list.
	if _, err := sess.ReadOnly(bg, AnyStaleness, "ghosts"); err == nil {
		t.Fatal("unknown table must fail")
	}
}

func TestTransitionsViaPublicAPI(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable(bg, accountsSchema()); err != nil {
		t.Fatal(err)
	}
	sess, _ := db.Connect("dongguan")
	write := func(id int64) {
		t.Helper()
		tx, err := sess.Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(bg, "accounts", Row{id, "t", 1.0}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(bg); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	if err := db.TransitionToGTM(bg); err != nil {
		t.Fatal(err)
	}
	if db.Mode() != ts.ModeGTM {
		t.Fatalf("mode = %v", db.Mode())
	}
	write(2)
	if err := db.TransitionToGClock(bg); err != nil {
		t.Fatal(err)
	}
	write(3)
	// All three rows visible.
	tx, _ := sess.Begin(bg)
	for id := int64(1); id <= 3; id++ {
		if _, found, err := tx.Get(bg, "accounts", []any{id}); err != nil || !found {
			t.Fatalf("row %d after transitions: %v %v", id, found, err)
		}
	}
	tx.Commit(bg)
}

func TestDropTable(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable(bg, accountsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable(bg, "accounts"); err != nil {
		t.Fatal(err)
	}
	sess, _ := db.Connect("xian")
	tx, _ := sess.Begin(bg)
	if err := tx.Insert(bg, "accounts", Row{int64(1), "x", 1.0}); err == nil {
		t.Fatal("insert into dropped table must fail")
	}
	tx.Abort(bg)
	if err := db.DropTable(bg, "accounts"); err == nil {
		t.Fatal("double drop must fail")
	}
}

func TestMultiShardTransactionAtomicity(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable(bg, accountsSchema()); err != nil {
		t.Fatal(err)
	}
	sess, _ := db.Connect("xian")
	// Find two ids on different shards.
	var a, b int64 = 1, 2
	for db.Cluster().ShardOf(a) == db.Cluster().ShardOf(b) {
		b++
	}
	tx, _ := sess.Begin(bg)
	tx.Insert(bg, "accounts", Row{a, "a", 50.0})
	tx.Insert(bg, "accounts", Row{b, "b", 50.0})
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}

	// Transfer between them atomically (2PC under the hood).
	tx2, _ := sess.Begin(bg)
	ra, _, _ := tx2.Get(bg, "accounts", []any{a})
	rb, _, _ := tx2.Get(bg, "accounts", []any{b})
	ra[2] = ra[2].(float64) - 10
	rb[2] = rb[2].(float64) + 10
	tx2.Update(bg, "accounts", ra)
	tx2.Update(bg, "accounts", rb)
	if err := tx2.Commit(bg); err != nil {
		t.Fatal(err)
	}

	tx3, _ := sess.Begin(bg)
	ra, _, _ = tx3.Get(bg, "accounts", []any{a})
	rb, _, _ = tx3.Get(bg, "accounts", []any{b})
	if ra[2].(float64)+rb[2].(float64) != 100.0 {
		t.Fatalf("sum = %v", ra[2].(float64)+rb[2].(float64))
	}
	tx3.Commit(bg)
}
