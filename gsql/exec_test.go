package gsql

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"globaldb"
	"globaldb/internal/keys"
	"globaldb/internal/ts"
)

var bg = context.Background()

// benchClusterConfig is the shared fast three-city test topology.
func benchClusterConfig() globaldb.Config {
	cfg := globaldb.ThreeCity()
	cfg.TimeScale = 0.02
	cfg.Shards = 4
	return cfg
}

func openBenchDB(cfg globaldb.Config) (*globaldb.DB, error) { return globaldb.Open(cfg) }

// openSQL builds a fast in-process three-city cluster with a SQL session
// homed in Xi'an, pre-loaded with a small order/line dataset.
func openSQL(t *testing.T) *Session {
	t.Helper()
	db, err := globaldb.Open(benchClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	s, err := Connect(db, "xian")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func exec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(bg, sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func execErr(t *testing.T, s *Session, sql string) error {
	t.Helper()
	_, err := s.Exec(bg, sql)
	if err == nil {
		t.Fatalf("Exec(%q) succeeded, want error", sql)
	}
	return err
}

func loadOrders(t *testing.T, s *Session) {
	t.Helper()
	exec(t, s, `CREATE TABLE orders (
		w_id BIGINT, o_id BIGINT, c_id BIGINT, amount DOUBLE, status TEXT,
		PRIMARY KEY (w_id, o_id),
		INDEX orders_cust (w_id, c_id)
	) SHARD BY w_id`)
	exec(t, s, `CREATE TABLE lines (
		w_id BIGINT, o_id BIGINT, n BIGINT, item TEXT, qty BIGINT,
		PRIMARY KEY (w_id, o_id, n)
	) SHARD BY w_id`)
	exec(t, s, `INSERT INTO orders VALUES
		(1, 1, 10, 25.0, 'open'),
		(1, 2, 10, 75.5, 'shipped'),
		(1, 3, 11, 12.25, 'open'),
		(2, 1, 12, 100.0, 'open'),
		(2, 2, 12, 50.0, 'cancelled'),
		(3, 1, 13, 5.0, 'open')`)
	exec(t, s, `INSERT INTO lines VALUES
		(1, 1, 1, 'widget', 2),
		(1, 1, 2, 'gadget', 1),
		(1, 2, 1, 'widget', 5),
		(2, 1, 1, 'gizmo', 3),
		(3, 1, 1, 'widget', 1)`)
}

func TestExecCreateInsertSelect(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, "SELECT o_id, amount FROM orders WHERE w_id = 1 AND o_id = 2")
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(2) || res.Rows[0][1] != 75.5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "o_id" || res.Columns[1] != "amount" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestExecSelectStarAndFilter(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, "SELECT * FROM orders WHERE status = 'open' AND amount >= 10")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if len(res.Columns) != 5 {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestExecOrderByLimit(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, "SELECT o_id, amount FROM orders WHERE w_id = 1 ORDER BY amount DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1] != 75.5 || res.Rows[1][1] != 25.0 {
		t.Fatalf("order wrong: %v", res.Rows)
	}
}

func TestExecOrderByNonSelectedColumn(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	// ORDER BY references a column that is not in the select list.
	res := exec(t, s, "SELECT o_id FROM orders WHERE w_id = 1 ORDER BY amount DESC")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// amounts: o2=75.5, o1=25.0, o3=12.25
	if res.Rows[0][0] != int64(2) || res.Rows[1][0] != int64(1) || res.Rows[2][0] != int64(3) {
		t.Fatalf("order: %v", res.Rows)
	}
}

func TestExecOrderByStarSelect(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, "SELECT * FROM orders ORDER BY w_id DESC, o_id")
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != int64(3) || res.Rows[5][0] != int64(1) {
		t.Fatalf("order: %v", res.Rows)
	}
}

func TestExecGroupOrderByAggregate(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	// ORDER BY an aggregate that is not in the select list.
	res := exec(t, s, "SELECT w_id FROM orders GROUP BY w_id ORDER BY SUM(amount) DESC")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// sums: w2=150, w1=112.75, w3=5
	if res.Rows[0][0] != int64(2) || res.Rows[1][0] != int64(1) || res.Rows[2][0] != int64(3) {
		t.Fatalf("order: %v", res.Rows)
	}
}

func TestExecDistinct(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, "SELECT DISTINCT c_id FROM orders ORDER BY c_id")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != int64(10) || res.Rows[3][0] != int64(13) {
		t.Fatalf("distinct values: %v", res.Rows)
	}
	// DISTINCT on the status column collapses duplicates.
	res2 := exec(t, s, "SELECT DISTINCT status FROM orders")
	if len(res2.Rows) != 3 {
		t.Fatalf("statuses = %v", res2.Rows)
	}
}

func TestExecOffset(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	all := exec(t, s, "SELECT o_id FROM orders WHERE w_id = 1 ORDER BY o_id")
	paged := exec(t, s, "SELECT o_id FROM orders WHERE w_id = 1 ORDER BY o_id LIMIT 1 OFFSET 1")
	if len(paged.Rows) != 1 || paged.Rows[0][0] != all.Rows[1][0] {
		t.Fatalf("offset page = %v, all = %v", paged.Rows, all.Rows)
	}
	// Offset past the end yields nothing.
	empty := exec(t, s, "SELECT o_id FROM orders WHERE w_id = 1 ORDER BY o_id OFFSET 99")
	if len(empty.Rows) != 0 {
		t.Fatalf("past-end offset = %v", empty.Rows)
	}
}

func TestExecAggregates(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, "SELECT COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount) FROM orders")
	row := res.Rows[0]
	if row[0] != int64(6) {
		t.Fatalf("count = %v", row[0])
	}
	if row[1] != 267.75 {
		t.Fatalf("sum = %v", row[1])
	}
	if row[2] != 5.0 || row[3] != 100.0 {
		t.Fatalf("min/max = %v %v", row[2], row[3])
	}
	if fmt.Sprintf("%.4f", row[4]) != "44.6250" {
		t.Fatalf("avg = %v", row[4])
	}
}

func TestExecGroupByHaving(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, `SELECT w_id, COUNT(*) AS n, SUM(amount) AS total
		FROM orders GROUP BY w_id HAVING COUNT(*) > 1 ORDER BY w_id`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != int64(1) || res.Rows[0][1] != int64(3) {
		t.Fatalf("group 1: %v", res.Rows[0])
	}
	if res.Rows[1][0] != int64(2) || res.Rows[1][2] != 150.0 {
		t.Fatalf("group 2: %v", res.Rows[1])
	}
}

func TestExecCountDistinct(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, "SELECT COUNT(DISTINCT c_id) FROM orders")
	if res.Rows[0][0] != int64(4) {
		t.Fatalf("distinct customers = %v", res.Rows[0][0])
	}
}

func TestExecAggregateOverEmptyInput(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, "SELECT COUNT(*), SUM(amount) FROM orders WHERE w_id = 99")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != int64(0) || res.Rows[0][1] != nil {
		t.Fatalf("empty agg = %v", res.Rows[0])
	}
	// Grouped aggregate over empty input yields no rows.
	res2 := exec(t, s, "SELECT w_id, COUNT(*) FROM orders WHERE w_id = 99 GROUP BY w_id")
	if len(res2.Rows) != 0 {
		t.Fatalf("grouped empty = %v", res2.Rows)
	}
}

func TestExecJoin(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, `SELECT o.o_id, l.item, l.qty
		FROM orders o JOIN lines l ON l.w_id = o.w_id AND l.o_id = o.o_id
		WHERE o.w_id = 1 ORDER BY o.o_id, l.item`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1] != "gadget" || res.Rows[1][1] != "widget" || res.Rows[2][1] != "widget" {
		t.Fatalf("join rows: %v", res.Rows)
	}
}

func TestExecJoinAggregate(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, `SELECT l.item, SUM(l.qty) AS total
		FROM orders o JOIN lines l ON l.w_id = o.w_id AND l.o_id = o.o_id
		WHERE o.status = 'open'
		GROUP BY l.item ORDER BY l.item`)
	// open orders: (1,1), (1,3), (2,1), (3,1) — lines exist for (1,1), (2,1), (3,1).
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// gadget: 1 (order 1,1); gizmo: 3 (order 2,1); widget: 2 + 1 = 3.
	if res.Rows[0][0] != "gadget" || res.Rows[0][1] != int64(1) {
		t.Fatalf("gadget: %v", res.Rows[0])
	}
	if res.Rows[2][0] != "widget" || res.Rows[2][1] != int64(3) {
		t.Fatalf("widget: %v", res.Rows[2])
	}
}

func TestExecUpdate(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, "UPDATE orders SET amount = amount + 10, status = 'bumped' WHERE w_id = 1 AND o_id = 1")
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	check := exec(t, s, "SELECT amount, status FROM orders WHERE w_id = 1 AND o_id = 1")
	if check.Rows[0][0] != 35.0 || check.Rows[0][1] != "bumped" {
		t.Fatalf("after update: %v", check.Rows)
	}
	// PK and indexed columns are immutable.
	execErr(t, s, "UPDATE orders SET o_id = 9 WHERE w_id = 1")
	execErr(t, s, "UPDATE orders SET c_id = 9 WHERE w_id = 1")
}

func TestExecDelete(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, "DELETE FROM orders WHERE status = 'cancelled'")
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	left := exec(t, s, "SELECT COUNT(*) FROM orders")
	if left.Rows[0][0] != int64(5) {
		t.Fatalf("rows left = %v", left.Rows[0][0])
	}
}

func TestExecExplicitTransaction(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	exec(t, s, "BEGIN")
	if !s.InTxn() {
		t.Fatal("expected open transaction")
	}
	exec(t, s, "INSERT INTO orders VALUES (4, 1, 20, 1.0, 'open')")
	// Visible inside the transaction.
	res := exec(t, s, "SELECT COUNT(*) FROM orders WHERE w_id = 4")
	if res.Rows[0][0] != int64(1) {
		t.Fatalf("own write invisible: %v", res.Rows)
	}
	exec(t, s, "ROLLBACK")
	res2 := exec(t, s, "SELECT COUNT(*) FROM orders WHERE w_id = 4")
	if res2.Rows[0][0] != int64(0) {
		t.Fatalf("rollback leaked: %v", res2.Rows)
	}

	exec(t, s, "BEGIN")
	exec(t, s, "UPDATE orders SET amount = 0 WHERE w_id = 3 AND o_id = 1")
	exec(t, s, "COMMIT")
	res3 := exec(t, s, "SELECT amount FROM orders WHERE w_id = 3 AND o_id = 1")
	if res3.Rows[0][0] != 0.0 {
		t.Fatalf("commit lost: %v", res3.Rows)
	}
}

func TestExecTransactionStateErrors(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	execErr(t, s, "COMMIT")
	execErr(t, s, "ROLLBACK")
	exec(t, s, "BEGIN")
	execErr(t, s, "BEGIN")
	execErr(t, s, "CREATE TABLE x (a BIGINT, PRIMARY KEY (a))")
	execErr(t, s, "DROP TABLE orders")
	exec(t, s, "ROLLBACK")
}

func TestExecReplicaReadsAndStaleness(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	// The default is fresh primary reads.
	if res := exec(t, s, "SHOW STALENESS"); res.Rows[0][0] != "NONE" {
		t.Fatalf("default staleness = %v", res.Rows)
	}
	if res := exec(t, s, "SELECT COUNT(*) FROM orders"); res.OnReplicas {
		t.Fatal("default read must hit primaries")
	}
	// SET STALENESS = ANY routes to replicas once the RCP catches up;
	// retry briefly since replication is asynchronous.
	exec(t, s, "SET STALENESS = ANY")
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := s.Exec(bg, "SELECT COUNT(*) FROM orders")
		if err == nil && res.OnReplicas && res.Rows[0][0] == int64(6) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica read did not catch up: %v err=%v", res, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Session staleness bound.
	exec(t, s, "SET STALENESS = '10s'")
	if res := exec(t, s, "SHOW STALENESS"); res.Rows[0][0] != "10s" {
		t.Fatalf("staleness = %v", res.Rows)
	}
	res := exec(t, s, "SELECT COUNT(*) FROM orders")
	if res.Rows[0][0] != int64(6) {
		t.Fatalf("bounded read: %v", res.Rows)
	}
	// Back to primary reads; a per-statement bound still reads replicas.
	exec(t, s, "SET STALENESS = NONE")
	res2 := exec(t, s, "SELECT COUNT(*) FROM orders AS OF STALENESS '10s'")
	if res2.Rows[0][0] != int64(6) {
		t.Fatalf("statement-bounded read: %v", res2.Rows)
	}
	if !res2.OnReplicas {
		t.Fatal("AS OF STALENESS must read replicas")
	}
}

func TestExecShow(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	tables := exec(t, s, "SHOW TABLES")
	if len(tables.Rows) != 2 {
		t.Fatalf("tables = %v", tables.Rows)
	}
	mode := exec(t, s, "SHOW MODE")
	if len(mode.Rows) != 1 {
		t.Fatalf("mode = %v", mode.Rows)
	}
	regions := exec(t, s, "SHOW REGIONS")
	if len(regions.Rows) != 3 {
		t.Fatalf("regions = %v", regions.Rows)
	}
}

func TestExecExplain(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, "EXPLAIN SELECT * FROM orders WHERE w_id = 1 AND o_id = 2")
	text := ""
	for _, r := range res.Rows {
		text += r[0].(string) + "\n"
	}
	if !strings.Contains(text, "point-get") {
		t.Fatalf("explain:\n%s", text)
	}
	res2 := exec(t, s, "EXPLAIN SELECT * FROM orders WHERE w_id = 1 AND c_id = 10")
	text2 := ""
	for _, r := range res2.Rows {
		text2 += r[0].(string) + "\n"
	}
	if !strings.Contains(text2, "index-scan") || !strings.Contains(text2, "orders_cust") {
		t.Fatalf("explain:\n%s", text2)
	}
}

func TestExecExplainRangePushdown(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, "EXPLAIN SELECT * FROM orders WHERE w_id = 1 AND o_id > 1 AND o_id <= 3")
	text := ""
	for _, r := range res.Rows {
		text += r[0].(string) + "\n"
	}
	if !strings.Contains(text, "pk-prefix-scan") || !strings.Contains(text, "range (o_id > 1, o_id <= 3)") {
		t.Fatalf("explain must show the pushed range:\n%s", text)
	}
	// The pushed range narrows the rows actually returned by the scan.
	res2 := exec(t, s, "SELECT o_id FROM orders WHERE w_id = 1 AND o_id > 1 AND o_id <= 3 ORDER BY o_id")
	if len(res2.Rows) != 2 || res2.Rows[0][0] != int64(2) || res2.Rows[1][0] != int64(3) {
		t.Fatalf("range rows: %v", res2.Rows)
	}
}

func TestExecIndexEquivalence(t *testing.T) {
	// The index path and the full-scan path must return the same rows.
	s := openSQL(t)
	loadOrders(t, s)
	byIndex := exec(t, s, "SELECT o_id FROM orders WHERE w_id = 1 AND c_id = 10 ORDER BY o_id")
	byScan := exec(t, s, "SELECT o_id FROM orders WHERE w_id + 0 = 1 AND c_id = 10 ORDER BY o_id")
	if len(byIndex.Rows) != 2 || len(byScan.Rows) != len(byIndex.Rows) {
		t.Fatalf("index %v scan %v", byIndex.Rows, byScan.Rows)
	}
	for i := range byIndex.Rows {
		if byIndex.Rows[i][0] != byScan.Rows[i][0] {
			t.Fatalf("row %d: %v vs %v", i, byIndex.Rows[i], byScan.Rows[i])
		}
	}
}

func TestExecInsertColumnListAndNulls(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	exec(t, s, "INSERT INTO orders (w_id, o_id, c_id) VALUES (5, 1, 50)")
	res := exec(t, s, "SELECT amount, status FROM orders WHERE w_id = 5 AND o_id = 1")
	if res.Rows[0][0] != nil || res.Rows[0][1] != nil {
		t.Fatalf("missing columns must be NULL: %v", res.Rows)
	}
	res2 := exec(t, s, "SELECT COUNT(*) FROM orders WHERE status IS NULL")
	if res2.Rows[0][0] != int64(1) {
		t.Fatalf("IS NULL: %v", res2.Rows)
	}
}

func TestExecIntToDoubleCoercion(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	// amount is DOUBLE; inserting and comparing with integer literals works.
	exec(t, s, "INSERT INTO orders VALUES (6, 1, 60, 42, 'open')")
	res := exec(t, s, "SELECT amount FROM orders WHERE w_id = 6 AND o_id = 1")
	if res.Rows[0][0] != 42.0 {
		t.Fatalf("coerced amount = %v (%T)", res.Rows[0][0], res.Rows[0][0])
	}
	res2 := exec(t, s, "SELECT COUNT(*) FROM orders WHERE amount = 42")
	if res2.Rows[0][0] != int64(1) {
		t.Fatalf("int/double compare: %v", res2.Rows)
	}
}

func TestExecErrors(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	execErr(t, s, "SELECT * FROM ghosts")
	execErr(t, s, "INSERT INTO orders (w_id) VALUES (1, 2)")
	execErr(t, s, "INSERT INTO orders (nope) VALUES (1)")
	execErr(t, s, "UPDATE orders SET nope = 1")
	execErr(t, s, "SELECT nope FROM orders")
	execErr(t, s, "INSERT INTO orders VALUES (1, 1, 1, 'not-a-number', 'x')")
}

func TestExecDropTable(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	exec(t, s, "DROP TABLE lines")
	execErr(t, s, "SELECT * FROM lines")
	if res := exec(t, s, "SHOW TABLES"); len(res.Rows) != 1 {
		t.Fatalf("tables = %v", res.Rows)
	}
}

func TestExecScript(t *testing.T) {
	s := openSQL(t)
	res, err := s.ExecScript(bg, `
		CREATE TABLE kv (k BIGINT, v TEXT, PRIMARY KEY (k));
		INSERT INTO kv VALUES (1, 'one'), (2, 'two');
		SELECT v FROM kv WHERE k = 2;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "two" {
		t.Fatalf("script result: %v", res.Rows)
	}
}

func TestExecLikeAndScalarFuncs(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	res := exec(t, s, "SELECT COUNT(*) FROM lines WHERE item LIKE 'w%'")
	if res.Rows[0][0] != int64(3) {
		t.Fatalf("LIKE count: %v", res.Rows)
	}
	res2 := exec(t, s, "SELECT UPPER(status) FROM orders WHERE w_id = 3 AND o_id = 1")
	if res2.Rows[0][0] != "OPEN" {
		t.Fatalf("UPPER: %v", res2.Rows)
	}
}

func TestExecAcrossModeTransition(t *testing.T) {
	// SQL keeps working under centralized GTM timestamps and across a live
	// GTM -> GClock transition.
	cfg := benchClusterConfig()
	cfg.Mode = ts.ModeGTM
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	s, err := Connect(db, "xian")
	if err != nil {
		t.Fatal(err)
	}
	exec(t, s, "CREATE TABLE kv (k BIGINT, v TEXT, PRIMARY KEY (k))")
	exec(t, s, "INSERT INTO kv VALUES (1, 'under-gtm')")
	if res := exec(t, s, "SHOW MODE"); res.Rows[0][0] != "GTM" {
		t.Fatalf("mode = %v", res.Rows)
	}
	if err := db.TransitionToGClock(bg); err != nil {
		t.Fatal(err)
	}
	exec(t, s, "INSERT INTO kv VALUES (2, 'under-gclock')")
	res := exec(t, s, "SELECT v FROM kv ORDER BY k")
	if len(res.Rows) != 2 || res.Rows[0][0] != "under-gtm" || res.Rows[1][0] != "under-gclock" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res := exec(t, s, "SHOW MODE"); res.Rows[0][0] != "GClock" {
		t.Fatalf("mode = %v", res.Rows)
	}
}

func TestExecSyncReplicatedTableDDL(t *testing.T) {
	s := openSQL(t)
	exec(t, s, `CREATE TABLE audit (id BIGINT, note TEXT, PRIMARY KEY (id)) WITH SYNC REPLICATION`)
	sch, err := s.Schema("audit")
	if err != nil {
		t.Fatal(err)
	}
	if !sch.SyncReplicated {
		t.Fatal("WITH SYNC REPLICATION not applied")
	}
	// Writes to a sync table wait for replica acknowledgement and commit.
	exec(t, s, "INSERT INTO audit VALUES (1, 'x')")
	res := exec(t, s, "SELECT COUNT(*) FROM audit")
	if res.Rows[0][0] != int64(1) {
		t.Fatalf("count = %v", res.Rows)
	}
}

func TestFormatTable(t *testing.T) {
	res := &Result{
		Columns: []string{"id", "name"},
		Rows:    [][]any{{int64(1), "alice"}, {int64(2), nil}},
	}
	text := FormatTable(res)
	for _, want := range []string{"| id | name", "| 1  | alice |", "NULL", "(2 rows)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("formatted table lacks %q:\n%s", want, text)
		}
	}
	msg := FormatTable(&Result{Msg: "CREATE TABLE t"})
	if msg != "CREATE TABLE t\n" {
		t.Fatalf("msg format: %q", msg)
	}
}

// TestOrderByLimitTopN cross-checks the bounded top-N heap (used when
// ORDER BY has a LIMIT) against the full-sort path (no LIMIT): with a
// heavily duplicated sort key, every LIMIT/OFFSET window must equal the
// corresponding slice of the fully sorted result — including tie order,
// which must stay stable (scan arrival order) exactly as the stable sort
// it replaces.
func TestOrderByLimitTopN(t *testing.T) {
	s := openSQL(t)
	exec(t, s, `CREATE TABLE tn (k BIGINT, grp BIGINT, PRIMARY KEY (k)) SHARD BY k`)
	var vals []string
	for k := 1; k <= 60; k++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", k, k%7))
	}
	exec(t, s, "INSERT INTO tn VALUES "+strings.Join(vals, ", "))

	// A sentinel-huge LIMIT whose sum with OFFSET overflows int64 must not
	// clamp the heap to zero — it takes the unbounded sort path.
	huge := exec(t, s, "SELECT k FROM tn ORDER BY grp LIMIT 9223372036854775807 OFFSET 1")
	if len(huge.Rows) != 59 {
		t.Fatalf("overflowing LIMIT+OFFSET returned %d rows, want 59", len(huge.Rows))
	}

	for _, orderBy := range []string{"grp", "grp DESC", "grp DESC, k"} {
		full := exec(t, s, "SELECT k, grp FROM tn ORDER BY "+orderBy)
		if len(full.Rows) != 60 {
			t.Fatalf("full sort returned %d rows", len(full.Rows))
		}
		for _, w := range []struct{ limit, offset int }{
			{0, 0}, {1, 0}, {5, 0}, {5, 3}, {60, 0}, {10, 55}, {10, 99},
		} {
			q := fmt.Sprintf("SELECT k, grp FROM tn ORDER BY %s LIMIT %d OFFSET %d", orderBy, w.limit, w.offset)
			got := exec(t, s, q)
			lo := w.offset
			if lo > len(full.Rows) {
				lo = len(full.Rows)
			}
			hi := lo + w.limit
			if hi > len(full.Rows) {
				hi = len(full.Rows)
			}
			want := full.Rows[lo:hi]
			if len(got.Rows) != len(want) {
				t.Fatalf("%s: %d rows, want %d", q, len(got.Rows), len(want))
			}
			for i := range want {
				if got.Rows[i][0] != want[i][0] || got.Rows[i][1] != want[i][1] {
					t.Fatalf("%s: row %d = %v, want %v", q, i, got.Rows[i], want[i])
				}
			}
		}
	}
}

// TestExecAggregatesInScalarContext covers aggregates nested inside scalar
// expressions — in outputs, HAVING and ORDER BY — which lower to slot
// columns of the group row. Each query runs with pushdown on (partial
// aggregation on the data nodes) and off (aggregation at the CN).
func TestExecAggregatesInScalarContext(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	// Sums per warehouse: w1 = 112.75 (3 orders), w2 = 150 (2), w3 = 5 (1).
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT w_id, COALESCE(SUM(amount), 0) FROM orders GROUP BY w_id ORDER BY w_id",
			"[[1 112.75] [2 150] [3 5]]"},
		{"SELECT w_id FROM orders GROUP BY w_id HAVING SUM(amount) BETWEEN 10 AND 120 ORDER BY w_id",
			"[[1]]"},
		{"SELECT w_id, COUNT(*) FROM orders GROUP BY w_id HAVING COUNT(*) IN (1, 2) ORDER BY w_id",
			"[[2 2] [3 1]]"},
		{"SELECT w_id, ABS(SUM(amount) - 100) FROM orders GROUP BY w_id ORDER BY w_id",
			"[[1 12.75] [2 50] [3 95]]"},
		{"SELECT w_id FROM orders GROUP BY w_id ORDER BY -SUM(amount)",
			"[[2] [1] [3]]"},
		{"SELECT COALESCE(MAX(amount), -1), COUNT(*) + 1 FROM orders WHERE w_id = 99",
			"[[-1 1]]"},
	}
	for _, pushdown := range []bool{true, false} {
		s.SetPushdown(pushdown)
		for _, c := range cases {
			if got := fmt.Sprint(exec(t, s, c.sql).Rows); got != c.want {
				t.Errorf("pushdown=%v %s:\n got  %s\n want %s", pushdown, c.sql, got, c.want)
			}
		}
	}
}

// TestDistinctKeyTupleEquality pins the tuple equality DISTINCT, GROUP BY
// and DISTINCT aggregates use: NULL is its own value (not the text
// 'NULL'), bytes inside TEXT values cannot shift tuple boundaries, -0.0 and
// 0.0 stay apart, and a BIGINT never equals a DOUBLE of the same value.
// Every query returns the same rows with pushdown on and off.
func TestDistinctKeyTupleEquality(t *testing.T) {
	var enc keys.Encoder
	key := func(row ...any) string {
		k, err := distinctKey(&enc, row)
		if err != nil {
			t.Fatal(err)
		}
		return string(k)
	}
	for _, pair := range [][2][]any{
		{{nil}, {"NULL"}},
		{{nil}, {""}},
		{{"a;b", "c"}, {"a", "b;c"}},
		{{"a\x00", "b"}, {"a", "\x00b"}},
		{{"3:a;", ""}, {"", "3:a;"}},
		{{math.Copysign(0, -1)}, {0.0}},
		{{int64(1)}, {1.0}},
		{{"x"}, {[]byte("x")}},
	} {
		if key(pair[0]...) == key(pair[1]...) {
			t.Errorf("%q and %q share a tuple key", pair[0], pair[1])
		}
	}
	if key("a", nil, 1.5) != key("a", nil, 1.5) {
		t.Error("equal tuples encode differently")
	}

	s := openSQL(t)
	exec(t, s, `CREATE TABLE dk (k BIGINT, a TEXT, b TEXT, d DOUBLE, i BIGINT, PRIMARY KEY (k))`)
	exec(t, s, `INSERT INTO dk VALUES
		(1, NULL, 'x', 0.0, 1),
		(2, 'NULL', 'x', -0.0, 1),
		(3, 'a;b', 'c', NULL, 1),
		(4, 'a', 'b;c', 1.0, 2),
		(5, 'a;b', 'c', 0.0, NULL),
		(6, NULL, 'x', NULL, 2)`)
	if res := exec(t, s, "SELECT d FROM dk WHERE k = 2"); !math.Signbit(res.Rows[0][0].(float64)) {
		t.Fatalf("-0.0 did not survive the round trip: %v", res.Rows)
	}
	cases := []struct {
		sql  string
		rows int
	}{
		{"SELECT DISTINCT a, b FROM dk", 4},
		{"SELECT a, COUNT(*) FROM dk GROUP BY a", 4},
		{"SELECT d, COUNT(*) FROM dk GROUP BY d", 4},
		{"SELECT COUNT(DISTINCT d), COUNT(DISTINCT a) FROM dk", 1},
		{"SELECT DISTINCT COALESCE(d, i) FROM dk", 5},
	}
	for _, c := range cases {
		var got [2][]string
		for i, pushdown := range []bool{true, false} {
			s.SetPushdown(pushdown)
			res := exec(t, s, c.sql)
			if len(res.Rows) != c.rows {
				t.Fatalf("pushdown=%v %s: %d rows, want %d: %v", pushdown, c.sql, len(res.Rows), c.rows, res.Rows)
			}
			got[i] = make([]string, len(res.Rows))
			for j, r := range res.Rows {
				got[i][j] = fmt.Sprintf("%#v", r)
			}
			sort.Strings(got[i])
		}
		if fmt.Sprint(got[0]) != fmt.Sprint(got[1]) {
			t.Fatalf("%s: pushdown on %v, off %v", c.sql, got[0], got[1])
		}
	}
	if res := exec(t, s, "SELECT COUNT(DISTINCT d), COUNT(DISTINCT a) FROM dk"); fmt.Sprint(res.Rows) != "[[3 3]]" {
		t.Fatalf("distinct counts = %v, want [[3 3]] (-0.0, 0.0, 1.0; 'NULL', 'a;b', 'a')", res.Rows)
	}
}
