package driver

import (
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"testing"

	"globaldb"
)

var bg = context.Background()

// openCluster builds a fast in-process three-city cluster.
func openCluster(t *testing.T) *globaldb.DB {
	t.Helper()
	cfg := globaldb.ThreeCity()
	cfg.TimeScale = 0.02
	cfg.Shards = 4
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

// TestSQLConformance drives the full database/sql round trip the driver
// exists for: OpenDB, Ping, DDL, a prepared INSERT executed repeatedly
// with bound parameters, a prepared SELECT with IN-list and LIMIT
// placeholders, row streaming, and transaction commit/rollback. It runs
// unchanged against both transports: in process and over TCP through the
// wire server and the driver's network connector.
func TestSQLConformance(t *testing.T) {
	forEachTransport(t, testSQLConformance)
}

func testSQLConformance(t *testing.T, db *globaldb.DB, mk func(Config) sqldriver.Connector) {
	sqldb := openDB(t, mk(Config{Region: "xian"}))
	if err := sqldb.PingContext(bg); err != nil {
		t.Fatal(err)
	}

	if _, err := sqldb.ExecContext(bg, `CREATE TABLE accounts (
		branch BIGINT, id BIGINT, owner TEXT, balance DOUBLE,
		PRIMARY KEY (branch, id)) SHARD BY branch`); err != nil {
		t.Fatal(err)
	}

	// Prepared INSERT: one parse+plan, many executions with fresh args.
	ins, err := sqldb.PrepareContext(bg, "INSERT INTO accounts VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		res, err := ins.ExecContext(bg, int64(1), i, "owner", float64(i)*10)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if n, err := res.RowsAffected(); err != nil || n != 1 {
			t.Fatalf("insert %d affected %d (%v)", i, n, err)
		}
	}
	ins.Close()

	// NumInput arity enforcement comes from database/sql itself.
	get, err := sqldb.PrepareContext(bg, "SELECT owner, balance FROM accounts WHERE branch = $1 AND id = $2")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Close()
	if _, err := get.QueryContext(bg, int64(1)); err == nil {
		t.Fatal("wrong arity must fail")
	}
	var owner string
	var balance float64
	if err := get.QueryRowContext(bg, int64(1), int64(7)).Scan(&owner, &balance); err != nil {
		t.Fatal(err)
	}
	if owner != "owner" || balance != 70 {
		t.Fatalf("got %q %v", owner, balance)
	}

	// IN list + parameterized LIMIT, streamed through sql.Rows.
	rows, err := sqldb.QueryContext(bg,
		"SELECT id FROM accounts WHERE branch = ? AND id IN (?, ?, ?) ORDER BY id LIMIT ?",
		int64(1), int64(3), int64(5), int64(9), int64(2))
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 5 {
		t.Fatalf("IN+LIMIT ids: %v", ids)
	}

	// Transactions: a rollback leaves no trace, a commit is visible.
	tx, err := sqldb.BeginTx(bg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ExecContext(bg, "UPDATE accounts SET balance = balance + ? WHERE branch = ? AND id = ?",
		5.0, int64(1), int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var got float64
	if err := sqldb.QueryRowContext(bg, "SELECT balance FROM accounts WHERE branch = 1 AND id = 1").Scan(&got); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("rollback leaked: balance %v", got)
	}

	tx, err = sqldb.BeginTx(bg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ExecContext(bg, "UPDATE accounts SET balance = balance + ? WHERE branch = ? AND id = ?",
		5.0, int64(1), int64(1)); err != nil {
		t.Fatal(err)
	}
	// The transaction sees its own write before commit.
	if err := tx.QueryRowContext(bg, "SELECT balance FROM accounts WHERE branch = 1 AND id = 1").Scan(&got); err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Fatalf("own write invisible in tx: %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sqldb.QueryRowContext(bg, "SELECT balance FROM accounts WHERE branch = 1 AND id = 1").Scan(&got); err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Fatalf("commit lost: balance %v", got)
	}

	// SHOW and EXPLAIN work through Query via the materialized fallback.
	var tbl string
	if err := sqldb.QueryRowContext(bg, "SHOW TABLES").Scan(&tbl); err != nil || tbl != "accounts" {
		t.Fatalf("SHOW TABLES: %q %v", tbl, err)
	}
}

// TestRowsStreamLazily verifies the acceptance criterion that driver
// Rows.Next pulls storage pages lazily: reading a couple of rows of a large
// table and closing must fetch far fewer rows from the storage layer (per
// the CN's rows-fetched counter) than draining the table does.
func TestRowsStreamLazily(t *testing.T) {
	db := openCluster(t)
	sqldb := Open(db, Config{Region: "xian"})
	defer sqldb.Close()
	// One pooled connection so the counter deltas below are attributable.
	sqldb.SetMaxOpenConns(1)

	if _, err := sqldb.ExecContext(bg, `CREATE TABLE big (w BIGINT, id BIGINT, pad TEXT,
		PRIMARY KEY (w, id)) SHARD BY w`); err != nil {
		t.Fatal(err)
	}
	// All rows share one shard so the scan below opens a single cursor;
	// a cross-shard merge necessarily prefetches one page per shard.
	const total = 800
	ins, err := sqldb.PrepareContext(bg, "INSERT INTO big VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < total; i++ {
		if _, err := ins.ExecContext(bg, int64(0), i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	ins.Close()

	fetched := func() int64 { return db.Cluster().CN("xian").ScanRowsFetched() }

	before := fetched()
	rows, err := sqldb.QueryContext(bg, "SELECT id FROM big WHERE w = ?", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2 && rows.Next(); i++ {
		var id int64
		if err := rows.Scan(&id); err != nil {
			t.Fatal(err)
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	early := fetched() - before

	// Full-drain baseline: the same row query read to exhaustion must ship
	// every row. (COUNT(*) is no longer a valid baseline — aggregate
	// pushdown ships one partial state per shard instead of the rows.)
	before = fetched()
	rows, err = sqldb.QueryContext(bg, "SELECT id FROM big WHERE w = ?", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	full := fetched() - before
	if n != total {
		t.Fatalf("drained %d rows, want %d", n, total)
	}
	if full < total {
		t.Fatalf("full scan fetched %d rows, want >= %d", full, total)
	}
	// The paged cursor prefetches one page beyond the one being read (the
	// default double-buffering window), so an early close pays for at most
	// two pages — still far below the full drain.
	if early > 2*int64(globaldb.DefaultScanPageSize) {
		t.Fatalf("early close fetched %d of %d rows: driver Rows are not streaming", early, full)
	}

	// And the pushed aggregate itself: COUNT(*) must now cross the WAN as
	// O(shards) partial rows, not O(table).
	before = fetched()
	var cnt int
	if err := sqldb.QueryRowContext(bg, "SELECT COUNT(*) FROM big").Scan(&cnt); err != nil {
		t.Fatal(err)
	}
	aggRows := fetched() - before
	if cnt != total {
		t.Fatalf("COUNT(*) = %d, want %d", cnt, total)
	}
	if aggRows >= total/10 {
		t.Fatalf("pushed COUNT(*) shipped %d rows over the WAN, want O(shards)", aggRows)
	}
	t.Logf("rows fetched: early-close=%d full-drain=%d count(*)=%d", early, full, aggRows)
}

// TestDSNAndStaleness exercises sql.Open with a registered cluster name
// and checks that a staleness DSN routes reads to replicas while SET
// STALENESS works per connection.
func TestDSNAndStaleness(t *testing.T) {
	db := openCluster(t)
	Register("dsn-test", db)
	defer Unregister("dsn-test")

	primary := Open(db, Config{Region: "xian"})
	defer primary.Close()
	if _, err := primary.ExecContext(bg, `CREATE TABLE t (k BIGINT, PRIMARY KEY (k))`); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.ExecContext(bg, "INSERT INTO t VALUES (?)", int64(1)); err != nil {
		t.Fatal(err)
	}

	replica, err := sql.Open("globaldb", "dsn-test?region=dongguan&staleness=any")
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	replica.SetMaxOpenConns(1)
	var mode string
	if err := replica.QueryRowContext(bg, "SHOW STALENESS").Scan(&mode); err != nil {
		t.Fatal(err)
	}
	if mode != "ANY" {
		t.Fatalf("DSN staleness not applied: %q", mode)
	}
	// Per-connection override back to primary reads.
	if _, err := replica.ExecContext(bg, "SET STALENESS = NONE"); err != nil {
		t.Fatal(err)
	}
	if err := replica.QueryRowContext(bg, "SHOW STALENESS").Scan(&mode); err != nil {
		t.Fatal(err)
	}
	if mode != "NONE" {
		t.Fatalf("SET STALENESS override failed: %q", mode)
	}

	// DSN errors surface when the connector is built.
	if _, err := (Driver{}).OpenConnector("nope?region=xian"); err == nil {
		t.Fatal("unknown cluster name must fail")
	}
	if _, err := (Driver{}).OpenConnector("dsn-test?staleness=bogus"); err == nil {
		t.Fatal("bad staleness must fail")
	}
	if _, err := (Driver{}).OpenConnector("dsn-test?nope=1"); err == nil {
		t.Fatal("unknown DSN option must fail")
	}
}
