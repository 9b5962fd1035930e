package gsql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"globaldb"
	"globaldb/internal/table"
)

// primaryRowsScanned sums the storage rows every shard primary has scanned.
func primaryRowsScanned(db *globaldb.DB) int64 {
	var n int64
	for _, p := range db.Cluster().Primaries() {
		n += p.Store().RowsScanned()
	}
	return n
}

// TestDMLRowSearchReadsRangeNotTable is the row-count gate for the
// UPDATE/DELETE row search: a leading-PK range on a table sharded by its PK
// must read the range from storage, not the table. The search runs through
// the SELECT pipeline, so the range is pushed into every shard's scan and
// the statement reports what it read in Result.Scan.
func TestDMLRowSearchReadsRangeNotTable(t *testing.T) {
	const tableRows = 2000
	s := openSQL(t)
	exec(t, s, "CREATE TABLE acct (id BIGINT, name TEXT, bal BIGINT, PRIMARY KEY (id)) SHARD BY id")
	for lo := 0; lo < tableRows; lo += 200 {
		vals := make([]string, 0, 200)
		for id := lo; id < lo+200; id++ {
			vals = append(vals, fmt.Sprintf("(%d, 'n%d', %d)", id, id, id))
		}
		exec(t, s, "INSERT INTO acct VALUES "+strings.Join(vals, ", "))
	}

	before := primaryRowsScanned(s.db)
	res := exec(t, s, "UPDATE acct SET name = 'renamed' WHERE id BETWEEN 100 AND 119")
	read := primaryRowsScanned(s.db) - before
	t.Logf("UPDATE of 20 rows in a %d-row table: Result.Scan=%+v, primary storage rows=%d", tableRows, res.Scan, read)
	if res.Affected != 20 {
		t.Fatalf("affected = %d, want 20", res.Affected)
	}
	if res.Scan.StorageRows != 20 || res.Scan.WANRows != 20 {
		t.Fatalf("row search read storage=%d shipped=%d rows, want 20 and 20", res.Scan.StorageRows, res.Scan.WANRows)
	}
	if read != 20 {
		t.Fatalf("primaries scanned %d storage rows for a 20-row range, want 20", read)
	}

	before = primaryRowsScanned(s.db)
	res = exec(t, s, "DELETE FROM acct WHERE id >= 1990")
	if read := primaryRowsScanned(s.db) - before; res.Affected != 10 || res.Scan.StorageRows != 10 || read != 10 {
		t.Fatalf("DELETE of a 10-row range: affected=%d Result.Scan=%+v primary storage rows=%d, want 10 each",
			res.Affected, res.Scan, read)
	}
	if got := exec(t, s, "SELECT COUNT(*) FROM acct WHERE name = 'renamed'").Rows[0][0]; got != int64(20) {
		t.Fatalf("renamed rows = %v, want 20", got)
	}
}

// TestDifferentialDMLVsOracle runs randomized UPDATE and DELETE statements
// inside one transaction and checks each against the materializing oracle:
// the rows the oracle matches at that point of the transaction are exactly
// the rows the statement changes, and every other row — and every column
// the UPDATE does not SET — is left as it was. The WHERE shapes cover every
// access path the row search can take, pushed and CN-side filters, and
// NULL-heavy columns; each trial also sees the earlier trials' buffered
// writes.
func TestDifferentialDMLVsOracle(t *testing.T) {
	s := openSQL(t)
	exec(t, s, `CREATE TABLE stock (
		w_id BIGINT, i_id BIGINT, grp BIGINT, qty BIGINT, tag TEXT, note TEXT,
		PRIMARY KEY (w_id, i_id),
		INDEX stock_grp (w_id, grp)
	) SHARD BY w_id`)
	rng := rand.New(rand.NewSource(31))
	for w := 1; w <= 4; w++ {
		var vals []string
		for i := 1; i <= 30; i++ {
			qty, tag := fmt.Sprint(rng.Intn(100)), fmt.Sprintf("'t%d'", rng.Intn(3))
			if rng.Intn(4) == 0 {
				qty = "NULL"
			}
			if rng.Intn(4) == 0 {
				tag = "NULL"
			}
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, %s, %s, NULL)", w, i, rng.Intn(5), qty, tag))
		}
		exec(t, s, "INSERT INTO stock VALUES "+strings.Join(vals, ", "))
	}

	// state reads the whole table inside the transaction, keyed by PK.
	state := func() map[string]table.Row {
		t.Helper()
		rows, err := drain(s.tx.ScanTableRows(bg, "stock", globaldb.ScanOpts{}))
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string]table.Row, len(rows))
		for _, r := range rows {
			m[fmt.Sprint(r[:2])] = r
		}
		return m
	}
	render := func(m map[string]table.Row) []string {
		out := make([]string, 0, len(m))
		for _, r := range m {
			out = append(out, fmt.Sprint(r))
		}
		sort.Strings(out)
		return out
	}

	hits := 0
	for trial := 0; trial < 56; trial++ {
		if trial%14 == 0 { // every shape as UPDATE and DELETE, then start over
			if s.InTxn() {
				exec(t, s, "ROLLBACK")
			}
			exec(t, s, "BEGIN")
		}
		w, i, g, q := 1+rng.Intn(4), 1+rng.Intn(30), rng.Intn(5), rng.Intn(100)
		var where string
		switch trial % 7 {
		case 0: // point get
			where = fmt.Sprintf("w_id = %d AND i_id = %d", w, i)
		case 1: // PK prefix with a pushed range
			where = fmt.Sprintf("w_id = %d AND i_id BETWEEN %d AND %d", w, i, i+6)
		case 2: // index scan
			where = fmt.Sprintf("w_id = %d AND grp = %d", w, g)
		case 3: // full scan with a leading-PK range and a pushed filter
			where = fmt.Sprintf("w_id >= %d AND qty < %d", w, q)
		case 4: // index scan: the residual cannot push and runs on the CN
			where = fmt.Sprintf("w_id = %d AND grp = %d AND tag <> 't1'", w, g)
		case 5: // NULL-heavy predicate over a full scan
			where = fmt.Sprintf("(qty IS NULL OR qty > %d)", q)
		case 6: // NULL-heavy predicate with a leading-PK range
			where = fmt.Sprintf("w_id <= %d AND (tag IS NULL OR tag = 't2')", w)
		}
		sql := fmt.Sprintf("UPDATE stock SET qty = qty + 1, note = 'u%d' WHERE %s", trial, where)
		if trial%2 == 1 { // thinned, so the transaction's table lasts
			sql = fmt.Sprintf("DELETE FROM stock WHERE %s AND i_id %% 3 = %d", where, trial%3)
		}
		s.SetPushdown(trial%5 != 4) // every fifth search runs wholly on the CN

		stmt, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := planSelect(s, planTarget(stmt))
		if err != nil {
			t.Fatal(err)
		}
		bp, err := p.bind(nil)
		if err != nil {
			t.Fatal(err)
		}
		matched, err := joinRows(bg, s.tx, bp)
		if err != nil {
			t.Fatalf("oracle %q: %v", sql, err)
		}
		want := state()
		for _, c := range matched {
			key := fmt.Sprint(c[0][:2])
			if _, isDelete := stmt.(*Delete); isDelete {
				delete(want, key)
				continue
			}
			r := append(table.Row(nil), c[0]...)
			if r[3] != nil {
				r[3] = r[3].(int64) + 1
			}
			r[5] = fmt.Sprintf("u%d", trial)
			want[key] = r
		}

		res := exec(t, s, sql)
		if res.Affected != len(matched) {
			t.Fatalf("%q (%s): affected %d rows, oracle matched %d", sql, p.outer.kind, res.Affected, len(matched))
		}
		got, exp := render(state()), render(want)
		if strings.Join(got, "\n") != strings.Join(exp, "\n") {
			t.Fatalf("%q (%s): table after the statement differs from the oracle's\n got: %v\nwant: %v", sql, p.outer.kind, got, exp)
		}
		if len(matched) > 0 {
			hits++
		}
	}
	exec(t, s, "ROLLBACK")
	if hits < 40 {
		t.Fatalf("only %d of 56 statements matched any row: the trials test too little", hits)
	}
}

// TestUpdateKeepsUnsetColumns pins that the row search returns full-width
// rows: an UPDATE whose WHERE needs one column pushes that filter to the
// data nodes without projecting, so every column it does not SET — NULLs
// included — is written back unchanged.
func TestUpdateKeepsUnsetColumns(t *testing.T) {
	s := openSQL(t)
	exec(t, s, `CREATE TABLE wide (
		id BIGINT, a BIGINT, b TEXT, c DOUBLE, d BOOL, e TEXT,
		PRIMARY KEY (id)
	) SHARD BY id`)
	exec(t, s, `INSERT INTO wide VALUES
		(1, 10, 'x', 1.5, TRUE, 'one'),
		(2, 20, 'y', 2.5, FALSE, NULL),
		(3, 30, 'x', NULL, NULL, 'three'),
		(4, NULL, 'x', 4.5, TRUE, NULL)`)

	const update = "UPDATE wide SET a = 0 WHERE b = 'x'"
	stmt, err := Parse(update)
	if err != nil {
		t.Fatal(err)
	}
	p, err := planSelect(s, planTarget(stmt))
	if err != nil {
		t.Fatal(err)
	}
	if p.push == nil || p.push.frag.Filter == nil || p.push.frag.Project != nil {
		t.Fatalf("row search must push its filter without a projection: %v", p.describe())
	}

	res := exec(t, s, update)
	if res.Affected != 3 || res.Scan.DNFilteredRows != 1 {
		t.Fatalf("affected=%d scan=%+v, want 3 rows with 1 filtered at the data nodes", res.Affected, res.Scan)
	}
	got := rowStrings(exec(t, s, "SELECT * FROM wide ORDER BY id").Rows)
	want := []string{
		"[1 0 x 1.5 true one]",
		"[2 20 y 2.5 false <nil>]",
		"[3 0 x <nil> <nil> three]",
		"[4 0 x 4.5 true <nil>]",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("after UPDATE:\n got: %v\nwant: %v", got, want)
	}
}

// TestDMLReadsOwnWrites checks that the row search sees the transaction's
// buffered writes: inside BEGIN, an UPDATE and a DELETE whose filters run on
// the data nodes match rows INSERTed earlier in that transaction.
func TestDMLReadsOwnWrites(t *testing.T) {
	s := openSQL(t)
	exec(t, s, "CREATE TABLE acct (id BIGINT, name TEXT, bal BIGINT, PRIMARY KEY (id)) SHARD BY id")
	exec(t, s, "INSERT INTO acct VALUES (1, 'old', 1), (2, 'old', 2), (3, 'old', 3)")

	exec(t, s, "BEGIN")
	exec(t, s, "INSERT INTO acct VALUES (100, 'fresh', 5), (101, 'gone', 7)")
	res := exec(t, s, "UPDATE acct SET bal = bal + 1 WHERE name = 'fresh'")
	if res.Affected != 1 || res.Scan.DNFilteredRows == 0 {
		t.Fatalf("UPDATE of an own insert: affected=%d scan=%+v, want 1 row found by a DN-side filter", res.Affected, res.Scan)
	}
	if res := exec(t, s, "DELETE FROM acct WHERE name = 'gone'"); res.Affected != 1 {
		t.Fatalf("DELETE of an own insert: affected=%d, want 1", res.Affected)
	}
	exec(t, s, "COMMIT")

	got := rowStrings(exec(t, s, "SELECT * FROM acct ORDER BY id").Rows)
	want := []string{"[1 old 1]", "[2 old 2]", "[3 old 3]", "[100 fresh 6]"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("after COMMIT:\n got: %v\nwant: %v", got, want)
	}
}

// TestPreparedDMLPlannedOnce checks that a prepared UPDATE or DELETE plans
// its row search at prepare time and binds it through the same traced
// plan/bind steps as a SELECT: every execution's plan span is tagged cached.
func TestPreparedDMLPlannedOnce(t *testing.T) {
	s := openSQL(t)
	exec(t, s, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY (k)) SHARD BY k")
	exec(t, s, "INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)")

	s.SetTrace(true)
	upd, err := s.Prepare(bg, "UPDATE kv SET v = ? WHERE k >= ?")
	if err != nil {
		t.Fatal(err)
	}
	del, err := s.Prepare(bg, "DELETE FROM kv WHERE v = ?")
	if err != nil {
		t.Fatal(err)
	}
	if upd.cs.plan == nil || del.cs.plan == nil {
		t.Fatal("prepared UPDATE/DELETE carry no plan")
	}
	for run := 1; run <= 2; run++ {
		res, err := upd.Exec(bg, 100+run, 2)
		if err != nil {
			t.Fatal(err)
		}
		trace := strings.Join(res.Trace, "\n")
		if res.Affected != 2 || !strings.Contains(trace, "plan [cached]") || !strings.Contains(trace, "bind") {
			t.Fatalf("run %d: affected=%d, want 2 and a cached plan span:\n%s", run, res.Affected, trace)
		}
	}
	res, err := del.Exec(bg, 102)
	if err != nil || res.Affected != 2 {
		t.Fatalf("prepared DELETE: affected=%v err=%v", res, err)
	}
	if !strings.Contains(strings.Join(res.Trace, "\n"), "plan [cached]") {
		t.Fatalf("prepared DELETE re-planned:\n%s", strings.Join(res.Trace, "\n"))
	}
}
