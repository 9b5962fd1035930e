package gsql

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"globaldb"
)

// TestExecAndQueryRunOnePlan pins that Exec and a drained Session.Query run
// one plan: on the accounts-and-groups shape of the sql_front_local
// benchmark (acct keyed by id, grp_info keyed by grp, 10 groups, 400
// accounts), a join, a GROUP BY and an ORDER BY without LIMIT must agree on
// rows, on the join strategy and on every deterministic scan counter. The
// join is the sensitive case: with the catalog's row estimates AUTO picks
// hash, without them nested-loop, so an entry point that skipped the
// estimates would run a plan EXPLAIN ANALYZE does not report. PrefetchHits
// and WANWait depend on timing and are not compared.
func TestExecAndQueryRunOnePlan(t *testing.T) {
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	s, err := Connect(db, cfg.Regions[0])
	if err != nil {
		t.Fatal(err)
	}
	exec(t, s, "CREATE TABLE acct (id BIGINT, grp BIGINT, bal DOUBLE, name TEXT, PRIMARY KEY (id)) SHARD BY id")
	exec(t, s, "CREATE TABLE grp_info (grp BIGINT, label TEXT, PRIMARY KEY (grp)) SHARD BY grp")
	var vals []string
	for g := 0; g < 10; g++ {
		vals = append(vals, fmt.Sprintf("(%d, 'group-%d')", g, g))
	}
	exec(t, s, "INSERT INTO grp_info VALUES "+strings.Join(vals, ", "))
	vals = vals[:0]
	for id := 0; id < 400; id++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d.0, 'init')", id, id%10, id*37%1000))
	}
	exec(t, s, "INSERT INTO acct VALUES "+strings.Join(vals, ", "))

	for _, c := range []struct {
		sql     string
		args    []any
		ordered bool
	}{
		{"SELECT a.id, g.label FROM acct a JOIN grp_info g ON g.grp = a.grp WHERE a.id BETWEEN ? AND ? AND a.bal >= ?",
			[]any{int64(100), int64(299), 500.0}, false},
		{"SELECT grp, COUNT(*), SUM(bal) FROM acct WHERE id BETWEEN ? AND ? GROUP BY grp",
			[]any{int64(50), int64(349)}, false},
		{"SELECT id, bal FROM acct WHERE id BETWEEN ? AND ? ORDER BY bal DESC, id",
			[]any{int64(20), int64(219)}, true},
	} {
		res, err := s.Exec(bg, c.sql, c.args...)
		if err != nil {
			t.Fatalf("Exec(%q): %v", c.sql, err)
		}
		rows, err := s.Query(bg, c.sql, c.args...)
		if err != nil {
			t.Fatalf("Query(%q): %v", c.sql, err)
		}
		var got [][]any
		for rows.Next() {
			got = append(got, rows.Row())
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("Query(%q): %v", c.sql, err)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("Query(%q) close: %v", c.sql, err)
		}

		a, b := rowStrings(res.Rows), rowStrings(got)
		if !c.ordered {
			sort.Strings(a)
			sort.Strings(b)
		}
		if len(a) == 0 || strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Fatalf("%q: Exec and Query rows differ\n exec:  %v\n query: %v", c.sql, a, b)
		}
		qJoin := ""
		if rows.bp != nil && rows.bp.inner != nil {
			qJoin = rows.bp.chosenJoin.String()
		}
		if res.JoinStrategy != qJoin {
			t.Fatalf("%q: Exec ran join %q, Query ran %q", c.sql, res.JoinStrategy, qJoin)
		}
		es, qs := res.Scan, rows.ScanStats()
		for _, f := range []struct {
			name string
			e, q int64
		}{
			{"StorageRows", es.StorageRows, qs.StorageRows},
			{"DNFilteredRows", es.DNFilteredRows, qs.DNFilteredRows},
			{"WANRows", es.WANRows, qs.WANRows},
			{"LookupRows", es.LookupRows, qs.LookupRows},
			{"PagesFetched", es.PagesFetched, qs.PagesFetched},
		} {
			if f.e != f.q {
				t.Fatalf("%q: %s = %d through Exec, %d through Query (join %q)", c.sql, f.name, f.e, f.q, res.JoinStrategy)
			}
		}
	}
}

// TestQueryBreakerCloseReleasesEverything pins the Close contract of a
// Query whose pipeline holds an aggregate or a sort: like a streaming
// query, it keeps its autocommit read transaction (and so its snapshot pin
// on version GC) and its scan cursors until Close, and Close releases all
// of them, whether it comes before the first Next or after one row.
func TestQueryBreakerCloseReleasesEverything(t *testing.T) {
	s := openSQL(t)
	exec(t, s, `CREATE TABLE brk (w_id BIGINT, i_id BIGINT, grp BIGINT, qty BIGINT,
		PRIMARY KEY (w_id, i_id)) SHARD BY w_id`)
	// Eight warehouses put rows on every shard, so an unclosed pipeline
	// leaves one parked prefetch goroutine per shard cursor.
	for w := 1; w <= 8; w++ {
		var vals []string
		for i := 1; i <= 150; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, %d)", w, i, i%7, (i*31)%500))
		}
		exec(t, s, "INSERT INTO brk VALUES "+strings.Join(vals, ", "))
	}
	cn := s.db.Cluster().CN("xian")
	pinned := func() bool {
		_, ok := cn.OldestActiveSnapshot(time.Now())
		return ok
	}
	const (
		grouped = "SELECT grp, COUNT(*), SUM(qty) FROM brk WHERE qty >= 10 GROUP BY grp"
		sorted  = "SELECT i_id, qty FROM brk ORDER BY qty DESC, i_id"
	)
	exec(t, s, grouped) // warm the plan cache and the cluster's pools
	exec(t, s, sorted)
	baseline := runtime.NumGoroutine()

	for _, sql := range []string{grouped, sorted} {
		for _, next := range []int{0, 1} {
			rows, err := s.Query(bg, sql)
			if err != nil {
				t.Fatalf("Query(%q): %v", sql, err)
			}
			if sql == grouped && (rows.bp.push == nil || !rows.bp.push.agg) {
				t.Fatalf("%q: the aggregate was not pushed", sql)
			}
			if !pinned() {
				t.Fatalf("%q: an open Query holds no snapshot pin", sql)
			}
			for i := 0; i < next; i++ {
				if !rows.Next() {
					t.Fatalf("%q: no row %d: %v", sql, i, rows.Err())
				}
			}
			if err := rows.Close(); err != nil {
				t.Fatalf("%q: close after %d rows: %v", sql, next, err)
			}
			if pinned() {
				t.Fatalf("%q: closed after %d rows, the snapshot is still pinned", sql, next)
			}
			// The scans' prefetch goroutines exit with their cursors;
			// allow a little slack for the cluster's own churn.
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > baseline+2 {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%q: closed after %d rows, goroutines %d over baseline %d\n%s",
						sql, next, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
}
