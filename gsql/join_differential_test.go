package gsql

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestDifferentialJoinEngine runs randomly generated two-table queries
// through every physical join strategy — pushed lookup join, CN hash join,
// and the nested loop with pushdown disabled (the pure legacy oracle) —
// and requires byte-identical results. The dataset is NULL-heavy on the
// join columns (NULL never matches) and includes outer rows whose key
// matches no inner row, the two classic join-bug magnets. This is the
// correctness contract of the distributed join engine: fusing the inner
// lookup into the outer scan's fragment, or replacing the rescan loop
// with a hash table, must be invisible in results.
func TestDifferentialJoinEngine(t *testing.T) {
	s := openSQL(t)
	exec(t, s, `CREATE TABLE jord (
		w_id BIGINT, o_id BIGINT, c_id BIGINT, grp BIGINT, amt DOUBLE, tag TEXT,
		PRIMARY KEY (w_id, o_id)
	) SHARD BY w_id`)
	exec(t, s, `CREATE TABLE jcust (
		w_id BIGINT, c_id BIGINT, rating BIGINT, fscore DOUBLE, name TEXT,
		PRIMARY KEY (w_id, c_id)
	) SHARD BY w_id`)
	rng := rand.New(rand.NewSource(41))
	for w := int64(1); w <= 4; w++ {
		for c := int64(1); c <= 8; c++ {
			name := fmt.Sprintf("'c%d'", c)
			if rng.Int63n(10) == 0 {
				name = "NULL"
			}
			exec(t, s, fmt.Sprintf("INSERT INTO jcust VALUES (%d, %d, %d, %d.0, %s)",
				w, c, rng.Int63n(6), rng.Int63n(4), name))
		}
		for o := int64(1); o <= 40; o++ {
			// c_id: NULL-heavy, and values above 8 match no customer.
			cid := fmt.Sprint(1 + rng.Int63n(12))
			if rng.Int63n(6) == 0 {
				cid = "NULL"
			}
			amt := fmt.Sprintf("%d.%02d", rng.Int63n(50), rng.Int63n(100))
			if rng.Int63n(10) == 0 {
				amt = "NULL"
			}
			tag := fmt.Sprintf("'t%d'", rng.Int63n(3))
			if rng.Int63n(8) == 0 {
				tag = "NULL"
			}
			exec(t, s, fmt.Sprintf("INSERT INTO jord VALUES (%d, %d, %s, %d, %s, %s)",
				w, o, cid, rng.Int63n(4), amt, tag))
		}
	}

	// runAs executes sql under one strategy mode. The oracle disables
	// pushdown entirely, which forces the nested loop — the legacy
	// row-at-a-time path the engine must be indistinguishable from.
	runAs := func(sql, mode string, oracle bool) *Result {
		t.Helper()
		exec(t, s, "SET JOIN = "+mode)
		s.SetPushdown(!oracle)
		res := exec(t, s, sql)
		s.SetPushdown(true)
		exec(t, s, "SET JOIN = AUTO")
		return res
	}

	lookupRuns, hashRuns := 0, 0
	check := func(sql string, ordered, wantLookup, wantHash bool) {
		t.Helper()
		oracle := rowStrings(runAs(sql, "NESTLOOP", true).Rows)
		if !ordered {
			sort.Strings(oracle)
		}
		for _, mode := range []string{"LOOKUP", "HASH", "AUTO"} {
			res := runAs(sql, mode, false)
			switch {
			case mode == "LOOKUP" && wantLookup:
				if res.JoinStrategy != "lookup-pushdown" {
					t.Fatalf("%q: SET JOIN = LOOKUP ran %q", sql, res.JoinStrategy)
				}
				lookupRuns++
			case mode == "HASH" && wantHash:
				if res.JoinStrategy != "hash" {
					t.Fatalf("%q: SET JOIN = HASH ran %q", sql, res.JoinStrategy)
				}
				hashRuns++
			}
			got := rowStrings(res.Rows)
			if !ordered {
				sort.Strings(got)
			}
			if len(got) != len(oracle) {
				t.Fatalf("%q (%s=%s): %d rows vs oracle %d\n got:    %v\n oracle: %v",
					sql, mode, res.JoinStrategy, len(got), len(oracle), got, oracle)
			}
			for i := range got {
				if got[i] != oracle[i] {
					t.Fatalf("%q (%s=%s): row %d differs\n got:    %s\n oracle: %s",
						sql, mode, res.JoinStrategy, i, got[i], oracle[i])
				}
			}
		}
	}

	const pkOn = "ON c.w_id = o.w_id AND c.c_id = o.c_id"
	queries := 0
	for trial := 0; trial < 48; trial++ {
		q := rng.Int63n(50)
		g := rng.Int63n(4)
		r := rng.Int63n(6)
		w := 1 + rng.Int63n(4)
		switch trial % 8 {
		case 0: // pure PK lookup join, full outer scan
			check("SELECT * FROM jord o JOIN jcust c "+pkOn, false, true, true)
		case 1: // pushable outer filter rides the fragment
			check(fmt.Sprintf("SELECT o.o_id, c.name FROM jord o JOIN jcust c %s WHERE o.grp = %d", pkOn, g),
				false, true, true)
		case 2: // inner-side residual stays on the CN over joined rows
			check(fmt.Sprintf("SELECT o.w_id, o.o_id, c.rating FROM jord o JOIN jcust c %s WHERE c.rating < %d", pkOn, r),
				false, true, true)
		case 3: // ordered projection over the join (NULL-able columns)
			check("SELECT o.w_id, o.o_id, c.name, o.tag FROM jord o JOIN jcust c "+pkOn+
				" ORDER BY o.w_id, o.o_id", false, true, true)
		case 4: // float filter, mixed-side projection, single-shard outer
			check(fmt.Sprintf("SELECT o.o_id, o.amt, c.fscore FROM jord o JOIN jcust c %s WHERE o.w_id = %d AND o.amt > %d.5", pkOn, w, q),
				false, true, true)
		case 5: // grouped aggregate over the joined stream
			check(fmt.Sprintf("SELECT c.rating, COUNT(*) FROM jord o JOIN jcust c %s WHERE o.amt > %d.0 GROUP BY c.rating", pkOn, q),
				false, true, true)
		case 6: // non-PK equi-join: hash-eligible, lookup-ineligible
			check(fmt.Sprintf("SELECT o.o_id, c.c_id FROM jord o JOIN jcust c ON o.grp = c.rating AND o.w_id = c.w_id WHERE o.o_id <= %d", 4+q/4),
				false, false, true)
		case 7: // BIGINT = DOUBLE join key: float-normalized hash path
			check(fmt.Sprintf("SELECT o.o_id, c.c_id FROM jord o JOIN jcust c ON o.grp = c.fscore AND o.w_id = c.w_id WHERE o.o_id <= %d", 4+q/4),
				false, false, true)
		}
		queries += 4 // oracle + three strategy modes
	}
	if queries < 120 {
		t.Fatalf("only %d queries exercised, want >= 120", queries)
	}
	if lookupRuns == 0 || hashRuns == 0 {
		t.Fatalf("strategies not exercised: lookup=%d hash=%d", lookupRuns, hashRuns)
	}
}

// TestJoinStrategySurface pins the SET JOIN / SHOW JOIN session surface and
// the strategy reported on results: AUTO picks the pushed lookup join for a
// co-located PK join, explicit modes force their strategy, and disabling
// pushdown falls back to the nested loop regardless of mode.
func TestJoinStrategySurface(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	join := `SELECT o.o_id, l.item FROM orders o JOIN lines l
		ON l.w_id = o.w_id AND l.o_id = o.o_id AND l.n = 1`

	if res := exec(t, s, "SHOW JOIN"); fmt.Sprint(res.Rows[0][0]) != "AUTO" {
		t.Fatalf("SHOW JOIN = %v, want AUTO", res.Rows[0][0])
	}
	if res := exec(t, s, join); res.JoinStrategy != "lookup-pushdown" {
		t.Fatalf("AUTO ran %q, want lookup-pushdown", res.JoinStrategy)
	}
	exec(t, s, "SET JOIN = HASH")
	if res := exec(t, s, "SHOW JOIN"); fmt.Sprint(res.Rows[0][0]) != "HASH" {
		t.Fatalf("SHOW JOIN = %v, want HASH", res.Rows[0][0])
	}
	if res := exec(t, s, join); res.JoinStrategy != "hash" {
		t.Fatalf("SET JOIN = HASH ran %q", res.JoinStrategy)
	}
	exec(t, s, "SET JOIN = NESTLOOP")
	if res := exec(t, s, join); res.JoinStrategy != "nested-loop" {
		t.Fatalf("SET JOIN = NESTLOOP ran %q", res.JoinStrategy)
	}
	exec(t, s, "SET JOIN = LOOKUP")
	if res := exec(t, s, join); res.JoinStrategy != "lookup-pushdown" {
		t.Fatalf("SET JOIN = LOOKUP ran %q", res.JoinStrategy)
	}
	s.SetPushdown(false)
	if res := exec(t, s, join); res.JoinStrategy != "nested-loop" {
		t.Fatalf("pushdown off ran %q, want nested-loop", res.JoinStrategy)
	}
	s.SetPushdown(true)
	exec(t, s, "SET JOIN = AUTO")

	// Single-table queries report no join strategy.
	if res := exec(t, s, "SELECT * FROM orders WHERE w_id = 1"); res.JoinStrategy != "" {
		t.Fatalf("single-table JoinStrategy = %q", res.JoinStrategy)
	}
	if err := execErr(t, s, "SET JOIN = SIDEWAYS"); err == nil {
		t.Fatal("bad SET JOIN accepted")
	}
}

// TestSetJoinReachesStreamingQuery pins SET JOIN on the streaming path:
// Session.Query — what every wire-server and database/sql SELECT runs — must
// bind the session's join mode exactly as Exec does. A nested loop reads no
// inner rows on the data nodes; the pushed lookup join reads all of them
// there.
func TestSetJoinReachesStreamingQuery(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	join := `SELECT l.item, o.amount FROM lines l JOIN orders o
		ON o.w_id = l.w_id AND o.o_id = l.o_id`
	run := func(mode string) (lookupRows int64, n int) {
		t.Helper()
		exec(t, s, "SET JOIN = "+mode)
		rows, err := s.Query(bg, join)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
			n++
		}
		if err := rows.Close(); err != nil || rows.Err() != nil {
			t.Fatalf("%s: close %v, err %v", mode, err, rows.Err())
		}
		return rows.ScanStats().LookupRows, n
	}
	nestLoop, n1 := run("NESTLOOP")
	lookup, n2 := run("LOOKUP")
	if nestLoop != 0 {
		t.Fatalf("SET JOIN = NESTLOOP through Query read %d inner rows on data nodes", nestLoop)
	}
	if lookup == 0 {
		t.Fatal("SET JOIN = LOOKUP through Query reported no LookupRows")
	}
	if n1 != n2 || n1 == 0 {
		t.Fatalf("row counts differ across strategies: %d vs %d", n1, n2)
	}
}

// TestLookupJoinShipsMatchingRows pins the WAN economics of the pushed
// lookup join: the fan-out join that motivated it ships O(matching) rows
// while the nested loop pays per-outer-row lookup RPCs. LookupRows must
// surface the DN-side inner reads on the result's scan counters.
func TestLookupJoinShipsMatchingRows(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	join := `SELECT l.item, o.amount FROM lines l JOIN orders o
		ON o.w_id = l.w_id AND o.o_id = l.o_id`

	res := exec(t, s, join)
	if res.JoinStrategy != "lookup-pushdown" {
		t.Fatalf("ran %q, want lookup-pushdown", res.JoinStrategy)
	}
	if res.Scan.LookupRows == 0 {
		t.Fatalf("pushed lookup join reported no LookupRows: %+v", res.Scan)
	}
	// 5 line rows, each matching one order: 5 joined rows cross the WAN.
	if got, want := res.Scan.WANRows, int64(len(res.Rows)); got != want {
		t.Fatalf("WANRows = %d, want %d (matching rows only)", got, want)
	}

	exec(t, s, "SET JOIN = NESTLOOP")
	nl := exec(t, s, join)
	exec(t, s, "SET JOIN = AUTO")
	if nl.Scan.LookupRows != 0 {
		t.Fatalf("nested loop reported LookupRows = %d", nl.Scan.LookupRows)
	}
	if len(nl.Rows) != len(res.Rows) {
		t.Fatalf("row count differs: %d vs %d", len(nl.Rows), len(res.Rows))
	}
}
