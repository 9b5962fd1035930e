package gsql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestDifferentialAccessPaths loads a table with a secondary index and runs
// randomly generated predicates twice: once as written (letting the planner
// pick point gets, prefix scans or index scans) and once with the equality
// obscured by an arithmetic identity, which forces a full scan. Both
// executions must return identical row sets — a differential test of the
// planner's access-path selection.
func TestDifferentialAccessPaths(t *testing.T) {
	s := openSQL(t)
	exec(t, s, `CREATE TABLE inv (
		w_id BIGINT, i_id BIGINT, grp BIGINT, qty BIGINT, tag TEXT,
		PRIMARY KEY (w_id, i_id),
		INDEX inv_grp (w_id, grp)
	) SHARD BY w_id`)
	rng := rand.New(rand.NewSource(7))
	for w := int64(1); w <= 4; w++ {
		for i := int64(1); i <= 30; i++ {
			stmt := fmt.Sprintf("INSERT INTO inv VALUES (%d, %d, %d, %d, 't%d')",
				w, i, rng.Int63n(5), rng.Int63n(100), rng.Int63n(3))
			exec(t, s, stmt)
		}
	}

	rowsOf := func(sql string) []string {
		t.Helper()
		res := exec(t, s, sql)
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = fmt.Sprintf("%v", r)
		}
		sort.Strings(out)
		return out
	}

	for trial := 0; trial < 60; trial++ {
		w := 1 + rng.Int63n(4)
		var pred string
		switch trial % 4 {
		case 0: // full PK: point get
			pred = fmt.Sprintf("w_id = %d AND i_id = %d", w, 1+rng.Int63n(30))
		case 1: // PK prefix scan with residual
			pred = fmt.Sprintf("w_id = %d AND qty > %d", w, rng.Int63n(100))
		case 2: // index scan
			pred = fmt.Sprintf("w_id = %d AND grp = %d", w, rng.Int63n(5))
		case 3: // index scan plus residual filter
			pred = fmt.Sprintf("w_id = %d AND grp = %d AND tag <> 't1'", w, rng.Int63n(5))
		}
		fast := rowsOf("SELECT * FROM inv WHERE " + pred)
		// `w_id + 0 = w` defeats equality extraction: full scan, same rows.
		slowPred := pred
		slowPred = "w_id + 0 = " + fmt.Sprint(w) + slowPred[len(fmt.Sprintf("w_id = %d", w)):]
		slow := rowsOf("SELECT * FROM inv WHERE " + slowPred)
		if len(fast) != len(slow) {
			t.Fatalf("trial %d (%s): %d vs %d rows", trial, pred, len(fast), len(slow))
		}
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("trial %d (%s): row %d differs\n fast: %s\n slow: %s", trial, pred, i, fast[i], slow[i])
			}
		}
	}
}

// TestDifferentialStreamingVsMaterializing runs randomized queries through
// the streaming operator pipeline (execSelect) and the materializing oracle
// (execSelectMaterialized, oracle_test.go) and requires identical
// results. The query generator covers every access path the planner can
// pick, pushed range bounds, residual filters, joins, aggregates, DISTINCT,
// ORDER BY, LIMIT and OFFSET — the full surface the refactor touched.
func TestDifferentialStreamingVsMaterializing(t *testing.T) {
	s := openSQL(t)
	exec(t, s, `CREATE TABLE stock (
		w_id BIGINT, i_id BIGINT, grp BIGINT, qty BIGINT, tag TEXT,
		PRIMARY KEY (w_id, i_id),
		INDEX stock_grp (w_id, grp)
	) SHARD BY w_id`)
	exec(t, s, `CREATE TABLE supplier (
		w_id BIGINT, s_id BIGINT, rating BIGINT,
		PRIMARY KEY (w_id, s_id)
	) SHARD BY w_id`)
	rng := rand.New(rand.NewSource(11))
	for w := int64(1); w <= 4; w++ {
		for i := int64(1); i <= 40; i++ {
			exec(t, s, fmt.Sprintf("INSERT INTO stock VALUES (%d, %d, %d, %d, 't%d')",
				w, i, rng.Int63n(6), rng.Int63n(200), rng.Int63n(4)))
		}
		for sid := int64(1); sid <= 6; sid++ {
			exec(t, s, fmt.Sprintf("INSERT INTO supplier VALUES (%d, %d, %d)", w, sid, rng.Int63n(10)))
		}
	}

	tx, err := s.sess.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort(bg)

	runBoth := func(sql string, ordered bool) {
		t.Helper()
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		p, err := planSelect(s, stmt.(*Select))
		if err != nil {
			t.Fatalf("plan %q: %v", sql, err)
		}
		bp, err := p.bind(nil)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := execSelect(bg, tx, bp)
		if err != nil {
			t.Fatalf("streaming %q: %v", sql, err)
		}
		// Re-plan: execution may have bound state into the plan's exprs.
		p2, err := planSelect(s, stmt.(*Select))
		if err != nil {
			t.Fatal(err)
		}
		bp2, err := p2.bind(nil)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := execSelectMaterialized(bg, tx, bp2)
		if err != nil {
			t.Fatalf("materialized %q: %v", sql, err)
		}
		a := rowStrings(stream.Rows)
		b := rowStrings(mat.Rows)
		if !ordered {
			sort.Strings(a)
			sort.Strings(b)
		}
		if len(a) != len(b) {
			t.Fatalf("%q: streaming %d rows vs materialized %d\n stream: %v\n mat: %v", sql, len(a), len(b), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%q: row %d differs\n stream: %s\n mat:    %s", sql, i, a[i], b[i])
			}
		}
	}

	for trial := 0; trial < 80; trial++ {
		w := 1 + rng.Int63n(4)
		lo := 1 + rng.Int63n(35)
		hi := lo + rng.Int63n(10)
		q := rng.Int63n(200)
		g := rng.Int63n(6)
		switch trial % 10 {
		case 0: // PK range pushdown, both bounds
			runBoth(fmt.Sprintf("SELECT * FROM stock WHERE w_id = %d AND i_id > %d AND i_id <= %d", w, lo, hi), false)
		case 1: // PK range + residual filter
			runBoth(fmt.Sprintf("SELECT * FROM stock WHERE w_id = %d AND i_id >= %d AND qty < %d", w, lo, q), false)
		case 2: // BETWEEN on the index's next column
			runBoth(fmt.Sprintf("SELECT * FROM stock WHERE w_id = %d AND grp BETWEEN %d AND %d", w, g, g+2), false)
		case 3: // full scan with residual filter
			runBoth(fmt.Sprintf("SELECT i_id, qty FROM stock WHERE qty >= %d AND tag <> 't0'", q), false)
		case 4: // LIMIT/OFFSET need a total order to be deterministic
			runBoth(fmt.Sprintf("SELECT * FROM stock WHERE w_id = %d ORDER BY w_id, i_id LIMIT %d OFFSET %d",
				w, 1+rng.Int63n(8), rng.Int63n(4)), true)
		case 5: // pushed LIMIT without filter (full pushdown path)
			runBoth(fmt.Sprintf("SELECT * FROM stock WHERE w_id = %d ORDER BY w_id, i_id LIMIT %d", w, 1+rng.Int63n(8)), true)
		case 6: // aggregate over a pushed range
			runBoth(fmt.Sprintf("SELECT COUNT(*), SUM(qty) FROM stock WHERE w_id = %d AND i_id BETWEEN %d AND %d", w, lo, hi), true)
		case 7: // grouped aggregate with HAVING
			runBoth(fmt.Sprintf("SELECT grp, COUNT(*) FROM stock WHERE qty < %d GROUP BY grp HAVING COUNT(*) > 1", q), false)
		case 8: // join: streamed nested loop vs materialized
			runBoth(fmt.Sprintf(`SELECT st.i_id, sp.rating FROM supplier sp JOIN stock st
				ON st.w_id = sp.w_id WHERE sp.w_id = %d AND st.i_id > %d AND sp.s_id = %d`, w, lo, 1+rng.Int63n(6)), false)
		case 9: // DISTINCT streaming dedup
			runBoth(fmt.Sprintf("SELECT DISTINCT grp FROM stock WHERE w_id = %d AND i_id > %d", w, lo), false)
		}
	}
}

// TestDifferentialPushdownVsCNSide runs randomly generated queries twice —
// once with DN-side execution (filter, projection and partial-aggregate
// pushdown) and once forced onto pure CN-side evaluation — and requires
// byte-for-byte identical results. This is the correctness contract of the
// distributed execution split: the fragment evaluator on the data nodes
// and the partial-state merge must be indistinguishable from evaluating
// everything at the computing node.
func TestDifferentialPushdownVsCNSide(t *testing.T) {
	s := openSQL(t)
	exec(t, s, `CREATE TABLE push (
		w_id BIGINT, i_id BIGINT, grp BIGINT, qty BIGINT, ratio DOUBLE, tag TEXT,
		PRIMARY KEY (w_id, i_id)
	) SHARD BY w_id`)
	rng := rand.New(rand.NewSource(23))
	for w := int64(1); w <= 4; w++ {
		for i := int64(1); i <= 60; i++ {
			qty := fmt.Sprint(rng.Int63n(100))
			if rng.Int63n(12) == 0 {
				qty = "NULL" // exercise NULL semantics on both evaluators
			}
			tag := fmt.Sprintf("'t%d'", rng.Int63n(4))
			if rng.Int63n(15) == 0 {
				tag = "NULL"
			}
			exec(t, s, fmt.Sprintf("INSERT INTO push VALUES (%d, %d, %d, %s, %g, %s)",
				w, i, rng.Int63n(5), qty, float64(i)/7, tag))
		}
	}

	runBoth := func(sql string, ordered, wantPush bool) {
		t.Helper()
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		p, err := planSelect(s, stmt.(*Select))
		if err != nil {
			t.Fatalf("plan %q: %v", sql, err)
		}
		if wantPush && p.push == nil {
			t.Fatalf("%q: expected the planner to split off a DN fragment", sql)
		}
		run := func(noPush bool) *Result {
			t.Helper()
			bp, err := p.bind(nil)
			if err != nil {
				t.Fatal(err)
			}
			bp.noPushdown = noPush
			tx, err := s.sess.Begin(bg)
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Abort(bg)
			res, err := execSelect(bg, tx, bp)
			if err != nil {
				t.Fatalf("%s (noPush=%v): %v", sql, noPush, err)
			}
			return res
		}
		pushed := run(false)
		cnSide := run(true)
		a := rowStrings(pushed.Rows)
		b := rowStrings(cnSide.Rows)
		if !ordered {
			sort.Strings(a)
			sort.Strings(b)
		}
		if len(a) != len(b) {
			t.Fatalf("%q: pushed %d rows vs CN-side %d\n pushed: %v\n cn:     %v", sql, len(a), len(b), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%q: row %d differs\n pushed: %s\n cn:     %s", sql, i, a[i], b[i])
			}
		}
		// The pushed run must actually have saved WAN rows when a fragment
		// dropped or aggregated anything (a filter that matches everything
		// legitimately ships every row).
		if wantPush && p.push.agg && pushed.Scan.WANRows >= pushed.Scan.StorageRows && pushed.Scan.StorageRows > 8 {
			t.Fatalf("%q: pushed aggregation shipped %d of %d storage rows", sql, pushed.Scan.WANRows, pushed.Scan.StorageRows)
		}
	}

	for trial := 0; trial < 120; trial++ {
		w := 1 + rng.Int63n(4)
		q := rng.Int63n(100)
		g := rng.Int63n(5)
		lo := 1 + rng.Int63n(50)
		switch trial % 12 {
		case 0: // plain comparison filter over a full scan
			runBoth(fmt.Sprintf("SELECT * FROM push WHERE qty >= %d", q), false, true)
		case 1: // conjunction with LIKE and a PK-prefix scan
			runBoth(fmt.Sprintf("SELECT * FROM push WHERE w_id = %d AND tag LIKE 't%%' AND qty < %d", w, q), false, true)
		case 2: // IN list and arithmetic on both evaluators
			runBoth(fmt.Sprintf("SELECT i_id, qty FROM push WHERE grp IN (%d, %d) AND qty %% 3 = 1", g, (g+2)%5), false, true)
		case 3: // NULL semantics: IS NULL and three-valued OR
			runBoth(fmt.Sprintf("SELECT i_id FROM push WHERE qty IS NULL OR qty > %d", q), false, true)
		case 4: // BETWEEN plus projection pushdown
			runBoth(fmt.Sprintf("SELECT grp, qty FROM push WHERE i_id BETWEEN %d AND %d", lo, lo+10), false, true)
		case 5: // global aggregates with a pushed filter
			runBoth(fmt.Sprintf("SELECT COUNT(*), COUNT(qty), SUM(qty), MIN(qty), MAX(qty), AVG(qty) FROM push WHERE qty < %d", q), true, true)
		case 6: // grouped aggregates
			runBoth(fmt.Sprintf("SELECT grp, COUNT(*), SUM(qty) FROM push WHERE qty >= %d GROUP BY grp ORDER BY grp", q), true, true)
		case 7: // multi-column grouping with HAVING on an aggregate
			runBoth(fmt.Sprintf("SELECT w_id, grp, COUNT(*) FROM push WHERE i_id > %d GROUP BY w_id, grp HAVING COUNT(*) > 1 ORDER BY w_id, grp", lo), true, true)
		case 8: // aggregate over an expression, NULL-heavy column
			runBoth("SELECT tag, AVG(qty + 1), MIN(tag) FROM push GROUP BY tag ORDER BY tag", true, true)
		case 9: // grouped agg on a PK-prefix scan with LIMIT/OFFSET
			runBoth(fmt.Sprintf("SELECT grp, MAX(qty) FROM push WHERE w_id = %d GROUP BY grp ORDER BY grp LIMIT 3 OFFSET 1", w), true, true)
		case 10: // residual split: float predicate pushes, the rest stays pushable too
			runBoth(fmt.Sprintf("SELECT i_id FROM push WHERE ratio > %g AND qty <> %d", float64(lo)/9, q), false, true)
		case 11: // empty result: zero-row global aggregate must agree
			runBoth("SELECT COUNT(*), SUM(qty) FROM push WHERE qty > 1000", true, true)
		}
	}

	// Aggregates nested inside scalar expressions, in outputs, HAVING and
	// ORDER BY: both sides evaluate them as slot columns of the group row.
	for trial := 0; trial < 30; trial++ {
		q := rng.Int63n(100)
		lo := rng.Int63n(400)
		switch trial % 3 {
		case 0:
			runBoth(fmt.Sprintf("SELECT grp, COALESCE(SUM(qty), -1), ABS(MIN(qty) - %d) FROM push WHERE qty >= %d OR qty IS NULL GROUP BY grp ORDER BY grp", q, q), true, true)
		case 1:
			runBoth(fmt.Sprintf("SELECT w_id, COUNT(*) FROM push GROUP BY w_id HAVING SUM(qty) BETWEEN %d AND %d ORDER BY w_id", lo*3, lo*3+1500), true, true)
		case 2:
			runBoth(fmt.Sprintf("SELECT grp, MAX(qty) FROM push WHERE i_id > %d GROUP BY grp HAVING COUNT(*) IN (%d, %d) OR AVG(qty) > %d ORDER BY -SUM(qty), grp",
				1+rng.Int63n(50), 1+rng.Int63n(12), 1+rng.Int63n(12), q), true, true)
		}
	}

	// DISTINCT aggregates and float GROUP BY must NOT push down (no
	// mergeable partial state / -0.0 vs +0.0 key ambiguity) — and still
	// return identical results via the CN fallback.
	for _, sql := range []string{
		"SELECT COUNT(DISTINCT grp) FROM push",
		"SELECT ratio, COUNT(*) FROM push GROUP BY ratio",
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := planSelect(s, stmt.(*Select))
		if err != nil {
			t.Fatal(err)
		}
		if p.push != nil && p.push.agg {
			t.Fatalf("%q: must not push aggregation", sql)
		}
		runBoth(sql, false, false)
	}
}

// TestExplainShowsPushdownSplit checks EXPLAIN renders the DN-partial /
// CN-final split so the fragment plan is inspectable from the shell.
func TestExplainShowsPushdownSplit(t *testing.T) {
	s := openSQL(t)
	exec(t, s, `CREATE TABLE exp (
		w_id BIGINT, i_id BIGINT, grp BIGINT, qty BIGINT,
		PRIMARY KEY (w_id, i_id)
	) SHARD BY w_id`)
	planText := func(sql string) string {
		res := exec(t, s, "EXPLAIN "+sql)
		var lines []string
		for _, r := range res.Rows {
			lines = append(lines, fmt.Sprint(r[0]))
		}
		return fmt.Sprint(lines)
	}
	agg := planText("SELECT grp, COUNT(*), SUM(qty) FROM exp WHERE qty > 5 GROUP BY grp")
	for _, want := range []string{"dn-pushdown", "partial-aggregate [COUNT(*), SUM(qty)]", "group by [grp]", "merge partial aggregate states"} {
		if !strings.Contains(agg, want) {
			t.Fatalf("EXPLAIN aggregate plan missing %q:\n%s", want, agg)
		}
	}
	filt := planText("SELECT i_id FROM exp WHERE qty > 5")
	for _, want := range []string{"dn-pushdown", "filter (qty > 5)", "project [", "cn-residual filter: none"} {
		if !strings.Contains(filt, want) {
			t.Fatalf("EXPLAIN filter plan missing %q:\n%s", want, filt)
		}
	}
}

func rowStrings(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%v", r)
	}
	return out
}

// TestDifferentialJoinStrategies checks that a join whose inner side uses
// point lookups returns the same result as the same join forced onto a
// full-scan inner (by obscuring the ON equality).
func TestDifferentialJoinStrategies(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	fast := exec(t, s, `SELECT o.o_id, l.item FROM orders o JOIN lines l
		ON l.w_id = o.w_id AND l.o_id = o.o_id ORDER BY o.o_id, l.item`)
	slow := exec(t, s, `SELECT o.o_id, l.item FROM orders o JOIN lines l
		ON l.w_id + 0 = o.w_id AND l.o_id + 0 = o.o_id ORDER BY o.o_id, l.item`)
	if len(fast.Rows) != len(slow.Rows) {
		t.Fatalf("join rows: %d vs %d", len(fast.Rows), len(slow.Rows))
	}
	for i := range fast.Rows {
		if fmt.Sprint(fast.Rows[i]) != fmt.Sprint(slow.Rows[i]) {
			t.Fatalf("join row %d: %v vs %v", i, fast.Rows[i], slow.Rows[i])
		}
	}
}
