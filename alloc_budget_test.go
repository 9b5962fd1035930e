package globaldb_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"globaldb"
	"globaldb/gsql"
)

// allocBudgetRows is the table size for the alloc-budget gate. Large
// enough that a per-row allocation regression on the batch path dominates
// the fixed per-query cost, small enough to keep the gate fast.
const allocBudgetRows = 400

// allocBudgetMax is the hard ceiling on allocations for one warm filtered
// full-table scan over allocBudgetRows rows with the predicate pushed to
// the data nodes. Measured ~1.0k after the batch-native refactor (decode
// once per page into an arena, selection-vector filtering, slab-per-batch
// CN decode); the pre-batch row-at-a-time pipeline measured ~3.3k. The
// ceiling sits well under the old pipeline's cost with ~80% headroom over
// the measured value for Go-version drift, so reintroducing even a couple
// of per-row allocations on the hot path (+400/+800 here) fails this test
// long before it reaches benchmarks. Skipping an untraced span's tag
// formatting on each scan-page RPC took the quiet figure from 222 to 220,
// and the ceiling down by the same 2. An autocommit read's transaction
// making its write map at the first write, and its Rows ending it without
// a closure, took it to 218 in every run of twenty, and the ceiling down by
// the same 2 again.
const allocBudgetMax = 1796

// TestAllocBudget gates the warm filtered-scan hot path on a hard
// allocation budget. The query is executed once to warm the plan cache and
// arenas, then sampled several times with testing.AllocsPerRun with the
// cluster quiet (see quiet); the minimum sample is compared against the
// budget. With the collector and GC loop running, twenty runs on go1.24 read
// 223…232; quiet, ten runs read 223 every time (220 since untraced
// scan-page spans format no tag).
func TestAllocBudget(t *testing.T) {
	db, s := openAllocBudgetItems(t)
	ctx := context.Background()

	const query = "SELECT * FROM items WHERE qty >= 90"
	run := func() {
		res, err := s.Exec(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != allocBudgetRows/10 {
			t.Fatalf("rows = %d, want %d", len(res.Rows), allocBudgetRows/10)
		}
	}
	run() // warm the plan cache, cursors and arenas

	defer quiet(t, db)()
	best := minAllocs(run)
	t.Logf("warm filtered scan: %.0f allocs/op (budget %d)", best, allocBudgetMax)
	if best > allocBudgetMax {
		t.Fatalf("warm filtered-scan path allocated %.0f times, budget is %d — a batch-path regression reintroduced per-row allocations", best, allocBudgetMax)
	}
}

// openAllocBudgetItems opens the two-shard zero-RTT cluster the budgets
// measure on, with allocBudgetRows items over four warehouses: qty cycles
// through 0..99 (a tenth of the rows have qty >= 90) and tag through five
// values.
func openAllocBudgetItems(t *testing.T) (*globaldb.DB, *gsql.Session) {
	t.Helper()
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 2
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := gsql.Connect(db, cfg.Regions[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Exec(ctx, `CREATE TABLE items (
		w_id BIGINT, i_id BIGINT, qty BIGINT, tag TEXT,
		PRIMARY KEY (w_id, i_id)
	) SHARD BY w_id`); err != nil {
		t.Fatal(err)
	}
	perWarehouse := allocBudgetRows / 4
	for w := 1; w <= 4; w++ {
		var vals []string
		for i := 1; i <= perWarehouse; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, 't%d')", w, i, (i*7)%100, i%5))
		}
		if _, err := s.Exec(ctx, "INSERT INTO items VALUES "+strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	return db, s
}

// Hard ceilings on the warm join paths over allocBudgetRows outer rows.
// Measured after the join engine and needed-columns decode landed: hash
// ~250 (build the 4-row inner side once, probe per outer batch), lookup
// ~370 (DN-side joined rows, decoded with outer-segment memoization),
// nested loop ~700 (per-outer-row inner lookups; it was several times
// that before this PR, when every scanned row decoded and boxed all of
// its columns). Budgets carry ~100% headroom over the measured values for
// Go-version drift, and the hash gate additionally enforces the join
// engine's headline claim: at least a 2x reduction against the same
// query's nested loop, measured in the same process. Skipping an untraced
// span's tag formatting on each scan-page RPC took the quiet figures from
// 238 to 234 (hash) and 360 to 358 (lookup), and each ceiling down by the
// same amount. The autocommit transaction's lazy write map and closure-free
// end took them to 232 and 356 in every run of twenty, and each ceiling
// down by 2.
const (
	allocBudgetJoinHashMax   = 494
	allocBudgetJoinLookupMax = 796
)

// TestAllocBudgetJoin gates the warm distributed-join hot paths on hard
// allocation budgets, the join-engine extension of TestAllocBudget: the
// same filtered outer scan joined to its warehouse row, sampled per
// strategy via SET JOIN with the cluster quiet. Unquiet, the hash figure
// read 240…249 over twenty runs on go1.24; quiet, 240 in each of ten.
func TestAllocBudgetJoin(t *testing.T) {
	db, s := openAllocBudgetItems(t)
	ctx := context.Background()
	if _, err := s.Exec(ctx, `CREATE TABLE warehouses (
		w_id BIGINT, name TEXT, PRIMARY KEY (w_id)
	) SHARD BY w_id`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(ctx,
		"INSERT INTO warehouses VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')"); err != nil {
		t.Fatal(err)
	}

	const query = "SELECT i.i_id, w.name FROM items i JOIN warehouses w ON w.w_id = i.w_id WHERE i.qty >= 90"
	measure := func(mode, wantStrategy string) float64 {
		t.Helper()
		if _, err := s.Exec(ctx, "SET JOIN = "+mode); err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := s.Exec(ctx, query)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != allocBudgetRows/10 {
				t.Fatalf("%s: rows = %d, want %d", mode, len(res.Rows), allocBudgetRows/10)
			}
			if res.JoinStrategy != wantStrategy {
				t.Fatalf("%s ran %q, want %q", mode, res.JoinStrategy, wantStrategy)
			}
		}
		run() // warm the plan cache, cursors, arenas and hash build path
		defer quiet(t, db)()
		return minAllocs(run)
	}

	hash := measure("HASH", "hash")
	lookup := measure("LOOKUP", "lookup-pushdown")
	nestLoop := measure("NESTLOOP", "nested-loop")
	t.Logf("warm join: hash=%.0f (budget %d), lookup=%.0f (budget %d), nested-loop=%.0f allocs/op",
		hash, allocBudgetJoinHashMax, lookup, allocBudgetJoinLookupMax, nestLoop)
	if hash > allocBudgetJoinHashMax {
		t.Fatalf("warm hash-join path allocated %.0f times, budget is %d", hash, allocBudgetJoinHashMax)
	}
	if lookup > allocBudgetJoinLookupMax {
		t.Fatalf("warm lookup-join path allocated %.0f times, budget is %d", lookup, allocBudgetJoinLookupMax)
	}
	if 2*hash > nestLoop {
		t.Fatalf("hash join allocated %.0f times vs nested loop's %.0f — the >=2x reduction claim no longer holds", hash, nestLoop)
	}
}

// allocBudgetAggMax caps allocations for one warm GROUP BY pushed to the
// data nodes over allocBudgetRows rows: each node folds its rows into
// per-group partial states, the coordinator merges the two shards' states
// and decodes the five partial-aggregate rows. Measured quiet on go1.24
// once every shipped shape decoded through one RowDecoder: 1083 in every
// run of twenty (1084 before); 1081 in every run of twenty once untraced
// scan-page spans stopped formatting their tag. The ceiling was the
// measured value + 15 %, and came down by the same 2; 1079 in every run of
// twenty once the autocommit transaction made its write map at the first
// write and its Rows ended it without a closure, and down by 2 again.
const allocBudgetAggMax = 1241

// TestAllocBudgetAgg gates the warm pushed-aggregate path: DN partial
// aggregation, the CN state merge and group-key decode.
func TestAllocBudgetAgg(t *testing.T) {
	db, s := openAllocBudgetItems(t)
	ctx := context.Background()
	const query = "SELECT tag, COUNT(*), SUM(qty) FROM items GROUP BY tag"
	run := func() {
		res, err := s.Exec(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("groups = %d, want 5", len(res.Rows))
		}
		n := int64(0)
		for _, row := range res.Rows {
			n += row[1].(int64)
		}
		if n != allocBudgetRows {
			t.Fatalf("counted %d rows, want %d", n, allocBudgetRows)
		}
	}
	run() // warm the plan cache, cursors and arenas

	defer quiet(t, db)()
	best := minAllocs(run)
	t.Logf("warm pushed aggregate: %.0f allocs/op (budget %d)", best, allocBudgetAggMax)
	if best > allocBudgetAggMax {
		t.Fatalf("warm pushed GROUP BY allocated %.0f times, budget is %d", best, allocBudgetAggMax)
	}
}

// allocBudgetIndexScanMax caps allocations for one warm index-prefix
// SELECT over allocBudgetRows rows: the data node reads the 20 rows the
// index entries name and runs the pushed filter and projection over them,
// and the computing node decodes one page. Measured quiet on go1.24: 139
// in every run of twenty; reading each row back from the computing node
// with one Get per entry, as index scans did before, measured 165. The
// ceiling was the measured maximum + 15 %; untraced scan-page spans no
// longer format their tag, which took the figure to 138 in every run of
// twenty and the ceiling down by the same 1. The autocommit transaction's
// lazy write map and closure-free end took it to 136 in every run of
// twenty, and the ceiling down by the same 2.
const allocBudgetIndexScanMax = 156

// TestAllocBudgetIndexScan gates the warm index-scan path.
func TestAllocBudgetIndexScan(t *testing.T) {
	db, s := openAllocBudgetItems(t)
	ctx := context.Background()
	if _, err := s.Exec(ctx, `CREATE TABLE stock (
		w_id BIGINT, i_id BIGINT, qty BIGINT, tag TEXT,
		PRIMARY KEY (w_id, i_id), INDEX stock_tag (w_id, tag)
	) SHARD BY w_id`); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for i := 1; i <= allocBudgetRows/4; i++ {
		vals = append(vals, fmt.Sprintf("(2, %d, %d, 't%d')", i, (i*7)%100, i%5))
	}
	if _, err := s.Exec(ctx, "INSERT INTO stock VALUES "+strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	const query = "SELECT i_id, qty FROM stock WHERE w_id = 2 AND tag = 't3'"
	run := func() {
		res, err := s.Exec(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != allocBudgetRows/20 {
			t.Fatalf("rows = %d, want %d", len(res.Rows), allocBudgetRows/20)
		}
	}
	run() // warm the plan cache, cursors and arenas

	defer quiet(t, db)()
	best := minAllocs(run)
	t.Logf("warm index scan: %.0f allocs/op (budget %d)", best, allocBudgetIndexScanMax)
	if best > allocBudgetIndexScanMax {
		t.Fatalf("warm index-prefix SELECT allocated %.0f times, budget is %d", best, allocBudgetIndexScanMax)
	}
}

// minAllocs returns the fewest allocations run made in five single-run
// samples (minimum, not mean: what the cluster's goroutines allocate beside
// run can only add to a sample).
func minAllocs(run func()) float64 {
	best := float64(1 << 60)
	for i := 0; i < 5; i++ {
		if n := testing.AllocsPerRun(1, run); n < best {
			best = n
		}
	}
	return best
}

// quiet takes the cluster's own activity out of an allocation window, the
// way TestTPCCAllocBudget does: the RCP collector (status polls, heartbeats
// and the redo shipping they cause) and the version-GC loop stop, and the
// shippers drain what is already logged. What is left beside the measured
// statement is the clock-sync tickers. The returned function restarts both.
func quiet(t *testing.T, db *globaldb.DB) (resume func()) {
	t.Helper()
	c := db.Cluster()
	c.Collector.Stop()
	c.StopGC()
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range c.Primaries() {
		for p.Repl().MinAckedLSN() < p.Log().LastLSN() {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: replicas acked %d of %d", p.Shard(), p.Repl().MinAckedLSN(), p.Log().LastLSN())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return func() {
		c.StartGC()
		c.Collector.Start()
	}
}

// openAllocBudgetAcct opens the two-shard zero-RTT cluster the point
// budgets measure on, with four accounts: id n has bal 100*n.
func openAllocBudgetAcct(t *testing.T) (*globaldb.DB, *gsql.Session) {
	t.Helper()
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 2
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := gsql.Connect(db, cfg.Regions[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Exec(ctx, "CREATE TABLE acct (id BIGINT, name TEXT, bal BIGINT, PRIMARY KEY (id)) SHARD BY id"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(ctx, "INSERT INTO acct VALUES (1, 'a', 100), (2, 'b', 200), (3, 'c', 300), (4, 'd', 400)"); err != nil {
		t.Fatal(err)
	}
	return db, s
}

// allocBudgetPointSelectMax caps allocations for one warm, prepared,
// autocommit point SELECT through gsql on the zero-RTT cluster, streamed the
// way the wire server and the database/sql driver stream it: bind, a one-read
// context (a transaction, with no write map and no GC pin) at an unwaited
// snapshot, one Read RPC to the primary, the Commit that settles the read,
// and row decode and projection. Measured quiet on go1.24: 20 in every run of
// ten, and of five under -race; the same statement through an autocommit
// transaction (Begin, Get, Commit) read 22. The ceiling is that measured
// value + 15 %. Since the point SELECT shares the point UPDATE's context it
// reads 19 in every run of twenty, as the read-only context it replaced did.
const allocBudgetPointSelectMax = 23

// TestAllocBudgetPointSelect gates the warm point-SELECT path, the
// statement that is most of sql_front_local's reads.
func TestAllocBudgetPointSelect(t *testing.T) {
	db, s := openAllocBudgetAcct(t)
	ctx := context.Background()
	st, err := s.Prepare(ctx, "SELECT bal FROM acct WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	id := int64(0)
	run := func() {
		id = id%4 + 1
		rows, err := st.Query(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			if rows.Row()[0] != 100*id {
				t.Fatalf("id %d: bal %v", id, rows.Row()[0])
			}
			n++
		}
		if err := rows.Close(); err != nil || n != 1 {
			t.Fatalf("id %d: %d rows, close: %v", id, n, err)
		}
	}
	for i := 0; i < 4; i++ {
		run() // warm the plan, every row's shard and the pools
	}

	defer quiet(t, db)()
	best := minAllocs(run)
	t.Logf("warm point select: %.0f allocs/op (budget %d)", best, allocBudgetPointSelectMax)
	if best > allocBudgetPointSelectMax {
		t.Fatalf("warm point SELECT allocated %.0f times, budget is %d", best, allocBudgetPointSelectMax)
	}
}

// allocBudgetPointUpdateMax caps allocations for one warm, prepared,
// autocommit point UPDATE through gsql on the zero-RTT cluster: bind, a
// one-read context at an unwaited snapshot, one Read RPC to the primary,
// row decode and re-encode, and the one message that stages the write,
// checks the version read and commits, then the commit wait. Measured quiet
// on go1.24: 86 in every run. 80 are the statement's own. The other 6 are
// the shard's two replicas pushing the watermark the replayed commit raised
// to the collector's endpoint, three allocations each: the count counts the
// whole process, and a stopped collector does not stop the pushes. The
// ceiling leaves 7 % over 86.
const allocBudgetPointUpdateMax = 92

// TestAllocBudgetPointUpdate gates the warm point-UPDATE path, the statement
// that is most of sql_front_local's writes.
func TestAllocBudgetPointUpdate(t *testing.T) {
	db, s := openAllocBudgetAcct(t)
	ctx := context.Background()
	st, err := s.Prepare(ctx, "UPDATE acct SET name = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	id := int64(0)
	run := func() {
		id = id%4 + 1
		res, err := st.Exec(ctx, "n", id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != 1 {
			t.Fatalf("id %d: %d rows updated", id, res.Affected)
		}
	}
	for i := 0; i < 4; i++ {
		run() // warm the plan, every row's shard and the pools
	}

	defer quiet(t, db)()
	best := minAllocs(run)
	t.Logf("warm point update: %.0f allocs/op (budget %d)", best, allocBudgetPointUpdateMax)
	if best > allocBudgetPointUpdateMax {
		t.Fatalf("warm point UPDATE allocated %.0f times, budget is %d", best, allocBudgetPointUpdateMax)
	}
}

// Ceilings on a warm replica read under SET STALENESS = ANY on the point
// budgets' rig: bind, a read-only query at the RCP (the DDL gate, a skyline
// pick per shard), then either one Read RPC and the row decode (point), or
// one pushed-aggregate page from each shard, the state merge and the decode
// (SUM). Measured quiet on go1.24 over eight runs: 26 or 27 (point) and 105
// or 106 (SUM), the higher figure when a skyline tracker refresh lands in
// the window. The ceilings are 27 and 105 + 15 %.
const (
	allocBudgetReplicaPointMax = 31
	allocBudgetReplicaSumMax   = 121
)

// TestAllocBudgetReplicaRead gates the warm replica read paths: a prepared
// point SELECT and a pushed SELECT SUM(bal), both served at the RCP. No other
// gate reads a replica.
func TestAllocBudgetReplicaRead(t *testing.T) {
	db, s := openAllocBudgetAcct(t)
	ctx := context.Background()
	if _, err := s.Exec(ctx, "SET STALENESS = ANY"); err != nil {
		t.Fatal(err)
	}
	point, err := s.Prepare(ctx, "SELECT bal FROM acct WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Prepare(ctx, "SELECT SUM(bal) FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	// read runs st and reports whether it read at the RCP and returned want.
	read := func(st *gsql.Stmt, want int64, args ...any) bool {
		rows, err := st.Query(ctx, args...)
		if err != nil {
			t.Fatal(err)
		}
		n, ok := 0, true
		for rows.Next() {
			ok = ok && rows.Row()[0] == want
			n++
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		return rows.OnReplicas() && ok && n == 1
	}
	id := int64(0)
	runPoint := func() {
		id = id%4 + 1
		if !read(point, 100*id, id) {
			t.Fatalf("id %d: not read at the RCP, or not found", id)
		}
	}
	runSum := func() {
		if !read(sum, 1000) {
			t.Fatal("SUM(bal) not read at the RCP, or not 1000")
		}
	}
	// The replicas serve once the RCP passes the table's DDL and the inserts.
	deadline := time.Now().Add(10 * time.Second)
	for !read(point, 400, int64(4)) || !read(sum, 1000) {
		if time.Now().After(deadline) {
			t.Fatal("the RCP never reached the inserted rows")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		runPoint() // warm the plans, every row's shard and the pools
		runSum()
	}

	defer quiet(t, db)()
	bestPoint, bestSum := minAllocs(runPoint), minAllocs(runSum)
	t.Logf("warm replica read: point %.0f allocs/op (budget %d), SUM %.0f allocs/op (budget %d)",
		bestPoint, allocBudgetReplicaPointMax, bestSum, allocBudgetReplicaSumMax)
	if bestPoint > allocBudgetReplicaPointMax {
		t.Fatalf("warm replica point SELECT allocated %.0f times, budget is %d", bestPoint, allocBudgetReplicaPointMax)
	}
	if bestSum > allocBudgetReplicaSumMax {
		t.Fatalf("warm replica SELECT SUM(bal) allocated %.0f times, budget is %d", bestSum, allocBudgetReplicaSumMax)
	}
}
