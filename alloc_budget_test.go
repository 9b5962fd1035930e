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
// long before it reaches benchmarks.
const allocBudgetMax = 1800

// TestAllocBudget gates the warm filtered-scan hot path on a hard
// allocation budget. The query is executed once to warm the plan cache and
// arenas, then sampled several times with testing.AllocsPerRun with the
// cluster quiet (see quiet); the minimum sample is compared against the
// budget. With the collector and GC loop running, twenty runs on go1.24 read
// 223…232; quiet, ten runs read 223 every time.
func TestAllocBudget(t *testing.T) {
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 2
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
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

// Hard ceilings on the warm join paths over allocBudgetRows outer rows.
// Measured after the join engine and needed-columns decode landed: hash
// ~250 (build the 4-row inner side once, probe per outer batch), lookup
// ~370 (DN-side joined rows, decoded with outer-segment memoization),
// nested loop ~700 (per-outer-row inner lookups; it was several times
// that before this PR, when every scanned row decoded and boxed all of
// its columns). Budgets carry ~100% headroom over the measured values for
// Go-version drift, and the hash gate additionally enforces the join
// engine's headline claim: at least a 2x reduction against the same
// query's nested loop, measured in the same process.
const (
	allocBudgetJoinHashMax   = 500
	allocBudgetJoinLookupMax = 800
)

// TestAllocBudgetJoin gates the warm distributed-join hot paths on hard
// allocation budgets, the join-engine extension of TestAllocBudget: the
// same filtered outer scan joined to its warehouse row, sampled per
// strategy via SET JOIN with the cluster quiet. Unquiet, the hash figure
// read 240…249 over twenty runs on go1.24; quiet, 240 in each of ten.
func TestAllocBudgetJoin(t *testing.T) {
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 2
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
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
	if _, err := s.Exec(ctx, `CREATE TABLE warehouses (
		w_id BIGINT, name TEXT, PRIMARY KEY (w_id)
	) SHARD BY w_id`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(ctx,
		"INSERT INTO warehouses VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')"); err != nil {
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

// allocBudgetPointSelectMax caps allocations for one warm, prepared,
// autocommit point SELECT through gsql on the zero-RTT cluster, streamed the
// way the wire server and the database/sql driver stream it: bind, a one-read
// context at an unwaited snapshot, one Read RPC to the primary, row decode
// and projection. Measured quiet on go1.24: 20 in every run of ten, and of
// five under -race; the same statement through an autocommit transaction
// (Begin, Get, Commit) read 22. The ceiling is the measured value + 15 %.
const allocBudgetPointSelectMax = 23

// TestAllocBudgetPointSelect gates the warm point-SELECT path, the
// statement that is most of sql_front_local's reads.
func TestAllocBudgetPointSelect(t *testing.T) {
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 2
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
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
