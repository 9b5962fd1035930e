// Scan-pipeline benchmarks: per-layer row counters for pushdown, and the
// wall-clock comparison of the synchronous paged cursor against the
// prefetcher. Paper figures come from `cmd/globaldb-bench`, wall-clock
// claims about the system from the benchmark under bench/.
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

// ---- Streaming scan pipeline benchmarks ----
//
// These measure the paged-cursor pipeline's pushdown wins by recording
// rows-fetched-per-layer alongside wall time:
//
//	storage-rows/op — visible pairs the MVCC stores returned to scans
//	wan-rows/op     — rows that crossed the simulated network to the CN
//	result-rows/op  — rows in the final SQL result
//
// A pushed LIMIT/range shows up as storage-rows/op and wan-rows/op near
// result-rows/op (O(k·page)) instead of the table size (O(N)). Results are
// recorded in CHANGES.md as "bench: <name> storage=<r>/op wan=<r>/op".

// scanBenchRows is the loaded table size for the scan benchmarks.
const scanBenchRows = 2000

// storageRows sums the rows returned by storage-level scans on every
// primary and replica store.
func storageRows(db *globaldb.DB) int64 {
	var total int64
	c := db.Cluster()
	for _, p := range c.Primaries() {
		total += p.Store().RowsScanned()
	}
	for shard := 0; shard < c.Shards(); shard++ {
		for _, r := range c.Replicas(shard) {
			total += r.Applier().Store().RowsScanned()
		}
	}
	return total
}

// wanRows sums the rows received in scan responses across every CN.
func wanRows(db *globaldb.DB) int64 {
	var total int64
	for _, cn := range db.Cluster().CNs() {
		total += cn.ScanRowsFetched()
	}
	return total
}

// openScanBenchDB builds a cluster and loads `items` with scanBenchRows
// rows spread over 4 warehouses, returning a SQL session in region.
func openScanBenchDB(b *testing.B, cfg globaldb.Config, region string) (*globaldb.DB, *gsql.Session) {
	b.Helper()
	db, err := globaldb.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	s, err := gsql.Connect(db, region)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Exec(context.Background(), `CREATE TABLE items (
		w_id BIGINT, i_id BIGINT, qty BIGINT, tag TEXT,
		PRIMARY KEY (w_id, i_id)
	) SHARD BY w_id`); err != nil {
		b.Fatal(err)
	}
	const perWarehouse = scanBenchRows / 4
	for w := 1; w <= 4; w++ {
		var vals []string
		for i := 1; i <= perWarehouse; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, 't%d')", w, i, (i*7)%100, i%5))
			if len(vals) == 250 || i == perWarehouse {
				stmt := "INSERT INTO items VALUES " + strings.Join(vals, ", ")
				if _, err := s.Exec(context.Background(), stmt); err != nil {
					b.Fatal(err)
				}
				vals = nil
			}
		}
	}
	return db, s
}

// benchScanQuery runs one SQL query b.N times and reports the per-layer
// rows-fetched metrics.
func benchScanQuery(b *testing.B, db *globaldb.DB, s *gsql.Session, sql string, wantRows int) {
	b.Helper()
	ctx := context.Background()
	s0, w0 := storageRows(db), wanRows(db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(ctx, sql)
		if err != nil {
			b.Fatal(err)
		}
		if wantRows >= 0 && len(res.Rows) != wantRows {
			b.Fatalf("rows = %d, want %d", len(res.Rows), wantRows)
		}
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(storageRows(db)-s0)/n, "storage-rows/op")
	b.ReportMetric(float64(wanRows(db)-w0)/n, "wan-rows/op")
	if wantRows >= 0 {
		b.ReportMetric(float64(wantRows), "result-rows/op")
	}
}

// BenchmarkScanFilteredFullTable runs a full-table scan with a
// non-key-range filter evaluated on the CN (pushdown forced off). The
// filter cannot narrow the key range, so both storage-rows/op and
// wan-rows/op stay O(N) — the baseline BenchmarkScanFilterPushdown is
// compared against.
func BenchmarkScanFilteredFullTable(b *testing.B) {
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 4
	db, s := openScanBenchDB(b, cfg, cfg.Regions[0])
	s.SetPushdown(false)
	benchScanQuery(b, db, s, "SELECT * FROM items WHERE qty >= 90", 200)
}

// BenchmarkScanFilterPushdown runs the identical non-PK filtered scan with
// the predicate pushed to the data nodes. Storage still reads O(N) rows —
// the filter cannot narrow the key range — but only the ~200 matching rows
// cross the WAN: wan-rows/op equals the match count, not the table size,
// which is the acceptance criterion of the DN-side execution engine.
func BenchmarkScanFilterPushdown(b *testing.B) {
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 4
	db, s := openScanBenchDB(b, cfg, cfg.Regions[0])
	benchScanQuery(b, db, s, "SELECT * FROM items WHERE qty >= 90", 200)
}

// BenchmarkAggPushdown runs a grouped aggregate with DN-partial
// aggregation: each shard folds its rows into per-group states locally and
// ships one partial row per group, so wan-rows/op is O(shards * groups) —
// 20 for 4 shards and 5 groups — instead of the 2000-row table.
func BenchmarkAggPushdown(b *testing.B) {
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 4
	db, s := openScanBenchDB(b, cfg, cfg.Regions[0])
	benchScanQuery(b, db, s, "SELECT tag, COUNT(*), SUM(qty) FROM items GROUP BY tag", 5)
}

// BenchmarkAggCNSide is the same grouped aggregate with pushdown forced
// off: every row crosses the WAN to be grouped at the CN.
func BenchmarkAggCNSide(b *testing.B) {
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 4
	db, s := openScanBenchDB(b, cfg, cfg.Regions[0])
	s.SetPushdown(false)
	benchScanQuery(b, db, s, "SELECT tag, COUNT(*), SUM(qty) FROM items GROUP BY tag", 5)
}

// BenchmarkScanLimitPushdown runs `WHERE <PK range> LIMIT k` over the large
// table. The range narrows the scan inside storage and the LIMIT stops the
// paged cursor after roughly one page, so storage-rows/op is O(k·page),
// not O(N) — the acceptance criterion of the streaming-pipeline refactor.
func BenchmarkScanLimitPushdown(b *testing.B) {
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 4
	db, s := openScanBenchDB(b, cfg, cfg.Regions[0])
	benchScanQuery(b, db, s,
		"SELECT * FROM items WHERE w_id = 1 AND i_id > 100 ORDER BY w_id, i_id LIMIT 10", 10)
}

// BenchmarkScanReadOnlyCrossRegion runs the LIMIT'd range scan as a
// read-only replica query from a remote region over the modeled WAN, where
// every row shipped is a WAN cost the pushdown avoids.
func BenchmarkScanReadOnlyCrossRegion(b *testing.B) {
	cfg := globaldb.ThreeCity()
	cfg.TimeScale = 0.02
	cfg.Shards = 4
	db, _ := openScanBenchDB(b, cfg, "xian")
	remote, err := gsql.Connect(db, "dongguan")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := remote.Exec(context.Background(), "SET STALENESS = ANY"); err != nil {
		b.Fatal(err)
	}
	// Wait for replication to catch up so replica reads see the load.
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := remote.Exec(context.Background(), "SELECT COUNT(*) FROM items")
		if err == nil && res.OnReplicas && res.Rows[0][0] == int64(scanBenchRows) {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("replicas did not catch up: %v err=%v", res, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	benchScanQuery(b, db, remote,
		"SELECT * FROM items WHERE w_id = 2 AND i_id > 100 ORDER BY w_id, i_id LIMIT 10", 10)
}

// openJoinBenchDB extends the scan-bench dataset with a small warehouses
// table so join benchmarks exercise the nested-loop operator over the
// batch pipeline: an outer scan fanning out to per-row inner lookups.
func openJoinBenchDB(b *testing.B) (*globaldb.DB, *gsql.Session) {
	b.Helper()
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 4
	db, s := openScanBenchDB(b, cfg, cfg.Regions[0])
	if _, err := s.Exec(context.Background(), `CREATE TABLE warehouses (
		w_id BIGINT, name TEXT, PRIMARY KEY (w_id)
	) SHARD BY w_id`); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Exec(context.Background(),
		"INSERT INTO warehouses VALUES (1, 'xian'), (2, 'dongguan'), (3, 'shenyang'), (4, 'spare')"); err != nil {
		b.Fatal(err)
	}
	return db, s
}

// joinBenchSetStrategy pins the session's join strategy for a benchmark.
func joinBenchSetStrategy(b *testing.B, s *gsql.Session, mode string) {
	b.Helper()
	if _, err := s.Exec(context.Background(), "SET JOIN = "+mode); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJoinFilteredLookup joins the DN-filtered item scan to its
// warehouse row. The full warehouse PK is bound by the ON clause, so AUTO
// pushes the lookup into the outer fragment: data nodes filter items,
// read the matching warehouse row locally, and ship already-joined rows —
// wan-rows/op equals the 200 matches instead of paying one inner RPC per
// surviving outer row.
func BenchmarkJoinFilteredLookup(b *testing.B) {
	db, s := openJoinBenchDB(b)
	benchScanQuery(b, db, s,
		"SELECT i.i_id, w.name FROM items i JOIN warehouses w ON w.w_id = i.w_id WHERE i.qty >= 90", 200)
}

// BenchmarkJoinFilteredLookupHash is the same query forced through the CN
// hash join: the 4-row warehouse side is materialized once and probed per
// outer batch, eliminating the nested loop's per-outer-row inner lookups —
// the allocs/op reduction gated by TestAllocBudgetJoin.
func BenchmarkJoinFilteredLookupHash(b *testing.B) {
	db, s := openJoinBenchDB(b)
	joinBenchSetStrategy(b, s, "HASH")
	benchScanQuery(b, db, s,
		"SELECT i.i_id, w.name FROM items i JOIN warehouses w ON w.w_id = i.w_id WHERE i.qty >= 90", 200)
}

// BenchmarkJoinFilteredLookupNestLoop is the same query on the legacy
// nested loop — one inner PK lookup RPC per surviving outer row — kept as
// the before-side of the join-engine comparison.
func BenchmarkJoinFilteredLookupNestLoop(b *testing.B) {
	db, s := openJoinBenchDB(b)
	joinBenchSetStrategy(b, s, "NESTLOOP")
	benchScanQuery(b, db, s,
		"SELECT i.i_id, w.name FROM items i JOIN warehouses w ON w.w_id = i.w_id WHERE i.qty >= 90", 200)
}

// BenchmarkJoinFanout drives the join from the small side: 4 warehouse
// rows each fan out to a 500-row inner item scan. The lookup key binds
// only the items PK prefix and the outer is tiny, so AUTO keeps the
// batch-native nested loop — its 4 pushed range scans already ship
// O(matching) rows, and fusing the join would re-encode every joined row.
func BenchmarkJoinFanout(b *testing.B) {
	db, s := openJoinBenchDB(b)
	benchScanQuery(b, db, s,
		"SELECT w.name, i.i_id FROM warehouses w JOIN items i ON i.w_id = w.w_id", scanBenchRows)
}

// ---- Scan latency benchmarks (prefetch pipeline) ----
//
// These measure wall-clock latency — time-to-first-row and full-drain
// time — of cross-region scans under the paper's three-city RTT triangle
// (25/35/55 ms, time-scaled), comparing the synchronous paged cursor
// (ScanOpts.Prefetch < 0) against the pipelined prefetcher (default).
// The structural claims they quantify:
//
//   - merged K-shard TTFR: every shard's first page travels in parallel,
//     so the first batch arrives after ~1 (maximum) RTT instead of the
//     sum of per-shard RTTs the serial refill pays;
//   - multi-page drain: page N+1 is requested the moment page N's resume
//     key arrives, and the K shard pipelines run concurrently, so a drain
//     approaches pages-per-shard x max-RTT instead of total-pages x RTT.
//
// Row counters are identical in both modes — prefetching only reorders
// when the same pages are requested. Results are recorded in CHANGES.md
// as "bench: <name> ttfr=<ms> drain=<ms> (sync ttfr=<ms> drain=<ms>)".

// latencyBenchWarehouses spreads latencyBenchRows over this many
// single-shard warehouses across the three cities' 8 shards.
const (
	latencyBenchWarehouses    = 8
	latencyBenchRowsPerW      = 300
	latencyBenchFirstPageHint = 32 // small first page => several pages per shard
)

// openLatencyBenchDB builds the three-city cluster with 8 shards and a
// typed items table of 8 warehouses x 300 rows, returning a session homed
// in Xi'an (so roughly two thirds of the shards are across the WAN).
func openLatencyBenchDB(b *testing.B) (*globaldb.DB, *globaldb.Session) {
	b.Helper()
	cfg := globaldb.ThreeCity()
	cfg.TimeScale = 0.02
	cfg.Shards = 8
	db, err := globaldb.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	sch := &globaldb.Schema{
		Name: "items",
		Columns: []globaldb.Column{
			{Name: "w_id", Kind: globaldb.Int64},
			{Name: "i_id", Kind: globaldb.Int64},
			{Name: "qty", Kind: globaldb.Int64},
		},
		PK: []int{0, 1},
	}
	ctx := context.Background()
	if err := db.CreateTable(ctx, sch); err != nil {
		b.Fatal(err)
	}
	sess, err := db.Connect("xian")
	if err != nil {
		b.Fatal(err)
	}
	for w := 1; w <= latencyBenchWarehouses; w++ {
		for base := 1; base <= latencyBenchRowsPerW; base += 100 {
			tx, err := sess.Begin(ctx)
			if err != nil {
				b.Fatal(err)
			}
			for i := base; i < base+100 && i <= latencyBenchRowsPerW; i++ {
				if err := tx.Insert(ctx, "items", globaldb.Row{int64(w), int64(i), int64(i % 97)}); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db, sess
}

// remoteWarehouse picks a warehouse whose shard primary is in Dongguan —
// the city farthest from Xi'an (55 ms RTT) — so the single-shard scan
// crosses the widest link.
func remoteWarehouse(b *testing.B, db *globaldb.DB) int64 {
	b.Helper()
	primaries := db.Cluster().Primaries()
	for w := int64(1); w <= latencyBenchWarehouses; w++ {
		if primaries[db.Cluster().ShardOf(w)].Region() == "dongguan" {
			return w
		}
	}
	b.Fatal("no warehouse hashes to a dongguan shard")
	return 0
}

// benchScanLatency runs the scan b.N times on primaries via a read-write
// transaction (deterministic WAN routing), reporting mean time-to-first-
// row and full-drain wall time.
func benchScanLatency(b *testing.B, merged bool, prefetch int) {
	db, sess := openLatencyBenchDB(b)
	ctx := context.Background()
	w := remoteWarehouse(b, db)
	wantRows := latencyBenchRowsPerW
	if merged {
		wantRows = latencyBenchWarehouses * latencyBenchRowsPerW
	}
	opts := globaldb.ScanOpts{PageSize: latencyBenchFirstPageHint, Prefetch: prefetch}
	var ttfr, drain time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := sess.Begin(ctx)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		var rows *globaldb.Rows
		if merged {
			rows, err = tx.ScanTableRows(ctx, "items", opts)
		} else {
			rows, err = tx.ScanPKRows(ctx, "items", []any{w}, opts)
		}
		if err != nil {
			b.Fatal(err)
		}
		if !rows.Next() {
			b.Fatalf("no first row: %v", rows.Err())
		}
		ttfr += time.Since(start)
		n := 1
		for rows.Next() {
			n++
		}
		drain += time.Since(start)
		rows.Close()
		if rows.Err() != nil || n != wantRows {
			b.Fatalf("drained %d rows (want %d), err=%v", n, wantRows, rows.Err())
		}
		_ = tx.Abort(ctx)
	}
	b.StopTimer()
	b.ReportMetric(float64(ttfr.Microseconds())/float64(b.N)/1e3, "ttfr-ms")
	b.ReportMetric(float64(drain.Microseconds())/float64(b.N)/1e3, "drain-ms")
}

// BenchmarkScanLatencyThreeCity drains one remote shard (Xi'an -> Dongguan,
// the triangle's 55 ms edge) across several pages: sync pays RTT + decode
// per page serially, prefetch overlaps the next page's round trip with
// consumption of the current one.
func BenchmarkScanLatencyThreeCity(b *testing.B) {
	b.Run("sync", func(b *testing.B) { benchScanLatency(b, false, -1) })
	b.Run("prefetch", func(b *testing.B) { benchScanLatency(b, false, 0) })
}

// BenchmarkScanLatencyThreeCityMerged drains the key-order merge of all 8
// shards across three cities. Sync opens and refills the shard cursors one
// at a time — TTFR is the *sum* of the per-shard first-page RTTs and the
// drain is total-pages x RTT; prefetch runs all shard pipelines
// concurrently — TTFR is ~1 max-RTT and the drain approaches
// pages-per-shard x max-RTT.
func BenchmarkScanLatencyThreeCityMerged(b *testing.B) {
	b.Run("sync", func(b *testing.B) { benchScanLatency(b, true, -1) })
	b.Run("prefetch", func(b *testing.B) { benchScanLatency(b, true, 0) })
	// The leading PK column is the warehouse, so the key-order merge
	// consumes shard runs one after another; a deeper window lets idle
	// shards pipeline further ahead while an earlier shard drains.
	b.Run("prefetch-window3", func(b *testing.B) { benchScanLatency(b, true, 3) })
}
