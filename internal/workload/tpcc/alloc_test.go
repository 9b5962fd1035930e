package tpcc

import (
	"testing"
	"time"

	"globaldb"
)

// tpccAllocBudgetMax caps allocations for one warm New-Order transaction
// (single terminal, local warehouse, group-commit WAL attached): ~25 row
// operations (reads, updates, order + order-line inserts) through
// planning-free key paths, the commit's redo records, framed once by the
// primary's log and written to the WAL as those bytes, the group-commit
// wait, and the shipping of the same bytes to two replicas.
//
// The count is process-wide, so the test takes the cluster's own activity out
// of the window: the RCP collector (status polls, heartbeats and the shipping
// they trigger) and the GC loop are stopped and the shippers drained before
// measuring, and
// each measured run waits for its own redo to be acked so that all of its
// shipping falls inside. What is left beside the transaction — the
// group-commit syncer and the clock-sync tickers — is worth ±3. The driver's
// seed fixes the sequence of orders, and the reported figure is the cheapest
// of the five measured. Twenty runs of one binary on go1.24, after the redo
// log came to hold frames that the WAL and the shippers send as they are:
// min 507, median 507, max 507. With DEFLATE the same statistic read
// 726–728. The ceiling is the measured max + 15 %: one leaked allocation per
// row op is +25/txn, so four of them fail the test.
const tpccAllocBudgetMax = 583

// TestTPCCAllocBudget is the write-path analogue of the root package's
// TestAllocBudget: a hard allocation gate on the warm New-Order path.
func TestTPCCAllocBudget(t *testing.T) {
	cfg := globaldb.ThreeCity()
	cfg.TimeScale = 0.005
	cfg.Shards = 3
	cfg.WALDir = t.TempDir()
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	d := New(db, benchConfig(2))
	if err := d.CreateTables(bg); err != nil {
		t.Fatal(err)
	}
	if err := d.Load(bg); err != nil {
		t.Fatal(err)
	}
	run := func() {
		if err := d.NewOrder(bg, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm sessions, plan-free key paths, WAL segment

	// Count what the transaction allocates, not what the cluster does beside
	// it (see tpccAllocBudgetMax).
	col := db.Cluster().Collector
	col.Stop()
	db.Cluster().StopGC()
	drain := func() {
		deadline := time.Now().Add(10 * time.Second)
		for _, p := range db.Cluster().Primaries() {
			for p.Repl().MinAckedLSN() < p.Log().LastLSN() {
				if time.Now().After(deadline) {
					t.Fatalf("shard %d: replicas acked %d of %d", p.Shard(), p.Repl().MinAckedLSN(), p.Log().LastLSN())
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	drain()
	best := float64(1 << 60)
	for i := 0; i < 5; i++ {
		if n := testing.AllocsPerRun(1, func() { run(); drain() }); n < best {
			best = n
		}
	}
	db.Cluster().StartGC()
	col.Start()
	t.Logf("warm New-Order: %.0f allocs/txn (budget %d)", best, tpccAllocBudgetMax)
	if best > tpccAllocBudgetMax {
		t.Fatalf("warm New-Order allocated %.0f times, budget is %d — the commit path regressed", best, tpccAllocBudgetMax)
	}
}
