package tpcc

import (
	"testing"

	"globaldb"
)

// tpccAllocBudgetMax caps allocations for one warm New-Order transaction
// (single terminal, local warehouse, group-commit WAL attached). Measured
// ~965 warm on go1.24 (1246 before the CN buffered writes and sent them with
// the commit): a New-Order runs ~25 row operations (reads, updates, order +
// order-line inserts) through planning-free key paths, plus the commit's
// redo marshal and group-commit wait. The ceiling leaves ~2.4x headroom for
// Go-version drift while still failing fast if the write path regresses to
// per-record or per-op allocation habits — a handful of leaked allocations
// per row op (+25/txn each) blows through it long before benchmarks notice.
const tpccAllocBudgetMax = 2000

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

	// Minimum over several samples: cluster background goroutines (shippers,
	// heartbeats, the group-commit syncer) allocate too and can inflate
	// individual samples.
	best := float64(1 << 60)
	for i := 0; i < 5; i++ {
		if n := testing.AllocsPerRun(1, run); n < best {
			best = n
		}
	}
	t.Logf("warm New-Order: %.0f allocs/txn (budget %d)", best, tpccAllocBudgetMax)
	if best > tpccAllocBudgetMax {
		t.Fatalf("warm New-Order allocated %.0f times, budget is %d — the commit path regressed", best, tpccAllocBudgetMax)
	}
}
