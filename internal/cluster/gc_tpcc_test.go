package cluster_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"globaldb"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/workload/tpcc"
)

// TestGCKeepsTPCCConsistent runs the TPC-C mix from six terminals, a tenth of
// it cross-warehouse, on a durable cluster whose GC loop prunes and truncates
// every two milliseconds — New-Order's district counter is the hot row whose
// chain GC exists for, Delivery's deletes are the tombstones it unlinks — and
// then checks the cross-table invariants. No transaction may meet
// ErrSnapshotTooOld: every one of them is a tracked read-write transaction.
func TestGCKeepsTPCCConsistent(t *testing.T) {
	ctx := context.Background()
	cfg := globaldb.ThreeCity()
	cfg.TimeScale = 0.005
	cfg.Shards = 3
	cfg.WALDir = t.TempDir()
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	d := tpcc.New(db, tpcc.Config{
		Warehouses: 3, Districts: 2, CustomersPerDistrict: 10, Items: 20,
		InitialOrdersPerDistrict: 3, RemotePct: 10, Seed: 7,
	})
	if err := d.CreateTables(ctx); err != nil {
		t.Fatal(err)
	}
	if err := d.Load(ctx); err != nil {
		t.Fatal(err)
	}
	db.Cluster().RestartGCEvery(2 * time.Millisecond)

	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			term := d.Terminal(c)
			for i := 0; i < 40; i++ {
				// Write-write conflicts abort and the terminal moves on.
				if err := term(ctx); errors.Is(err, mvcc.ErrSnapshotTooOld) {
					t.Errorf("terminal %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := d.ConsistencyCheck(ctx); err != nil {
		t.Fatal(err)
	}
	var pruned, versions, keys int64
	for _, p := range db.Cluster().Primaries() {
		st := p.Store().Stats()
		pruned, versions, keys = pruned+st.Pruned, versions+st.Versions, keys+int64(st.Keys)
	}
	t.Logf("primaries: %d versions on %d keys, %d pruned", versions, keys, pruned)
	if pruned == 0 {
		t.Fatal("GC pruned nothing under TPC-C")
	}
}
