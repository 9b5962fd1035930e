package tpcc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globaldb"
	"globaldb/internal/obs"
	"globaldb/internal/stats"
	"globaldb/internal/wal"
)

// benchConfig is the TPC-C scale for the throughput benchmarks: one home
// warehouse per terminal so the mix conflicts on districts, not on
// everything, and a 10% remote rate so a realistic slice of New-Orders and
// Payments run 2PC across the three-city topology.
func benchConfig(terminals int) Config {
	return Config{
		Warehouses:               terminals,
		Districts:                4,
		CustomersPerDistrict:     12,
		Items:                    24,
		InitialOrdersPerDistrict: 4,
		RemotePct:                10,
		Seed:                     42,
	}
}

// benchFsyncDelay simulates device sync latency. The CI tmpfs makes real
// fsyncs invisibly fast; commit-path comparisons need the cost the paper's
// hardware pays.
const benchFsyncDelay = 300 * time.Microsecond

// benchTerminals is the headline terminal count. The paper drives 600
// terminals; 24 is enough that each shard's WAL sees several concurrent
// committers — the regime group commit exists for — while a closed loop of
// 8 (BenchmarkTPCCNewOrderPayment8) shows the low-concurrency end.
const benchTerminals = 24

// benchTPCCMix drives a 50/50 New-Order/Payment mix from `terminals`
// concurrent terminals on the three-city topology with an on-disk WAL, and
// reports tpmC (successful New-Orders per minute), fsyncs per committed
// transaction, and interval commit-latency quantiles from the obs registry.
func benchTPCCMix(b *testing.B, terminals int, group bool) {
	cfg := globaldb.ThreeCity()
	cfg.TimeScale = 0.005
	cfg.Shards = 3
	cfg.WALDir = b.TempDir()
	cfg.WALFsyncDelay = benchFsyncDelay
	cfg.WALLinger = 500 * time.Microsecond
	if !group {
		// The pre-group-commit write path: every append fsyncs alone,
		// inside the primary's mutex.
		cfg.WALSync = wal.SyncEveryBatch
	}
	db, err := globaldb.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	d := New(db, benchConfig(terminals))
	if err := d.CreateTables(bg); err != nil {
		b.Fatal(err)
	}
	if err := d.Load(bg); err != nil {
		b.Fatal(err)
	}

	fsyncsBefore := walFsyncs(db)
	commitHist := obs.Default.Histogram(stats.MetricCommitLatency)
	histBefore := commitHist.Snapshot()

	var seq, newOrders, commits atomic.Int64
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < terminals; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			home := d.HomeWarehouse(t)
			for {
				n := seq.Add(1)
				if n > int64(b.N) {
					return
				}
				if n%2 == 0 {
					if d.NewOrder(bg, t, home) == nil {
						newOrders.Add(1)
						commits.Add(1)
					}
				} else {
					if d.Payment(bg, t, home) == nil {
						commits.Add(1)
					}
				}
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	if c := commits.Load(); c > 0 {
		b.ReportMetric(float64(newOrders.Load())/elapsed.Minutes(), "tpmC")
		b.ReportMetric(float64(walFsyncs(db)-fsyncsBefore)/float64(c), "fsyncs/commit")
	}
	interval := commitHist.Snapshot().Sub(histBefore)
	b.ReportMetric(float64(interval.P50())/1e6, "commit-p50-ms")
	b.ReportMetric(float64(interval.P95())/1e6, "commit-p95-ms")
}

// walFsyncs sums WAL fsync counts across every shard primary.
func walFsyncs(db *globaldb.DB) int64 {
	var n int64
	for _, p := range db.Cluster().Primaries() {
		if w := p.WAL(); w != nil {
			n += w.GroupStats().Fsyncs
		}
	}
	return n
}

// BenchmarkTPCCNewOrderPayment is the headline write-path number: group
// commit on, eight terminals.
func BenchmarkTPCCNewOrderPayment(b *testing.B) {
	benchTPCCMix(b, benchTerminals, true)
}

// BenchmarkTPCCNewOrderPayment8 is the same mix at eight terminals.
func BenchmarkTPCCNewOrderPayment8(b *testing.B) {
	benchTPCCMix(b, 8, true)
}

// BenchmarkTPCCNewOrderPaymentFsyncPerCommit is the pre-PR baseline: the
// same mix with the WAL fsyncing each append alone, inside the primary's
// mutex (SyncEveryBatch). The tpmC gap against
// BenchmarkTPCCNewOrderPayment is the group-commit + async-2PC win.
func BenchmarkTPCCNewOrderPaymentFsyncPerCommit(b *testing.B) {
	benchTPCCMix(b, benchTerminals, false)
}
