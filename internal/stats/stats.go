// Package stats holds the per-query scan counters that make
// execution-pushdown wins observable at runtime, the commit-path and server
// snapshots read from the obs registry, and the metric names those
// instruments are registered under. Latency histograms live in obs.
package stats

import (
	"sync/atomic"
	"time"

	"globaldb/internal/obs"
)

// Process-wide scan totals on obs.Default: every per-query ScanCounters
// mirrors its page-level observations here, so the metrics endpoint can
// report cluster-lifetime pushdown and prefetch effectiveness without a
// second accounting path. Updates are page-granular (a handful of atomic
// adds per scan RPC), never per-row.
var (
	scanPagesTotal    = obs.Default.Counter("globaldb_scan_pages_total")
	scanStorageTotal  = obs.Default.Counter("globaldb_scan_storage_rows_total")
	scanFilteredTotal = obs.Default.Counter("globaldb_scan_dn_filtered_rows_total")
	scanWANTotal      = obs.Default.Counter("globaldb_scan_wan_rows_total")
	scanHitsTotal     = obs.Default.Counter("globaldb_scan_prefetch_hits_total")
	scanWaitTotal     = obs.Default.Counter("globaldb_scan_wan_wait_nanos_total")
	scanLookupTotal   = obs.Default.Counter("globaldb_scan_lookup_rows_total")
)

// ScanCounters accumulates one query's scan activity across every shard
// cursor it opens: rows the data nodes read from storage, rows those nodes
// dropped locally (filtered out or folded into partial aggregates), and
// rows that actually crossed the WAN to the computing node. The gap
// between StorageRows and WANRows is the pushdown win. Alongside the row
// counters it tracks WAN latency observability: pages fetched, pages that
// were already prefetched when the consumer asked for them, and the
// cumulative time the consumer actually spent blocked on the WAN. Safe for
// concurrent use; cursors for different shards fetch from concurrent
// prefetch goroutines.
type ScanCounters struct {
	storage  atomic.Int64
	filtered atomic.Int64
	wan      atomic.Int64
	lookups  atomic.Int64
	pages    atomic.Int64
	hits     atomic.Int64
	waitNano atomic.Int64
}

// Observe records one scan RPC's outcome: examined rows read at storage,
// shipped rows returned over the network.
func (c *ScanCounters) Observe(examined, shipped int) {
	c.ObserveJoin(examined, 0, shipped)
}

// ObserveJoin records one lookup-join scan RPC's outcome: examined outer
// rows read at storage, looked inner rows the data node read to join them,
// and shipped joined rows returned over the network. Both row classes count
// as storage reads; looked rows additionally feed the lookup counter so
// per-side join accounting survives aggregation. A pushed lookup join never
// ships more rows than it read (each shipped row consumed at least one
// looked inner row), so the DN-filtered gap stays non-negative.
func (c *ScanCounters) ObserveJoin(examined, looked, shipped int) {
	read := examined + looked
	c.storage.Add(int64(read))
	c.filtered.Add(int64(read - shipped))
	c.wan.Add(int64(shipped))
	c.pages.Add(1)
	scanStorageTotal.Add(int64(read))
	scanFilteredTotal.Add(int64(read - shipped))
	scanWANTotal.Add(int64(shipped))
	scanPagesTotal.Inc()
	if looked > 0 {
		c.lookups.Add(int64(looked))
		scanLookupTotal.Add(int64(looked))
	}
}

// ObserveWait records one page handoff to the consumer: how long the
// consumer blocked waiting for the page, and whether it was already
// prefetched (ready with no wait beyond channel handoff) when asked for.
func (c *ScanCounters) ObserveWait(d time.Duration, hit bool) {
	if hit {
		c.hits.Add(1)
		scanHitsTotal.Inc()
	}
	if d > 0 {
		c.waitNano.Add(int64(d))
		scanWaitTotal.Add(int64(d))
	}
}

// Snapshot returns the current totals.
func (c *ScanCounters) Snapshot() ScanSnapshot {
	return ScanSnapshot{
		StorageRows:    c.storage.Load(),
		DNFilteredRows: c.filtered.Load(),
		WANRows:        c.wan.Load(),
		LookupRows:     c.lookups.Load(),
		PagesFetched:   c.pages.Load(),
		PrefetchHits:   c.hits.Load(),
		WANWait:        time.Duration(c.waitNano.Load()),
	}
}

// ScanSnapshot is a point-in-time read of ScanCounters.
type ScanSnapshot struct {
	// StorageRows is how many rows data nodes read from their MVCC stores.
	StorageRows int64
	// DNFilteredRows is how many of those the data nodes dropped locally
	// (failed a pushed filter, or were folded into partial aggregates).
	DNFilteredRows int64
	// WANRows is how many rows were shipped over the (simulated) WAN.
	WANRows int64
	// LookupRows is how many inner-table rows data nodes read while
	// executing pushed lookup joins — the join's inner side, served next to
	// the data instead of shipped. Also included in StorageRows.
	LookupRows int64
	// PagesFetched is how many scan-page RPCs the query issued.
	PagesFetched int64
	// PrefetchHits is how many of those pages were already fetched when the
	// consumer asked — WAN round trips fully hidden behind consumption.
	PrefetchHits int64
	// WANWait is the cumulative time the consumer spent blocked waiting for
	// a page; with an effective prefetcher it approaches the latency of the
	// first page instead of pages x RTT.
	WANWait time.Duration
}

// Add returns the element-wise sum of two snapshots.
func (s ScanSnapshot) Add(o ScanSnapshot) ScanSnapshot {
	return ScanSnapshot{
		StorageRows:    s.StorageRows + o.StorageRows,
		DNFilteredRows: s.DNFilteredRows + o.DNFilteredRows,
		WANRows:        s.WANRows + o.WANRows,
		LookupRows:     s.LookupRows + o.LookupRows,
		PagesFetched:   s.PagesFetched + o.PagesFetched,
		PrefetchHits:   s.PrefetchHits + o.PrefetchHits,
		WANWait:        s.WANWait + o.WANWait,
	}
}
