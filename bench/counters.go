package main

import (
	"sort"
	"time"

	"globaldb"
	"globaldb/internal/coordinator"
	"globaldb/internal/obs"
	"globaldb/internal/repl"
	"globaldb/internal/stats"
	"globaldb/internal/wal"
	"globaldb/server"
)

// Counters that are already public — instruments on obs.Default, per-store
// and per-CN totals, the wire server's registry — read before and after a
// phase from outside the program. Reading them costs nothing, which is why
// this source needs no tracing.

// Registry names not exported as constants by their packages.
const (
	metricScanPages     = "globaldb_scan_pages_total"
	metricScanFiltered  = "globaldb_scan_dn_filtered_rows_total"
	metricScanHits      = "globaldb_scan_prefetch_hits_total"
	metricScanWaitNanos = "globaldb_scan_wan_wait_nanos_total"
	metricPoolWaits     = "driver_pool_wait_total"
	metricServerSelect  = "server_statement_latency_seconds"
)

var defaultCounters = []string{
	wal.MetricFsyncs, wal.MetricGroupCommits, wal.MetricGroupedCommits,
	repl.MetricBatches, repl.MetricRecords, repl.MetricRawBytes, repl.MetricWireBytes,
	stats.MetricAsyncResolves,
	metricScanPages, metricScanFiltered, metricScanHits, metricScanWaitNanos, metricPoolWaits,
}

var defaultHists = []string{stats.MetricCommitLatency, stats.MetricPrepareLatency, stats.MetricDecideLatency}

// wireServed is implemented by environments that run the TCP front door.
type wireServed interface {
	wireServer() *server.Server
}

// counterSnap is one reading of every public counter the layers report.
type counterSnap struct {
	counters    map[string]int64
	hists       map[string]obs.HistSnapshot
	storageRows int64 // rows read from MVCC stores, primaries and replicas
	wanRows     int64 // rows received by computing nodes in scan responses
	cn          coordinator.Stats
	srv         stats.ServerSnapshot
	srvSelect   obs.HistSnapshot
	// onReplicas of roReads read-only queries ran in replica mode.
	onReplicas, roReads int64
}

func snapCounters(e env) counterSnap {
	s := counterSnap{counters: map[string]int64{}, hists: map[string]obs.HistSnapshot{}}
	for _, n := range defaultCounters {
		s.counters[n] = obs.Default.Counter(n).Value()
	}
	for _, n := range defaultHists {
		s.hists[n] = obs.Default.Histogram(n).Snapshot()
	}
	s.onReplicas, s.roReads = e.replicaReads()
	c := e.database().Cluster()
	for shard, p := range c.Primaries() {
		s.storageRows += p.Store().RowsScanned()
		for _, r := range c.Replicas(shard) {
			s.storageRows += r.Applier().Store().RowsScanned()
		}
	}
	for _, cn := range c.CNs() {
		s.wanRows += cn.ScanRowsFetched()
		st := cn.Stats()
		s.cn.Commits += st.Commits
		s.cn.Aborts += st.Aborts
		s.cn.ReplicaReads += st.ReplicaReads
		s.cn.PrimaryReads += st.PrimaryReads
		s.cn.RORFallbacks += st.RORFallbacks
	}
	if ws, ok := e.(wireServed); ok && ws.wireServer() != nil {
		s.srv = ws.wireServer().Stats()
		s.srvSelect = ws.wireServer().Metrics().Histogram(obs.LabeledName(metricServerSelect, "type", "select")).Snapshot()
	}
	return s
}

// versionsPerKey samples the primaries' version chains: how many committed
// versions a key carries on average once the run is over.
func versionsPerKey(db *globaldb.DB) float64 {
	const sampleEvery = 7
	var keys, versions int
	for _, p := range db.Cluster().Primaries() {
		for i, k := range p.Store().Keys() {
			if i%sampleEvery != 0 {
				continue
			}
			keys++
			versions += len(p.Store().Versions(k))
		}
	}
	return ratio(float64(versions), float64(keys))
}

// counterMetrics turns two readings around a phase into per-layer metrics.
// A layer the workload never reached (no WAL, no wire server, no replica
// reads) reports 0.
func counterMetrics(before, after counterSnap, res phaseResult, e env, span time.Duration) map[string]metricValue {
	d := func(name string) float64 { return float64(after.counters[name] - before.counters[name]) }
	h := func(name string) obs.HistSnapshot { return after.hists[name].Sub(before.hists[name]) }
	ops := 0.0
	for _, c := range classes {
		ok, _ := res.count(c)
		ops += float64(ok)
	}
	commits := float64(h(stats.MetricCommitLatency).Count)
	onReplicas, roReads := after.onReplicas-before.onReplicas, after.roReads-before.roReads

	lagP95 := 0.0
	if lags := lagsMs(res.lags); len(lags) > 0 {
		sort.Float64s(lags)
		lagP95 = percentile(lags, pickTail(len(lags)))
	}

	routed := summarize(res.samples, classRouted)
	stmts := float64(after.srv.Statements - before.srv.Statements)
	sel := after.srvSelect.Sub(before.srvSelect)
	return map[string]metricValue{
		"wal.fsyncs_per_commit":                 {ratio(d(wal.MetricFsyncs), commits), "count"},
		"wal.group_size_mean":                   {ratio(d(wal.MetricGroupedCommits), d(wal.MetricGroupCommits)), "count"},
		"repl.wire_bytes_per_commit":            {ratio(d(repl.MetricWireBytes), commits), "bytes"},
		"repl.compress_ratio":                   {ratio(d(repl.MetricRawBytes), d(repl.MetricWireBytes)), "ratio"},
		"repl.records_per_batch":                {ratio(d(repl.MetricRecords), d(repl.MetricBatches)), "count"},
		"coordinator.commit_mean_ms":            {histMeanMs(h(stats.MetricCommitLatency)), "ms"},
		"coordinator.prepare_mean_ms":           {histMeanMs(h(stats.MetricPrepareLatency)), "ms"},
		"coordinator.decide_mean_ms":            {histMeanMs(h(stats.MetricDecideLatency)), "ms"},
		"coordinator.async_resolves_per_commit": {ratio(d(stats.MetricAsyncResolves), commits), "count"},
		"coordinator.prefetch_hit_share":        {ratio(d(metricScanHits), d(metricScanPages)), "share"},
		"coordinator.wan_wait_share":            {ratio(d(metricScanWaitNanos), float64(span)*numClients), "share"},
		"datanode.storage_rows_per_op":          {ratio(float64(after.storageRows-before.storageRows), ops), "count"},
		"datanode.filtered_rows_per_op":         {ratio(d(metricScanFiltered), ops), "count"},
		"datanode.wan_rows_per_op":              {ratio(float64(after.wanRows-before.wanRows), ops), "count"},
		"mvcc.versions_per_key":                 {versionsPerKey(e.database()), "count"},
		"rcp.lag_p95_ms":                        {lagP95, "ms"},
		"ror.fallback_share":                    {ratio(float64(after.cn.RORFallbacks-before.cn.RORFallbacks), float64(roReads)), "share"},
		"ror.replica_read_share":                {ratio(float64(onReplicas), float64(roReads)), "share"},
		"ror.routed_read_ops_per_s":             {float64(routed.n) / res.wall.Seconds(), "1/s"},
		"ror.routed_read_p50_ms":                {routed.p50, "ms"},
		"ror.routed_read_tail_ms":               {routed.tail, "ms"},
		"server.stmt_mean_us.select":            {histMeanMs(sel) * 1000, "us"},
		"server.rows_streamed_per_stmt":         {ratio(float64(after.srv.RowsStreamed-before.srv.RowsStreamed), stmts), "count"},
		"driver.pool_waits":                     {d(metricPoolWaits), "count"},
		"proc.cpu_ms_per_op":                    {ratio(float64(res.cpu)/float64(time.Millisecond), ops), "ms"},
		"proc.allocs_per_op":                    {ratio(float64(res.mallocs), ops), "count"},
		"proc.alloc_kb_per_op":                  {ratio(float64(res.allocBytes)/1024, ops), "KB"},
		"proc.gc_cpu_share":                     {ratio(float64(res.gcCPU), float64(res.cpu)), "share"},
		"proc.goroutines":                       {float64(res.goroutines), "count"},
	}
}
