// Package experiments defines one runnable experiment per table/figure in
// the paper's evaluation (Sec. V, Figs. 1a and 6a–6d), plus the transition
// timeline the paper demonstrates qualitatively. Each experiment builds the
// matching cluster(s), loads the workload, drives terminals through the
// harness, and returns paper-style series.
//
// "Baseline" is GaussDB as described in Sec. II: centralized GTM
// timestamps, primary-only reads, uncompressed buffered log shipping.
// "GlobalDB" enables the paper's contributions: GClock timestamps, ROR
// with RCP snapshots, and compressed aggressive shipping.
package experiments

import (
	"context"
	"fmt"
	"time"

	"globaldb"
	"globaldb/internal/coordinator"
	"globaldb/internal/harness"
	"globaldb/internal/repl"
	"globaldb/internal/ts"
	"globaldb/internal/workload/sysbench"
	"globaldb/internal/workload/tpcc"
)

// Params scales an experiment run.
type Params struct {
	// TimeScale shrinks simulated WAN delays.
	TimeScale float64
	// Clients is the number of terminals.
	Clients int
	// Duration is the measured window per data point.
	Duration time.Duration
	// Warmup precedes each measurement.
	Warmup time.Duration
	// RTTs is the latency sweep for Figs. 1a, 6b, 6c, 6d.
	RTTs []time.Duration
	// TPCC scales the TPC-C schema.
	TPCC tpcc.Config
	// Sysbench scales the Sysbench schema.
	Sysbench sysbench.Config
	// Shards is the shard count (the paper uses 6 DNs).
	Shards int
	// Bandwidth caps inter-region links (bytes/sec, pre-scale); gives the
	// shipping optimizations something to win. 0 = unlimited.
	Bandwidth float64
}

// Quick returns the parameters globaldb-bench runs by default: a full figure
// regenerates in a few seconds.
func Quick() Params {
	tc := tpcc.DefaultConfig()
	return Params{
		// The scale must keep WAN latency dominant over in-process
		// transaction work, or the latency sweep flattens artificially.
		TimeScale: 0.2,
		Clients:   24,
		Duration:  500 * time.Millisecond,
		Warmup:    200 * time.Millisecond,
		RTTs:      []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond},
		TPCC:      tc,
		Sysbench:  sysbench.Config{Tables: 4, RowsPerTable: 120, Seed: 1},
		Shards:    6,
		Bandwidth: 4e6,
	}
}

// Full returns parameters for the standalone benchmark binary: longer
// windows and the paper's full RTT sweep.
func Full() Params {
	p := Quick()
	p.Clients = 64
	p.Duration = 2 * time.Second
	p.Warmup = 500 * time.Millisecond
	p.RTTs = []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond,
		60 * time.Millisecond, 80 * time.Millisecond, 100 * time.Millisecond}
	p.TPCC.Warehouses = 8
	p.TPCC.Districts = 4
	p.TPCC.CustomersPerDistrict = 30
	p.TPCC.Items = 60
	return p
}

// system describes one configuration under test.
type system struct {
	name    string
	mode    ts.Mode
	shipper repl.ShipperConfig
	useROR  bool
}

func baselineSystem() system {
	return system{name: "baseline", mode: ts.ModeGTM, shipper: repl.BaselineShipperConfig(), useROR: false}
}

func globaldbSystem() system {
	return system{name: "globaldb", mode: ts.ModeGClock, shipper: repl.DefaultShipperConfig(), useROR: true}
}

// openTPCC builds a cluster for a system at a topology and loads TPC-C.
func openTPCC(ctx context.Context, cfg globaldb.Config, sys system, p Params) (*globaldb.DB, *tpcc.Driver, error) {
	cfg.TimeScale = p.TimeScale
	cfg.Shards = p.Shards
	cfg.Mode = sys.mode
	cfg.Shipper = sys.shipper
	db, err := globaldb.Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	d := tpcc.New(db, p.TPCC)
	if err := d.CreateTables(ctx); err != nil {
		db.Close()
		return nil, nil, err
	}
	if err := d.Load(ctx); err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, d, nil
}

// oneRegion returns the One-Region topology with injected RTT and the
// experiment's bandwidth cap.
func oneRegion(p Params, rtt time.Duration) globaldb.Config {
	cfg := globaldb.OneRegion(rtt)
	for i := range cfg.Links {
		cfg.Links[i].Bandwidth = p.Bandwidth
	}
	return cfg
}

func threeCity(p Params) globaldb.Config {
	cfg := globaldb.ThreeCity()
	for i := range cfg.Links {
		cfg.Links[i].Bandwidth = p.Bandwidth
	}
	return cfg
}

// Fig1a reproduces Fig. 1a: baseline TPC-C throughput degrading as the
// cluster spans higher round-trip latencies (centralized GTM, async
// replication, 100% local transactions).
func Fig1a(ctx context.Context, p Params) (harness.Series, error) {
	s := harness.Series{Label: "Fig 1a: TPC-C degradation vs RTT (baseline, centralized GTM)"}
	for _, rtt := range p.RTTs {
		res, err := runTPCCPoint(ctx, p, oneRegion(p, rtt), baselineSystem(), fmt.Sprintf("rtt=%v", rtt), true)
		if err != nil {
			return s, err
		}
		s.Results = append(s.Results, res)
	}
	return s, nil
}

// runTPCCPoint measures one TPC-C data point. When remoteFromGTM is true,
// terminals bind only to warehouses whose region differs from the GTM
// server's — the paper's "throughput of a node that is not co-located with
// the GTM server" (Sec. V-A). After the run it checks the TPC-C cross-table
// invariants, so a point never counts commits that broke them.
func runTPCCPoint(ctx context.Context, p Params, cfg globaldb.Config, sys system, name string, remoteFromGTM bool) (harness.Result, error) {
	db, d, err := openTPCC(ctx, cfg, sys, p)
	if err != nil {
		return harness.Result{}, err
	}
	defer db.Close()
	homes := make([]int64, 0, p.TPCC.Warehouses)
	if remoteFromGTM {
		homes = d.WarehousesOutsideRegion(cfg.GTMRegion)
	}
	if len(homes) == 0 {
		for w := int64(1); w <= int64(p.TPCC.Warehouses); w++ {
			homes = append(homes, w)
		}
	}
	res := harness.Run(ctx, harness.Options{Name: name, Clients: p.Clients, Duration: p.Duration, Warmup: p.Warmup},
		func(ctx context.Context, client int) error {
			return d.TerminalAt(client, homes[client%len(homes)])(ctx)
		})
	if err := d.ConsistencyCheck(ctx); err != nil {
		return res, fmt.Errorf("experiments: %s/%s: %w", sys.name, name, err)
	}
	return res, nil
}

// Fig6a reproduces Fig. 6a: TPC-C under synchronous replication, One-Region
// versus Three-City, baseline versus GlobalDB. Sync commits wait for every
// replica (the quorum that survives a regional disaster).
func Fig6a(ctx context.Context, p Params) (harness.Series, error) {
	s := harness.Series{Label: "Fig 6a: TPC-C synchronous replication"}
	for _, topo := range []struct {
		name string
		cfg  globaldb.Config
	}{
		{"one-region", oneRegion(p, 500*time.Microsecond)},
		{"three-city", threeCity(p)},
	} {
		for _, sys := range []system{baselineSystem(), globaldbSystem()} {
			cfg := topo.cfg
			cfg.ReplMode = repl.SyncQuorum
			cfg.Quorum = cfg.ReplicasPerShard
			res, err := runTPCCPoint(ctx, p, cfg, sys, fmt.Sprintf("%s/%s", topo.name, sys.name), false)
			if err != nil {
				return s, err
			}
			s.Results = append(s.Results, res)
		}
	}
	return s, nil
}

// Fig6b reproduces Fig. 6b: TPC-C with asynchronous replication across the
// RTT sweep — the baseline collapses as every begin/commit pays the GTM
// round trip; GlobalDB stays flat on local clocks.
func Fig6b(ctx context.Context, p Params) ([]harness.Series, error) {
	var out []harness.Series
	for _, sys := range []system{baselineSystem(), globaldbSystem()} {
		s := harness.Series{Label: fmt.Sprintf("Fig 6b: TPC-C async vs RTT (%s)", sys.name)}
		for _, rtt := range p.RTTs {
			res, err := runTPCCPoint(ctx, p, oneRegion(p, rtt), sys, fmt.Sprintf("rtt=%v", rtt), true)
			if err != nil {
				return out, err
			}
			s.Results = append(s.Results, res)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig6c reproduces Fig. 6c: the modified read-only TPC-C (Order-Status +
// Stock-Level, 50% multi-shard). The baseline reads primaries with GTM
// snapshots; GlobalDB reads local replicas at the RCP.
func Fig6c(ctx context.Context, p Params) ([]harness.Series, error) {
	var out []harness.Series
	for _, sys := range []system{baselineSystem(), globaldbSystem()} {
		s := harness.Series{Label: fmt.Sprintf("Fig 6c: TPC-C read-only vs RTT (%s)", sys.name)}
		for _, rtt := range p.RTTs {
			res, err := runTPCCReadOnlyPoint(ctx, p, oneRegion(p, rtt), sys, fmt.Sprintf("rtt=%v", rtt))
			if err != nil {
				return out, err
			}
			s.Results = append(s.Results, res)
		}
		out = append(out, s)
	}
	return out, nil
}

func runTPCCReadOnlyPoint(ctx context.Context, p Params, cfg globaldb.Config, sys system, name string) (harness.Result, error) {
	db, d, err := openTPCC(ctx, cfg, sys, p)
	if err != nil {
		return harness.Result{}, err
	}
	defer db.Close()
	if sys.useROR {
		if err := waitRCPCoversLoad(ctx, db); err != nil {
			return harness.Result{}, err
		}
	}
	res := harness.Run(ctx, harness.Options{Name: name, Clients: p.Clients, Duration: p.Duration, Warmup: p.Warmup},
		func(ctx context.Context, client int) error {
			return d.ReadOnlyTerminal(client, 50, sys.useROR, coordinator.AnyStaleness)(ctx)
		})
	return res, nil
}

// waitRCPCoversLoad stamps a marker transaction and waits for the RCP to
// reach it, so replica reads see the loaded data.
func waitRCPCoversLoad(ctx context.Context, db *globaldb.DB) error {
	sess, err := db.Connect(db.Regions()[0])
	if err != nil {
		return err
	}
	marker, err := sess.Begin(ctx)
	if err != nil {
		return err
	}
	if err := marker.Commit(ctx); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for db.Cluster().Collector.RCP() < marker.Snapshot() {
		if time.Now().After(deadline) {
			return fmt.Errorf("experiments: RCP never covered the load (rcp=%v, want %v)",
				db.Cluster().Collector.RCP(), marker.Snapshot())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// Fig6d reproduces Fig. 6d: Sysbench point select with 2/3 of tuples
// fetched from remote nodes. GlobalDB serves them from local replicas.
func Fig6d(ctx context.Context, p Params) ([]harness.Series, error) {
	var out []harness.Series
	for _, sys := range []system{baselineSystem(), globaldbSystem()} {
		s := harness.Series{Label: fmt.Sprintf("Fig 6d: Sysbench point select vs RTT (%s)", sys.name)}
		for _, rtt := range p.RTTs {
			res, err := runSysbenchPoint(ctx, p, oneRegion(p, rtt), sys, fmt.Sprintf("rtt=%v", rtt))
			if err != nil {
				return out, err
			}
			s.Results = append(s.Results, res)
		}
		out = append(out, s)
	}
	return out, nil
}

func runSysbenchPoint(ctx context.Context, p Params, cfg globaldb.Config, sys system, name string) (harness.Result, error) {
	cfg.TimeScale = p.TimeScale
	cfg.Shards = p.Shards
	cfg.Mode = sys.mode
	cfg.Shipper = sys.shipper
	db, err := globaldb.Open(cfg)
	if err != nil {
		return harness.Result{}, err
	}
	defer db.Close()
	d := sysbench.New(db, p.Sysbench)
	if err := d.CreateTables(ctx); err != nil {
		return harness.Result{}, err
	}
	if err := d.Load(ctx); err != nil {
		return harness.Result{}, err
	}
	if sys.useROR {
		if err := waitRCPCoversLoad(ctx, db); err != nil {
			return harness.Result{}, err
		}
	}
	regions := db.Regions()
	res := harness.Run(ctx, harness.Options{Name: name, Clients: p.Clients, Duration: p.Duration, Warmup: p.Warmup},
		func(ctx context.Context, client int) error {
			region := regions[client%len(regions)]
			return d.PointSelect(client, region, 67, sys.useROR, coordinator.AnyStaleness)(ctx)
		})
	return res, nil
}

// TransitionTimeline demonstrates the zero-downtime claim of Sec. III-A: it
// drives TPC-C while the cluster migrates GTM→GClock→GTM and samples
// throughput in windows. It returns per-window committed transaction
// counts; a window of zero would mean downtime.
func TransitionTimeline(ctx context.Context, p Params) ([]int64, error) {
	db, d, err := openTPCC(ctx, threeCity(p), baselineSystem(), p)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	const windows = 12
	window := p.Duration / 2
	counts := make([]int64, windows)
	done := make(chan struct{})
	var running = true

	go func() {
		defer close(done)
		// Transition forward after a quarter of the run, back after three
		// quarters.
		time.Sleep(time.Duration(windows/4) * window)
		db.TransitionToGClock(ctx)
		time.Sleep(time.Duration(windows/2) * window)
		db.TransitionToGTM(ctx)
	}()

	var total int64
	for w := 0; w < windows && running; w++ {
		res := harness.Run(ctx, harness.Options{Name: fmt.Sprintf("window-%d", w), Clients: p.Clients, Duration: window},
			func(ctx context.Context, client int) error {
				return d.Terminal(client)(ctx)
			})
		counts[w] = res.Ops
		total += res.Ops
	}
	<-done
	if total == 0 {
		return counts, fmt.Errorf("experiments: no transactions committed during the transition run")
	}
	return counts, nil
}
