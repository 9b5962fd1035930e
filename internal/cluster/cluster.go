// Package cluster assembles a complete GlobalDB deployment in-process:
// regions connected by a simulated WAN, a GTM server, per-region computing
// nodes with synchronized clocks, sharded primaries (each with a synchronized
// clock of its own) with replica sets, redo shipping, the RCP collector,
// heartbeats, version GC with redo truncation, and the online transition
// controller. It is the programmatic equivalent of the paper's One-Region and
// Three-City testbeds (Sec. V).
package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"sync"
	"time"

	"globaldb/internal/clock"
	"globaldb/internal/coordinator"
	"globaldb/internal/datanode"
	"globaldb/internal/gtm"
	"globaldb/internal/keys"
	"globaldb/internal/netsim"
	"globaldb/internal/placement"
	"globaldb/internal/rcp"
	"globaldb/internal/repl"
	"globaldb/internal/ror"
	"globaldb/internal/table"
	"globaldb/internal/transition"
	"globaldb/internal/ts"
	"globaldb/internal/tso"
	"globaldb/internal/wal"
)

// LinkSpec declares a WAN link between two regions.
type LinkSpec struct {
	A, B string
	// RTT is the round-trip latency.
	RTT time.Duration
	// Bandwidth in bytes/second; 0 means unlimited.
	Bandwidth float64
}

// Config describes a deployment.
type Config struct {
	// Regions lists region names; one CN is created per region.
	Regions []string
	// Links declares inter-region connectivity.
	Links []LinkSpec
	// TimeScale shrinks simulated delays (netsim.Config).
	TimeScale float64
	// JitterFrac adds latency jitter.
	JitterFrac float64

	// Shards is the number of data shards.
	Shards int
	// ReplicasPerShard places this many replicas per shard, round-robin
	// over the regions other than the primary's.
	ReplicasPerShard int
	// ReplMode selects async or sync-quorum replication.
	ReplMode repl.Mode
	// Quorum is the sync-quorum size.
	Quorum int
	// Shipper tunes log shipping (compression, flush delay).
	Shipper repl.ShipperConfig

	// GTMRegion hosts the GTM server; defaults to Regions[0].
	GTMRegion string
	// Mode is the starting transaction management mode.
	Mode ts.Mode
	// Clock configures node clocks.
	Clock clock.NodeConfig
	// RCP configures the collector.
	RCP rcp.Config
	// CN configures computing nodes.
	CN coordinator.Config

	// WALDir, when non-empty, makes every shard primary archive its redo
	// stream to an on-disk WAL under <WALDir>/shard-<n> (GaussDB's XLOG
	// durability), and commit acks then wait for WAL durability. Recovery
	// tooling replays it with datanode.RecoverPrimary.
	WALDir string
	// WALSync selects the WAL fsync policy (default wal.SyncGroup via
	// baseConfig: concurrent commits coalesce into one fsync).
	WALSync wal.SyncPolicy
	// WALLinger / WALFsyncDelay / WALArchiveBatch tune group commit: the
	// coalescing window, a simulated device-sync latency (tmpfs hides the
	// real cost), and the archiver's records-per-append cap (1 = the
	// fsync-per-commit baseline). Zero values use the wal defaults.
	WALLinger       time.Duration
	WALFsyncDelay   time.Duration
	WALArchiveBatch int
}

// ThreeCity returns the paper's geo-distributed topology: Xi'an, Langzhong
// and Dongguan with 25/35/55 ms RTT edges.
func ThreeCity() Config {
	cfg := baseConfig()
	cfg.Regions = []string{"xian", "langzhong", "dongguan"}
	cfg.Links = []LinkSpec{
		{A: "xian", B: "langzhong", RTT: 25 * time.Millisecond},
		{A: "langzhong", B: "dongguan", RTT: 35 * time.Millisecond},
		{A: "xian", B: "dongguan", RTT: 55 * time.Millisecond},
	}
	cfg.GTMRegion = "langzhong" // lowest mean latency to the others (Sec. V-A)
	return cfg
}

// OneRegion returns the paper's single-datacenter cluster with tc-style
// injected delay between its three servers.
func OneRegion(injectedRTT time.Duration) Config {
	cfg := baseConfig()
	cfg.Regions = []string{"node1", "node2", "node3"}
	cfg.Links = []LinkSpec{
		{A: "node1", B: "node2", RTT: injectedRTT},
		{A: "node2", B: "node3", RTT: injectedRTT},
		{A: "node1", B: "node3", RTT: injectedRTT},
	}
	cfg.GTMRegion = "node1"
	return cfg
}

func baseConfig() Config {
	return Config{
		TimeScale:        0.1,
		Shards:           6,
		ReplicasPerShard: 2,
		ReplMode:         repl.Async,
		Quorum:           1,
		Shipper:          repl.DefaultShipperConfig(),
		Mode:             ts.ModeGClock,
		Clock:            clock.DefaultNodeConfig(),
		RCP:              rcp.DefaultConfig(),
		CN:               coordinator.DefaultConfig(),
		WALSync:          wal.SyncGroup,
	}
}

// Cluster is a running deployment.
type Cluster struct {
	cfg Config

	Net        *netsim.Network
	GTMServer  *gtm.Server
	GTMService *gtm.Service
	Catalog    *table.Catalog
	Routing    *coordinator.Routing
	Collector  *rcp.Collector
	Controller *transition.Controller

	cns       map[string]*coordinator.CN
	oracles   []*tso.Oracle
	primaries []*datanode.Primary
	replicas  [][]*datanode.Replica

	// Placement accumulates per-shard geographic access counts from every
	// CN for the load-balancing advisor.
	Placement *placement.Tracker

	mu         sync.Mutex
	clockStops []func()
	// primaryClockStops[shard] stops the node clock of the shard's current
	// primary; a promotion replaces it.
	primaryClockStops []func()
	devices           map[string]*clock.Device
	walClosers        []io.Closer
	closed            bool
	gc                gcState
}

// Open builds and starts a cluster.
func Open(cfg Config) (*Cluster, error) {
	if len(cfg.Regions) == 0 {
		return nil, fmt.Errorf("cluster: no regions")
	}
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	if cfg.GTMRegion == "" {
		cfg.GTMRegion = cfg.Regions[0]
	}
	c := &Cluster{
		cfg:       cfg,
		Net:       netsim.New(netsim.Config{TimeScale: cfg.TimeScale, JitterFrac: cfg.JitterFrac}),
		Catalog:   table.NewCatalog(),
		cns:       make(map[string]*coordinator.CN),
		devices:   make(map[string]*clock.Device),
		replicas:  make([][]*datanode.Replica, cfg.Shards),
		Placement: placement.NewTracker(),
	}
	for _, r := range cfg.Regions {
		c.Net.AddRegion(r)
	}
	for _, l := range cfg.Links {
		c.Net.SetLink(l.A, l.B, l.RTT, l.Bandwidth)
	}

	// GTM server.
	c.GTMServer = gtm.NewServer()
	c.GTMService = gtm.Serve(c.Net, cfg.GTMRegion, c.GTMServer)

	// Per-region time devices (the paper deploys one per regional cluster).
	for _, r := range cfg.Regions {
		c.devices[r] = clock.NewDevice(r, clock.Real())
	}

	// Shards: primary in region shard%len(regions), replicas round-robin
	// over the other regions.
	c.Routing = coordinator.NewRouting(cfg.Shards)
	topo := rcp.Topology{Primaries: map[int]string{}, Replicas: map[int][]string{}}
	for shard := 0; shard < cfg.Shards; shard++ {
		pRegion := cfg.Regions[shard%len(cfg.Regions)]
		p := datanode.NewPrimary(c.Net, fmt.Sprintf("dn%d", shard), pRegion, shard, cfg.ReplMode, cfg.Quorum)
		if cfg.WALDir != "" {
			closer, err := p.AttachWALOptions(wal.Options{
				Dir:        filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", shard)),
				Sync:       cfg.WALSync,
				Linger:     cfg.WALLinger,
				FsyncDelay: cfg.WALFsyncDelay,
			}, cfg.WALArchiveBatch)
			if err != nil {
				return nil, fmt.Errorf("cluster: shard %d WAL: %w", shard, err)
			}
			c.walClosers = append(c.walClosers, closer)
		}
		c.primaries = append(c.primaries, p)
		c.Routing.SetPrimary(shard, p.ID())
		topo.Primaries[shard] = p.ID()

		others := otherRegions(cfg.Regions, pRegion)
		for i := 0; i < cfg.ReplicasPerShard; i++ {
			rRegion := pRegion
			if len(others) > 0 {
				rRegion = others[(shard+i)%len(others)]
			}
			rep := datanode.NewReplica(c.Net, fmt.Sprintf("dn%dr%d", shard, i), rRegion, shard)
			c.replicas[shard] = append(c.replicas[shard], rep)
			c.Routing.AddReplica(shard, rep.ID())
			topo.Replicas[shard] = append(topo.Replicas[shard], rep.ID())

			sh := repl.NewShipper(cfg.Shipper, c.Net, pRegion, datanode.ReplEndpointName(rep.ID()), p.Log(), p.Repl().AckHook())
			p.Repl().AddShipper(sh)
			sh.Start()
		}
	}

	// Every primary gets a synchronized clock and an oracle over it, so that
	// under GClock it can issue single-shard commit timestamps itself.
	var nodes []transition.Node
	c.primaryClockStops = make([]func(), cfg.Shards)
	for _, p := range c.primaries {
		oracle := c.givePrimaryOracle(p)
		oracle.SetMode(cfg.Mode)
		nodes = append(nodes, oracle)
	}

	// CNs: one per region, each with its own synchronized clock and oracle.
	for i, r := range cfg.Regions {
		nc := clock.NewNode(cfg.Clock, clock.Real(), c.devices[r])
		stop := nc.Start()
		c.clockStops = append(c.clockStops, stop)
		oracle := tso.New(fmt.Sprintf("cn-%s", r), nc, gtm.NewClient(c.Net, r))
		oracle.SetMode(cfg.Mode)
		c.oracles = append(c.oracles, oracle)
		nodes = append(nodes, oracle)

		cn := coordinator.New(cfg.CN, oracle.Name(), r, uint64(i+1),
			datanode.NewClient(c.Net, r), oracle, c.Routing, c.Catalog)
		c.cns[r] = cn
	}
	c.wireTrackers()
	c.GTMServer.SetMode(cfg.Mode)
	c.Controller = transition.NewController(c.GTMServer, nodes...)

	// RCP collector, designated at the GTM region's CN; shared by all CNs
	// (the in-process analogue of the designated CN distributing the RCP).
	hbOracle := c.cns[cfg.GTMRegion].Oracle()
	tsp := func(ctx context.Context) (ts.Timestamp, error) {
		t, _, err := hbOracle.Commit(ctx, hbOracle.Mode())
		return t, err
	}
	c.Collector = rcp.NewCollector(cfg.RCP, datanode.NewClient(c.Net, cfg.GTMRegion), topo, tsp)
	for _, cn := range c.cns {
		cn.SetCollector(c.Collector)
	}
	c.Collector.Start()
	c.StartGC()
	return c, nil
}

// givePrimaryOracle starts a node clock for p on its region's time device and
// sets an oracle over it on p. The caller puts the oracle under the
// transition controller and stops the clock of the primary p replaces.
func (c *Cluster) givePrimaryOracle(p *datanode.Primary) *tso.Oracle {
	nc := clock.NewNode(c.cfg.Clock, clock.Real(), c.devices[p.Region()])
	c.primaryClockStops[p.Shard()] = nc.Start()
	oracle := tso.New(p.ID(), nc, nil) // it only ever issues locally: no GTM client
	p.SetOracle(oracle)
	return oracle
}

func otherRegions(all []string, except string) []string {
	out := make([]string, 0, len(all))
	for _, r := range all {
		if r != except {
			out = append(out, r)
		}
	}
	return out
}

// wireTrackers (re)builds every CN's tracker from current routing. Called
// after Open's node construction and after failover.
func (c *Cluster) wireTrackers() {
	for region, cn := range c.cns {
		cn.SetPlacementTracker(c.Placement)
		tr := ror.NewTracker()
		for shard := 0; shard < c.cfg.Shards; shard++ {
			pID := c.Routing.Primary(shard)
			tr.AddNode(shard, pID, c.regionOfPrimary(shard), true, c.latencyEstimate(region, c.regionOfPrimary(shard)))
			for _, rep := range c.replicas[shard] {
				if rep.Endpoint().Down() {
					continue
				}
				tr.AddNode(shard, rep.ID(), rep.Region(), false, c.latencyEstimate(region, rep.Region()))
			}
		}
		cn.SetTracker(tr)
	}
}

func (c *Cluster) regionOfPrimary(shard int) string {
	return c.primaries[shard].Region()
}

func (c *Cluster) latencyEstimate(from, to string) time.Duration {
	d, err := c.Net.OneWay(from, to, 0)
	if err != nil {
		return time.Millisecond
	}
	return 2 * d
}

// CN returns the computing node of a region.
func (c *Cluster) CN(region string) *coordinator.CN { return c.cns[region] }

// CNs returns every computing node.
func (c *Cluster) CNs() []*coordinator.CN {
	out := make([]*coordinator.CN, 0, len(c.cns))
	for _, r := range c.cfg.Regions {
		out = append(out, c.cns[r])
	}
	return out
}

// Regions returns the configured region names.
func (c *Cluster) Regions() []string { return c.cfg.Regions }

// Primaries returns the shard primaries.
func (c *Cluster) Primaries() []*datanode.Primary { return c.primaries }

// Replicas returns the replicas of a shard.
func (c *Cluster) Replicas(shard int) []*datanode.Replica { return c.replicas[shard] }

// Shards returns the shard count.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// ShardOf hashes a distribution value to a shard, matching GaussDB's
// hash distribution of tables across data nodes.
func (c *Cluster) ShardOf(distValue any) int { return ShardOf(distValue, c.cfg.Shards) }

// ShardOf hashes a distribution-column value onto one of n shards.
func ShardOf(distValue any, n int) int {
	e := keys.NewEncoder(16)
	switch v := distValue.(type) {
	case int64:
		e.Int64(v)
	case uint64:
		e.Uint64(v)
	case int:
		e.Int64(int64(v))
	case string:
		e.String(v)
	case []byte:
		e.RawBytes(v)
	case float64:
		e.Float64(v)
	case bool:
		e.Bool(v)
	default:
		e.String(fmt.Sprint(v))
	}
	h := fnv.New32a()
	h.Write(e.Bytes())
	return int(h.Sum32() % uint32(n))
}

// CreateTable runs the DDL: it assigns an ID if missing, stamps the change
// with a commit timestamp, records it in every primary's redo stream (so
// replicas can gate ROR queries on it), and installs the schema.
func (c *Cluster) CreateTable(ctx context.Context, s *table.Schema) error {
	if s.ID == 0 {
		s.ID = c.Catalog.NextID()
	}
	for i := range s.Indexes {
		if s.Indexes[i].ID == 0 {
			s.Indexes[i].ID = c.Catalog.NextID()
		}
	}
	if err := s.Validate(); err != nil {
		return err
	}
	cn := c.cns[c.cfg.GTMRegion]
	commitTS, _, err := cn.Oracle().Commit(ctx, cn.Oracle().Mode())
	if err != nil {
		return err
	}
	blob, err := table.MarshalSchema(s)
	if err != nil {
		return err
	}
	client := datanode.NewClient(c.Net, c.cfg.GTMRegion)
	var wg sync.WaitGroup
	errs := make([]error, len(c.primaries))
	for i, p := range c.primaries {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			errs[i] = client.DDL(ctx, node, s.ID, commitTS, blob)
		}(i, p.ID())
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return c.Catalog.Create(s, commitTS)
}

// DropTable removes a table, recording the DDL timestamp cluster-wide.
func (c *Cluster) DropTable(ctx context.Context, name string) error {
	s, err := c.Catalog.Get(name)
	if err != nil {
		return err
	}
	cn := c.cns[c.cfg.GTMRegion]
	commitTS, _, err := cn.Oracle().Commit(ctx, cn.Oracle().Mode())
	if err != nil {
		return err
	}
	client := datanode.NewClient(c.Net, c.cfg.GTMRegion)
	for _, p := range c.primaries {
		if err := client.DDL(ctx, p.ID(), s.ID, commitTS, nil); err != nil {
			return err
		}
	}
	return c.Catalog.Drop(name, commitTS)
}

// TransitionToGClock migrates the live cluster to clock-based transaction
// management (Fig. 2).
func (c *Cluster) TransitionToGClock(ctx context.Context) error {
	return c.Controller.ToGClock(ctx)
}

// TransitionToGTM migrates the live cluster back to centralized management
// (Fig. 3) — the clock-failure fallback.
func (c *Cluster) TransitionToGTM(ctx context.Context) error {
	return c.Controller.ToGTM(ctx)
}

// Mode returns the GTM server's current mode.
func (c *Cluster) Mode() ts.Mode { return c.GTMServer.Mode() }

// FailPrimary injects a primary crash for a shard: its endpoint goes dark
// and its shippers stop.
func (c *Cluster) FailPrimary(shard int) {
	p := c.primaries[shard]
	p.Endpoint().SetDown(true)
	p.Repl().StopAll()
}

// PromoteReplica promotes a shard's replica to primary after a failure: the
// replica's store becomes the new primary's, surviving replicas are
// re-seeded from a clone of it, shipping is re-wired, and routing is
// updated on every CN.
func (c *Cluster) PromoteReplica(ctx context.Context, shard, replicaIdx int) error {
	if replicaIdx < 0 || replicaIdx >= len(c.replicas[shard]) {
		return fmt.Errorf("cluster: shard %d has no replica %d", shard, replicaIdx)
	}
	// No GC round while the shard's nodes and the collector are replaced.
	c.gc.mu.Lock()
	defer c.gc.mu.Unlock()
	promoted := c.replicas[shard][replicaIdx]
	promoted.SetDown(true) // stop serving as a replica

	newID := fmt.Sprintf("dn%d-promoted-%s", shard, promoted.ID())
	p := datanode.NewPrimaryFromStore(c.Net, newID, promoted.Region(), shard,
		promoted.Applier().Store(), c.cfg.ReplMode, c.cfg.Quorum)
	// The new primary reads the clock of its own region; the old one's
	// oracle is retired so a later transition floors over what it issued
	// without asking a dead node.
	stopOldClock := c.primaryClockStops[shard]
	if err := c.Controller.Replace(c.primaries[shard].Oracle(), c.givePrimaryOracle(p)); err != nil {
		return err
	}
	stopOldClock()
	c.primaries[shard] = p
	c.Routing.SetPrimary(shard, newID)

	// Re-seed surviving replicas from a clone and re-wire shipping.
	survivors := make([]*datanode.Replica, 0, len(c.replicas[shard])-1)
	for i, rep := range c.replicas[shard] {
		if i == replicaIdx {
			continue
		}
		rep.SetDown(true)
		fresh := datanode.NewReplicaFromStore(c.Net, rep.ID()+"x", rep.Region(), shard, p.Store().Clone())
		survivors = append(survivors, fresh)
		sh := repl.NewShipper(c.cfg.Shipper, c.Net, p.Region(), datanode.ReplEndpointName(fresh.ID()), p.Log(), p.Repl().AckHook())
		p.Repl().AddShipper(sh)
		sh.Start()
	}
	c.replicas[shard] = survivors

	// Rebuild routing's replica list and the collector topology.
	c.rebuildCollector()
	c.wireTrackers()
	return nil
}

// AdvisePlacement runs the geographic load-balancing advisor over the
// access counts accumulated since the last window, recommending primary
// relocations toward each shard's dominant access region — the paper's
// future-work "transparent load balancing based on geographical access
// patterns".
func (c *Cluster) AdvisePlacement(cfg placement.Config) []placement.Move {
	primaryRegion := make(map[int]string, c.cfg.Shards)
	for shard, p := range c.primaries {
		primaryRegion[shard] = p.Region()
	}
	return placement.Advise(c.Placement.Snapshot(), primaryRegion, cfg)
}

// MovePrimary relocates a shard's primary into the target region by
// promoting that region's replica: it waits for the replica to catch up to
// the primary's log, stops the old primary, and promotes. In-flight
// transactions on the shard may abort and retry (the same behaviour as a
// failover); data is preserved because promotion happens only at parity.
func (c *Cluster) MovePrimary(ctx context.Context, shard int, targetRegion string) error {
	if shard < 0 || shard >= c.cfg.Shards {
		return fmt.Errorf("cluster: no shard %d", shard)
	}
	old := c.primaries[shard]
	if old.Region() == targetRegion {
		return nil
	}
	idx := -1
	for i, rep := range c.replicas[shard] {
		if rep.Region() == targetRegion {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("cluster: shard %d has no replica in region %q", shard, targetRegion)
	}
	target := c.replicas[shard][idx]
	// Drain: stop accepting new work on the old primary, then wait for the
	// target replica to apply the full log.
	old.Endpoint().SetDown(true)
	defer old.Repl().StopAll()
	deadline := time.Now().Add(30 * time.Second)
	for target.Applier().AppliedLSN() < old.Log().LastLSN() {
		if time.Now().After(deadline) {
			old.Endpoint().SetDown(false) // re-open; the move failed
			return fmt.Errorf("cluster: shard %d replica in %q did not catch up", shard, targetRegion)
		}
		select {
		case <-ctx.Done():
			old.Endpoint().SetDown(false)
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return c.PromoteReplica(ctx, shard, idx)
}

// rebuildCollector restarts the RCP collector with current topology.
func (c *Cluster) rebuildCollector() {
	c.Collector.Stop()
	topo := rcp.Topology{Primaries: map[int]string{}, Replicas: map[int][]string{}}
	primaries := make([]string, c.cfg.Shards)
	replicas := make([][]string, c.cfg.Shards)
	for shard := 0; shard < c.cfg.Shards; shard++ {
		topo.Primaries[shard] = c.primaries[shard].ID()
		primaries[shard] = c.primaries[shard].ID()
		for _, rep := range c.replicas[shard] {
			topo.Replicas[shard] = append(topo.Replicas[shard], rep.ID())
			replicas[shard] = append(replicas[shard], rep.ID())
		}
	}
	c.Routing.Reset(primaries, replicas)
	hbOracle := c.cns[c.cfg.GTMRegion].Oracle()
	tsp := func(ctx context.Context) (ts.Timestamp, error) {
		t, _, err := hbOracle.Commit(ctx, hbOracle.Mode())
		return t, err
	}
	c.Collector = rcp.NewCollector(c.cfg.RCP, datanode.NewClient(c.Net, c.cfg.GTMRegion), topo, tsp)
	for _, cn := range c.cns {
		cn.SetCollector(c.Collector)
	}
	c.Collector.Start()
}

// FailClockDevice injects a time-device failure in a region; node clocks
// there stop syncing and their error bounds grow until the operator
// transitions the cluster to GTM mode.
func (c *Cluster) FailClockDevice(region string, failed bool) {
	if d, ok := c.devices[region]; ok {
		d.SetFailed(failed)
	}
}

// ClockHealthy reports whether every clock that issues timestamps — each
// CN's and each shard primary's — is within limit.
func (c *Cluster) ClockHealthy(limit time.Duration) bool {
	for _, o := range c.oracles {
		if !o.Clock().Healthy(limit) {
			return false
		}
	}
	for _, p := range c.primaries {
		if !p.Oracle().Clock().Healthy(limit) {
			return false
		}
	}
	return true
}

// Close stops background activity.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	// Drain background 2PC resolutions before tearing down the transport:
	// an in-flight phase two must land, not race the shutdown.
	for _, cn := range c.cns {
		cn.Quiesce()
	}
	c.StopGC()
	c.Collector.Stop()
	for _, p := range c.primaries {
		p.Repl().StopAll()
	}
	for _, stop := range c.clockStops {
		stop()
	}
	for _, stop := range c.primaryClockStops {
		stop()
	}
	for _, w := range c.walClosers {
		_ = w.Close()
	}
}
