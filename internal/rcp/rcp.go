// Package rcp computes and publishes the Replica Consistency Point — the
// largest commit timestamp available on the asynchronous replicas, the
// snapshot at which read-on-replica queries are guaranteed consistent
// (Sec. IV-A, Fig. 4).
//
// A designated CN collects every replica's maximum applied commit timestamp,
// and the RCP is the minimum over the replicas that are serving: each of them
// has replayed everything up to it, so a query at the RCP is consistent on
// whichever replicas it is routed to, without waiting for replay. A replica
// that is unreachable, or still catching up to the RCP after an outage, is
// left out of the minimum and out of routing alike. The published value is
// monotonic from the client's point of view. A replacement collector (after
// a CN failure or a topology change) starts from the RCP its predecessor
// published, so it cannot regress it either: replica watermarks only grow,
// and until the new collector hears from a serving replica of every shard it
// keeps the value it started with.
//
// Collection is a stream, not a batch: every replica pushes each advance of
// its applied watermark to the collector as one one-way message
// (datanode.StatusPush) from the batch replay that made it, and every push
// is published on arrival. The RCP therefore trails a replica's watermark by
// one one-way trip, with nothing to re-arm between two advances. One watcher
// per node probes it (datanode.StatusReq) only when it has been silent for
// PollInterval: that keeps health and load fresh, notices a replica that
// died, and its first probe tells the replica where to push. Readers never
// wait for the collector: RCP is an atomic load, Statuses copies a map under
// a mutex that is never held across I/O.
//
// Heartbeat transactions keep idle shards moving: every HeartbeatInterval
// every primary's log is stamped with a fresh commit timestamp so "a replica
// node's maximum timestamp could lag behind when it does not receive any
// transactions to replay" never pins the RCP. Under GClock each primary
// stamps its own log with its clock's lower bound (Stamper), and no message
// is sent: the collector's ticker stands in for per-primary timers aligned
// to the synchronized clock. Under GTM and DUAL a primary has no timestamps
// of its own, so the collector fetches one GTM timestamp per tick
// (TSProvider) and sends it to every primary in a HeartbeatReq: the
// centralized mode's message that remains.
package rcp

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"globaldb/internal/datanode"
	"globaldb/internal/obs"
	"globaldb/internal/ts"
)

// ReplicaStatus is one node's last observed state.
type ReplicaStatus struct {
	// Node is the node's read endpoint.
	Node string
	// Shard is the shard it serves.
	Shard int
	// MaxCommitTS is its applied-commit watermark; the last one seen, when
	// the node is unreachable.
	MaxCommitTS ts.Timestamp
	// AppliedLSN is a replica's replay position and a primary's log end.
	AppliedLSN uint64
	// Primary marks the shard primary (watched for load/health, not RCP).
	Primary bool
	// Load is its in-flight request count when it answered.
	Load int64
	// Healthy is false when the last status call failed (crash, partition)
	// and, for a replica, while it has not replayed up to the RCP (it is
	// catching up after an outage): either way it must not be offered a
	// read at the RCP.
	Healthy bool
	// PolledAt is when the answer arrived.
	PolledAt time.Time
}

// Topology maps shards to their replica endpoints and primary endpoint.
type Topology struct {
	// Primaries maps shard -> primary endpoint name.
	Primaries map[int]string
	// Replicas maps shard -> replica endpoint names.
	Replicas map[int][]string
	// Stamp, when set, has a shard's primary stamp its own heartbeats; a
	// primary it cannot stamp, or every one when it is nil, is sent a
	// HeartbeatReq instead.
	Stamp Stamper
}

// each calls fn for every replica and every primary of the topology.
func (t Topology) each(fn func(shard int, node string, primary bool)) {
	for shard, nodes := range t.Replicas {
		for _, node := range nodes {
			fn(shard, node, false)
		}
	}
	for shard, node := range t.Primaries {
		fn(shard, node, true)
	}
}

// TSProvider supplies fresh commit timestamps for heartbeat transactions
// sent to primaries that cannot stamp their own (see Stamper).
type TSProvider func(ctx context.Context) (ts.Timestamp, error)

// Stamper has shard's primary stamp a heartbeat into its own log from its own
// clock, with no message (datanode.Primary.StampHeartbeat). It returns false
// when the primary cannot — its oracle is not in GClock mode — and the
// collector then sends it a HeartbeatReq carrying a TSProvider timestamp.
type Stamper func(shard int) bool

// Config tunes the collector.
type Config struct {
	// PollInterval is how long a node may stay silent before the collector
	// probes it: every node's health and load are at most this old (plus a
	// round trip). A replica's push counts as an answer, so a replica whose
	// watermark moves more often than this is never probed, while its
	// watermark is reported as soon as it moves.
	PollInterval time.Duration
	// HeartbeatInterval is how often every primary's log is stamped with a
	// heartbeat: by the primary itself under GClock, by a HeartbeatReq under
	// GTM and DUAL.
	HeartbeatInterval time.Duration
	// PollTimeout bounds each status probe and heartbeat RPC.
	PollTimeout time.Duration
}

// DefaultConfig returns collector timing suitable for the simulator.
func DefaultConfig() Config {
	return Config{
		PollInterval:      2 * time.Millisecond,
		HeartbeatInterval: 5 * time.Millisecond,
		PollTimeout:       2 * time.Second,
	}
}

// Collector metric names on obs.Default. They total every collector in the
// process, and the per-replica gauges are labeled node="<endpoint>".
const (
	// MetricLag is how far the RCP trails the collector's wall clock, set at
	// every RCP raise and every heartbeat tick: the staleness a replica read
	// opening now would see, in nanoseconds. GClock timestamps are wall-clock
	// nanoseconds; under GTM the timestamps count rather than tell time.
	MetricLag = "rcp_lag_ns"
	// MetricReplicaLagTS is how far a replica's applied watermark trails its
	// primary's, in the timestamp domain's unit (nanoseconds under GClock),
	// as of the replica's last answer.
	MetricReplicaLagTS = "rcp_replica_lag_ns"
	// MetricReplicaLagLSN is the same distance in redo records.
	MetricReplicaLagLSN = "rcp_replica_lag_lsn"
	// MetricStatusReplies counts what the collector hears from replicas by
	// cause="advance" (a push: the watermark moved), "timeout" (the answer to
	// a probe, sent because the replica was silent for PollInterval) or
	// "error" (a probe failed: crash, partition).
	MetricStatusReplies = "rcp_status_replies_total"
)

var (
	metricLag       = obs.Default.Gauge(MetricLag)
	metricAdvances  = obs.Default.Counter(obs.LabeledName(MetricStatusReplies, "cause", "advance"))
	metricTimeouts  = obs.Default.Counter(obs.LabeledName(MetricStatusReplies, "cause", "timeout"))
	metricPollFails = obs.Default.Counter(obs.LabeledName(MetricStatusReplies, "cause", "error"))
)

// replayLag is one replica's pair of replay-lag gauges.
type replayLag struct{ ts, lsn *obs.Gauge }

// Collector computes the RCP. It is shared by every CN in the cluster —
// the in-process analogue of the designated CN distributing the RCP.
type Collector struct {
	cfg      Config
	client   *datanode.Client
	topo     Topology
	tsp      TSProvider
	endpoint string               // where replicas push: "rcp:<region>"; set by Start
	shardOf  map[string]int       // replica -> shard; fixed at construction
	lag      map[string]replayLag // by replica; fixed at construction

	rcp     atomic.Int64 // a ts.Timestamp; raised only under mu
	running atomic.Bool  // between Start and Stop: pushes are published

	mu       sync.Mutex // never held across I/O
	statuses map[string]ReplicaStatus

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewCollector creates a collector calling through client (homed at the
// designated CN's region) whose RCP starts at start: the RCP a replaced
// collector published, when every replica it reads from has replayed that
// far, so that readers are never handed less than before; zero otherwise.
// tsp supplies the heartbeat timestamps of the primaries that topo.Stamp
// cannot stamp.
func NewCollector(cfg Config, client *datanode.Client, topo Topology, tsp TSProvider, start ts.Timestamp) *Collector {
	c := &Collector{
		cfg:      cfg,
		client:   client,
		topo:     topo,
		tsp:      tsp,
		shardOf:  make(map[string]int),
		lag:      make(map[string]replayLag),
		statuses: make(map[string]ReplicaStatus),
	}
	c.rcp.Store(int64(start))
	for shard, nodes := range topo.Replicas {
		for _, node := range nodes {
			c.shardOf[node] = shard
			c.lag[node] = replayLag{
				ts:  obs.Default.Gauge(obs.LabeledName(MetricReplicaLagTS, "node", node)),
				lsn: obs.Default.Gauge(obs.LabeledName(MetricReplicaLagLSN, "node", node)),
			}
		}
	}
	return c
}

// Start registers the collector's push endpoint, taking it over from any
// earlier collector in the same region, and launches the heartbeat loop and
// one watcher per node.
func (c *Collector) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.running.Store(true)
	c.endpoint = "rcp:" + c.client.Region()
	c.client.ServePushes(c.endpoint, c.onPush)
	c.wg.Add(1)
	go c.heartbeats(ctx)
	c.topo.each(func(shard int, node string, primary bool) {
		c.wg.Add(1)
		go c.watch(ctx, shard, node, primary)
	})
}

// Stop ends the heartbeats and the watchers — a probe in flight is cancelled,
// not waited out — and returns once they have exited; pushes that land after
// it are dropped. A stopped collector keeps its RCP and statuses and may be
// started again.
func (c *Collector) Stop() {
	c.running.Store(false)
	if c.cancel != nil {
		c.cancel()
		c.wg.Wait()
	}
}

// RCP returns the current replica consistency point. It is monotonic, and it
// never blocks.
func (c *Collector) RCP() ts.Timestamp { return ts.Timestamp(c.rcp.Load()) }

// Statuses returns the last observed per-node states (for node selection).
func (c *Collector) Statuses() map[string]ReplicaStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]ReplicaStatus, len(c.statuses))
	for k, v := range c.statuses {
		out[k] = v
	}
	return out
}

// FormatStats renders the collector's instruments as human-readable lines
// for the CLI stats surfaces: the RCP with its lag and what replicas were
// heard saying by cause, then one line per replica.
func (c *Collector) FormatStats() []string {
	lines := []string{fmt.Sprintf("rcp:     %v lag=%v status-replies: advance=%d timeout=%d error=%d",
		c.RCP(), time.Duration(metricLag.Value()),
		metricAdvances.Value(), metricTimeouts.Value(), metricPollFails.Value())}
	statuses := c.Statuses()
	nodes := make([]string, 0, len(c.lag))
	for node := range c.lag {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		st, g := statuses[node], c.lag[node]
		lines = append(lines, fmt.Sprintf("replica: %-8s shard=%d healthy=%-5v load=%d replay-lag=%v (%d records)",
			node, st.Shard, st.Healthy, st.Load, time.Duration(g.ts.Value()), g.lsn.Value()))
	}
	return lines
}

// PollOnce asks every node for its status now, publishes the answers and
// returns the resulting RCP: the synchronous one-shot, for tests and for a
// takeover CN that wants a value before its watchers have reported.
func (c *Collector) PollOnce(ctx context.Context) ts.Timestamp {
	var wg sync.WaitGroup
	c.topo.each(func(shard int, node string, primary bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.ask(ctx, shard, node, primary, datanode.StatusReq{}) // a failure is published as unhealthy
		}()
	})
	wg.Wait()
	return c.RCP()
}

// ask is one status round trip, published on arrival unless ctx ended first
// (a cancelled call says nothing about the node).
func (c *Collector) ask(ctx context.Context, shard int, node string, primary bool, req datanode.StatusReq) (datanode.StatusResp, error) {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.PollTimeout)
	defer cancel()
	resp, err := c.client.Status(cctx, node, req)
	if ctx.Err() != nil {
		return resp, ctx.Err()
	}
	c.publish(shard, node, primary, resp, err)
	return resp, err
}

// publish folds one node's answer (or its failure to answer) into the status
// map and, for a replica, recomputes the RCP from the map: the largest
// commit timestamp that every serving replica of every shard has replayed
// (Fig. 4: the minimum over replicas of each one's maximum commit timestamp).
// A replica serves — Healthy — when it answers and has reached the RCP; one
// that is unreachable, or back from an outage and still replaying towards
// the RCP, neither holds the RCP back nor is offered reads at it, and keeps
// its last watermark for display only. So every node the status map calls
// healthy can answer a read at the RCP from what it has already applied,
// whichever of them the skyline picks. A shard with no serving replica pins
// the RCP where it is.
//
// Entries in the map were observed at different moments, which is safe
// because watermarks only grow: an older observation is a lower bound. A
// node's entry keeps the larger of the stored and the arriving watermark
// and replay position, so an answer overtaken on the wire — a probe's
// answer behind a push, or one push behind another — lowers neither, nor
// flips Healthy. The RCP is only ever raised, under mu, so concurrent
// publishers cannot regress it. No I/O happens under the lock.
func (c *Collector) publish(shard int, node string, primary bool, resp datanode.StatusResp, err error) {
	st := ReplicaStatus{Node: node, Shard: shard, Primary: primary, PolledAt: time.Now()}
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.statuses[node]
	st.MaxCommitTS, st.AppliedLSN = prev.MaxCommitTS, prev.AppliedLSN
	if err == nil {
		st.MaxCommitTS, st.AppliedLSN = max(st.MaxCommitTS, resp.LastCommitTS), max(st.AppliedLSN, resp.AppliedLSN)
		st.Load = resp.Load
		st.Healthy = primary || st.MaxCommitTS >= c.RCP()
	}
	c.statuses[node] = st
	if primary {
		return // a primary is watched for load and health, never for the RCP
	}
	if p := c.statuses[c.topo.Primaries[shard]]; err == nil && p.Healthy && st.MaxCommitTS > 0 {
		g := c.lag[node]
		g.ts.Set(max(0, int64(p.MaxCommitTS-st.MaxCommitTS)))
		g.lsn.Set(max(0, int64(p.AppliedLSN)-int64(st.AppliedLSN)))
	}
	candidate := ts.Max
	for _, nodes := range c.topo.Replicas {
		serving := false
		for _, n := range nodes {
			if s := c.statuses[n]; s.Healthy {
				candidate, serving = min(candidate, s.MaxCommitTS), true
			}
		}
		if !serving {
			return
		}
	}
	if candidate != ts.Max && candidate > c.RCP() {
		c.rcp.Store(int64(candidate))
		c.noteLag()
	}
}

// onPush publishes a replica's push, unless the collector is stopped or the
// node is not one of its replicas.
func (c *Collector) onPush(p datanode.StatusPush) {
	shard, ok := c.shardOf[p.Node]
	if !ok || !c.running.Load() {
		return
	}
	metricAdvances.Inc()
	c.publish(shard, p.Node, false, p.Status, nil)
}

// noteLag sets MetricLag from the collector's wall clock.
func (c *Collector) noteLag() {
	if rcp := c.RCP(); rcp > 0 {
		metricLag.Set(int64(ts.FromTime(time.Now()) - rcp))
	}
}

// watch keeps one node's entry in the status map current until ctx ends: it
// probes the node whenever nothing has been heard from it for PollInterval.
// A replica's pushes count as answers, so a replica whose watermark keeps
// moving is never probed, and one that stops — idle, or dead — is probed
// PollInterval after its last word, which is how a replica that died is
// noticed. A replica's probe names the collector's endpoint, so the first
// one subscribes it (and re-subscribes it after an outage). A primary, which
// pushes nothing, is simply probed every PollInterval, and so is a node that
// fails fast.
func (c *Collector) watch(ctx context.Context, shard int, node string, primary bool) {
	defer c.wg.Done()
	var req datanode.StatusReq
	if !primary {
		req.PushTo = c.endpoint
	}
	for {
		start := time.Now()
		_, err := c.ask(ctx, shard, node, primary, req)
		switch {
		case ctx.Err() != nil:
			return // stopped mid-call: not an answer
		case primary:
		case err != nil:
			metricPollFails.Inc()
		default:
			metricTimeouts.Inc()
		}
		// Wait until the node has been silent for PollInterval: every push
		// that lands meanwhile moves the deadline.
		for {
			heard := start
			c.mu.Lock()
			if at := c.statuses[node].PolledAt; at.After(heard) {
				heard = at
			}
			c.mu.Unlock()
			rest := c.cfg.PollInterval - time.Since(heard)
			if rest <= 0 {
				break
			}
			select {
			case <-time.After(rest):
			case <-ctx.Done():
				return
			}
		}
	}
}

// HeartbeatOnce stamps every primary's log with a heartbeat. A primary that
// stamps its own (Topology.Stamp, under GClock) costs no message and no
// wait. The others are sent one timestamp fetched from the provider for the
// tick, and HeartbeatOnce returns once they have acked.
func (c *Collector) HeartbeatOnce(ctx context.Context) error {
	c.noteLag()
	var send []string // stays nil, unallocated, while every primary stamps
	for shard, primary := range c.topo.Primaries {
		if c.topo.Stamp == nil || !c.topo.Stamp(shard) {
			send = append(send, primary)
		}
	}
	if len(send) == 0 {
		return nil
	}
	t, err := c.tsp(ctx)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	for _, primary := range send {
		wg.Add(1)
		go func(primary string) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, c.cfg.PollTimeout)
			defer cancel()
			_ = c.client.Heartbeat(cctx, primary, t) // a dead primary just lags
		}(primary)
	}
	wg.Wait()
	return nil
}

// heartbeats stamps every primary every HeartbeatInterval, on a ticker of its
// own so that no status round trip stretches the period.
func (c *Collector) heartbeats(ctx context.Context) {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			_ = c.HeartbeatOnce(ctx) // provider failures retry next tick
		}
	}
}

// ComputeRCP is the pure Fig. 4 calculation: the minimum over groups of each
// group's maximum commit timestamp — in the figure a group is one replica's
// replayed transactions. It returns Zero for an empty input. (The collector
// does not call it: publish takes the minimum over serving replicas'
// watermarks directly.)
func ComputeRCP(perShard map[int][]ts.Timestamp) ts.Timestamp {
	if len(perShard) == 0 {
		return ts.Zero
	}
	out := ts.Max
	for _, reps := range perShard {
		best := ts.Zero
		for _, t := range reps {
			if t > best {
				best = t
			}
		}
		if best < out {
			out = best
		}
	}
	return out
}
