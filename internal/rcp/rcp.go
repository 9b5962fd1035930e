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
// monotonic from the client's point of view, and a replacement collector
// (after a CN failure) can never regress it because replica watermarks only
// grow.
//
// Collection is a stream, not a batch: one watcher per node keeps a status
// long poll parked at its replica (datanode.StatusReq), the replica answers
// the moment it has replayed past the watermark the watcher last saw, and
// every answer is published on arrival. The RCP therefore trails a replica's
// watermark by one one-way trip rather than by a poll period plus a round
// trip, an idle replica costs one message pair per PollInterval, and readers
// never wait for the collector: RCP is an atomic load, Statuses copies a map
// under a mutex that is never held across I/O.
//
// Heartbeat transactions keep idle shards moving: the collector
// periodically stamps every primary's log with a fresh commit timestamp so
// "a replica node's maximum timestamp could lag behind when it does not
// receive any transactions to replay" never pins the RCP.
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

// TSProvider supplies fresh commit timestamps for heartbeat transactions.
type TSProvider func(ctx context.Context) (ts.Timestamp, error)

// Config tunes the collector.
type Config struct {
	// PollInterval is how long a replica may hold a status long poll with
	// nothing new to report, and how often a primary is asked: every node's
	// health and load are at most this old (plus a round trip), while a
	// replica's watermark is reported as soon as it moves.
	PollInterval time.Duration
	// HeartbeatInterval is how often heartbeat transactions are issued.
	HeartbeatInterval time.Duration
	// PollTimeout bounds each status RPC (beyond the time it may park).
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
	// MetricLag is how far the RCP trails the heartbeat clock, set at every
	// heartbeat: the staleness a replica read opening now would see. The
	// unit is the timestamp domain's — nanoseconds under GClock.
	MetricLag = "rcp_lag_ns"
	// MetricReplicaLagTS is how far a replica's applied watermark trails its
	// primary's, in the same unit, as of the replica's last answer.
	MetricReplicaLagTS = "rcp_replica_lag_ns"
	// MetricReplicaLagLSN is the same distance in redo records.
	MetricReplicaLagLSN = "rcp_replica_lag_lsn"
	// MetricStatusReplies counts answers to replica long polls by
	// cause="advance" (the watermark moved: the useful ones), "timeout"
	// (PollInterval ran out first) or "error" (crash, partition).
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
	cfg    Config
	client *datanode.Client
	topo   Topology
	tsp    TSProvider
	lag    map[string]replayLag // by replica; fixed at construction

	rcp atomic.Int64 // a ts.Timestamp; raised only under mu

	mu       sync.Mutex // never held across I/O
	statuses map[string]ReplicaStatus

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewCollector creates a collector calling through client (homed at the
// designated CN's region).
func NewCollector(cfg Config, client *datanode.Client, topo Topology, tsp TSProvider) *Collector {
	c := &Collector{
		cfg:      cfg,
		client:   client,
		topo:     topo,
		tsp:      tsp,
		lag:      make(map[string]replayLag),
		statuses: make(map[string]ReplicaStatus),
	}
	for _, nodes := range topo.Replicas {
		for _, node := range nodes {
			c.lag[node] = replayLag{
				ts:  obs.Default.Gauge(obs.LabeledName(MetricReplicaLagTS, "node", node)),
				lsn: obs.Default.Gauge(obs.LabeledName(MetricReplicaLagLSN, "node", node)),
			}
		}
	}
	return c
}

// Start launches the heartbeat loop and one watcher per node.
func (c *Collector) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.wg.Add(1)
	go c.heartbeats(ctx)
	c.topo.each(func(shard int, node string, primary bool) {
		c.wg.Add(1)
		go c.watch(ctx, shard, node, primary)
	})
}

// Stop ends the heartbeats and the watchers — parked long polls are
// cancelled, not waited out — and returns once they have exited. A stopped
// collector keeps its RCP and statuses and may be started again.
func (c *Collector) Stop() {
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
// for the CLI stats surfaces: the RCP with its lag and the long poll's
// answers by cause, then one line per replica.
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
	cctx, cancel := context.WithTimeout(ctx, req.Wait+c.cfg.PollTimeout)
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
// because watermarks only grow: an older observation is a lower bound. The
// RCP is only ever raised, under mu, so concurrent publishers cannot regress
// it. No I/O happens under the lock.
func (c *Collector) publish(shard int, node string, primary bool, resp datanode.StatusResp, err error) {
	st := ReplicaStatus{Node: node, Shard: shard, Primary: primary, PolledAt: time.Now()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil {
		st.MaxCommitTS, st.AppliedLSN, st.Load = resp.LastCommitTS, resp.AppliedLSN, resp.Load
		st.Healthy = primary || st.MaxCommitTS >= c.RCP()
	} else {
		prev := c.statuses[node]
		st.MaxCommitTS, st.AppliedLSN = prev.MaxCommitTS, prev.AppliedLSN
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
	}
}

// watch keeps one node's entry in the status map current until ctx ends. A
// replica is long-polled: the request carries the watermark last seen and
// parks at the replica until replay passes it, so the answer leaves the
// moment there is something to publish, and the next request follows at
// once. When PollInterval passes without an advance the replica answers
// anyway, which is what keeps health and load fresh and is how a replica
// that died with a poll parked is noticed. A primary, whose watermark the
// RCP does not use, is simply asked every PollInterval, and so is a node
// that fails fast.
func (c *Collector) watch(ctx context.Context, shard int, node string, primary bool) {
	defer c.wg.Done()
	var seen ts.Timestamp
	for ctx.Err() == nil {
		var req datanode.StatusReq
		if !primary {
			req = datanode.StatusReq{After: seen, Wait: c.cfg.PollInterval}
		}
		start := time.Now()
		resp, err := c.ask(ctx, shard, node, primary, req)
		switch {
		case ctx.Err() != nil:
			return // stopped mid-call: not an answer
		case primary:
		case err != nil:
			metricPollFails.Inc()
		case resp.LastCommitTS > seen:
			metricAdvances.Inc()
			seen = resp.LastCommitTS
			continue
		default:
			metricTimeouts.Inc()
		}
		// Nothing moved: wait out what is left of the interval (nothing, after
		// a long poll that ran its course).
		if rest := c.cfg.PollInterval - time.Since(start); rest > 0 {
			select {
			case <-time.After(rest):
			case <-ctx.Done():
			}
		}
	}
}

// HeartbeatOnce stamps every primary with a fresh commit timestamp.
func (c *Collector) HeartbeatOnce(ctx context.Context) error {
	t, err := c.tsp(ctx)
	if err != nil {
		return err
	}
	if rcp := c.RCP(); rcp > 0 {
		metricLag.Set(int64(t - rcp))
	}
	var wg sync.WaitGroup
	for _, primary := range c.topo.Primaries {
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

// heartbeats issues a heartbeat every HeartbeatInterval, on a ticker of its
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
