// Package ror implements Read-On-Replica node selection (Sec. IV-B).
//
// For every shard the same data is available from a primary and several
// replicas with different freshness, response time, and health. Each CN
// tracks per-node metrics and forms a skyline — the Pareto frontier over
// (staleness, cost) where cost folds measured latency and load together —
// and picks, for a query with a staleness bound, the cheapest node that is
// fresh enough (Fig. 5). Crashed nodes drop off the skyline automatically;
// overloaded nodes drift to higher cost and are swapped out.
package ror

import (
	"sort"
	"sync"
	"time"
)

// Candidate is one node's selection metrics for a shard.
type Candidate struct {
	// Node is the endpoint name.
	Node string
	// Region hosts the node.
	Region string
	// Primary marks the shard's primary (staleness zero by definition).
	Primary bool
	// Staleness is how far the node's data lags true time.
	Staleness time.Duration
	// Latency is the EWMA of observed round trips to the node.
	Latency time.Duration
	// Load is the node's last reported in-flight request count.
	Load int64
	// Healthy is false for crashed or unreachable nodes.
	Healthy bool
}

// Cost folds response-time factors into one ordering key: measured latency
// inflated by load (a busy node answers slower than its wire latency).
func (c Candidate) Cost() time.Duration {
	load := c.Load
	if load < 0 {
		load = 0
	}
	return c.Latency * time.Duration(4+load) / 4
}

// Skyline returns the Pareto-optimal candidates minimizing (staleness,
// cost): a candidate survives if no other is both fresher-or-equal and
// cheaper-or-equal (with at least one strict). Unhealthy nodes never
// appear. The result is sorted by staleness ascending.
func Skyline(cands []Candidate) []Candidate {
	alive := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		if c.Healthy {
			alive = append(alive, c)
		}
	}
	sort.Slice(alive, func(i, j int) bool {
		if alive[i].Staleness != alive[j].Staleness {
			return alive[i].Staleness < alive[j].Staleness
		}
		return alive[i].Cost() < alive[j].Cost()
	})
	var out []Candidate
	bestCost := time.Duration(1<<63 - 1)
	for _, c := range alive {
		if cost := c.Cost(); cost < bestCost {
			out = append(out, c)
			bestCost = cost
		}
	}
	return out
}

// Select picks the cheapest candidate whose staleness is within bound.
// bound < 0 means "any freshness". It returns false when no healthy
// candidate qualifies.
func Select(cands []Candidate, bound time.Duration) (Candidate, bool) {
	var best Candidate
	found := false
	for _, c := range Skyline(cands) {
		if bound >= 0 && c.Staleness > bound {
			continue
		}
		if !found || c.Cost() < best.Cost() {
			best = c
			found = true
		}
	}
	return best, found
}

// nodeState is a tracked node's mutable metrics.
type nodeState struct {
	Candidate
	shard int
}

// alpha is the EWMA weight of a new latency sample.
const alpha = 0.3

// Tracker maintains per-node metrics per CN and answers pick queries.
type Tracker struct {
	mu     sync.RWMutex
	nodes  map[string]*nodeState
	shards map[int][]string
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{nodes: make(map[string]*nodeState), shards: make(map[int][]string)}
}

// AddNode registers a node serving a shard. Nodes start healthy with zero
// metrics; initialLatency seeds the EWMA (e.g. from topology RTT).
func (t *Tracker) AddNode(shard int, node, region string, primary bool, initialLatency time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[node] = &nodeState{
		Candidate: Candidate{Node: node, Region: region, Primary: primary, Latency: initialLatency, Healthy: true},
		shard:     shard,
	}
	t.shards[shard] = append(t.shards[shard], node)
}

// ObserveLatency folds a measured round trip into the node's EWMA.
func (t *Tracker) ObserveLatency(node string, rtt time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.nodes[node]
	if !ok {
		return
	}
	if n.Latency == 0 {
		n.Latency = rtt
		return
	}
	n.Latency = time.Duration(float64(n.Latency)*(1-alpha) + float64(rtt)*alpha)
}

// UpdateStatus refreshes a node's freshness, load, and health from what
// the collector last heard: a push or a probe.
func (t *Tracker) UpdateStatus(node string, staleness time.Duration, load int64, healthy bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.nodes[node]
	if !ok {
		return
	}
	n.Staleness = staleness
	n.Load = load
	n.Healthy = healthy
}

// MarkFailed records a node crash observed in-band (a failed read); the
// node is excluded until a status update reports it healthy again.
func (t *Tracker) MarkFailed(node string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.nodes[node]; ok {
		n.Healthy = false
	}
}

// Node returns one tracked node's current metrics.
func (t *Tracker) Node(node string) (Candidate, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.nodes[node]
	if !ok {
		return Candidate{}, false
	}
	return n.Candidate, true
}

// CandidatesFor returns the tracked candidates serving a shard.
func (t *Tracker) CandidatesFor(shard int) []Candidate {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := t.shards[shard]
	out := make([]Candidate, 0, len(names))
	for _, name := range names {
		if n, ok := t.nodes[name]; ok {
			out = append(out, n.Candidate)
		}
	}
	return out
}

// Pick selects the best node for a shard read under a staleness bound,
// preferring replicas. preferReplica excludes the primary unless no replica
// qualifies; the primary (staleness 0) is the fallback of last resort.
func (t *Tracker) Pick(shard int, bound time.Duration, preferReplica bool) (Candidate, bool) {
	cands := t.CandidatesFor(shard)
	if preferReplica {
		replicas := make([]Candidate, 0, len(cands))
		for _, c := range cands {
			if !c.Primary {
				replicas = append(replicas, c)
			}
		}
		if best, ok := Select(replicas, bound); ok {
			return best, true
		}
	}
	return Select(cands, bound)
}
