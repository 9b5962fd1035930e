// Package netsim simulates the wide-area network between GlobalDB regions.
//
// The paper evaluates two clusters: one region with tc-injected latency, and
// three cities (Xi'an, Langzhong, Dongguan) forming a 25/35/55 ms RTT
// triangle. This package reproduces both: a Network holds regions and
// per-pair one-way latency and bandwidth, and everything that crosses a
// region boundary — CN↔GTM timestamp fetches, CN↔DN reads and writes,
// primary→replica redo shipping — pays the simulated cost with real
// (optionally scaled) sleeps.
//
// A global time-scale factor shrinks every delay proportionally so a 100 ms
// RTT sweep finishes in seconds while preserving the relative shape of the
// results.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"globaldb/internal/obs"
)

// Errors.
var (
	// ErrPartitioned means the two regions are currently partitioned.
	ErrPartitioned = errors.New("netsim: network partition")
	// ErrNoRoute means one of the regions is unknown.
	ErrNoRoute = errors.New("netsim: no route between regions")
)

type pair struct{ a, b string }

func normPair(a, b string) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// Config describes a network.
type Config struct {
	// TimeScale multiplies every simulated delay. 1.0 is real time; 0.1
	// makes a nominal 100 ms round trip cost 10 ms of wall time. Zero
	// defaults to 1.0.
	TimeScale float64
	// JitterFrac adds uniform random jitter of ±JitterFrac × latency.
	JitterFrac float64
	// Seed seeds the jitter source. Zero uses a fixed default, keeping
	// simulations reproducible.
	Seed int64
}

// Network is a set of regions and the links between them.
type Network struct {
	cfg Config

	mu          sync.RWMutex
	regions     map[string]bool
	latency     map[pair]time.Duration // one-way
	bandwidth   map[pair]float64       // bytes/sec, 0 = unlimited
	partitioned map[pair]bool
	eps         map[string]*Endpoint
	links       map[link]*linkCounters

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New creates an empty network.
func New(cfg Config) *Network {
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1.0
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 20240101
	}
	return &Network{
		cfg:         cfg,
		regions:     make(map[string]bool),
		latency:     make(map[pair]time.Duration),
		bandwidth:   make(map[pair]float64),
		partitioned: make(map[pair]bool),
		links:       make(map[link]*linkCounters),
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// AddRegion registers a region. Links inside a region default to zero
// latency until SetLink overrides them.
func (n *Network) AddRegion(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.regions[name] = true
}

// Regions returns the registered region names.
func (n *Network) Regions() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.regions))
	for r := range n.regions {
		out = append(out, r)
	}
	return out
}

// SetLink sets the round-trip latency and bandwidth between two regions.
// Latency is stored as one-way (rtt/2). bandwidthBytesPerSec 0 means
// unlimited.
func (n *Network) SetLink(a, b string, rtt time.Duration, bandwidthBytesPerSec float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.regions[a] = true
	n.regions[b] = true
	p := normPair(a, b)
	n.latency[p] = rtt / 2
	n.bandwidth[p] = bandwidthBytesPerSec
}

// SetPartitioned opens or heals a partition between two regions.
func (n *Network) SetPartitioned(a, b string, partitioned bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[normPair(a, b)] = partitioned
}

// OneWay returns the simulated one-way delay for a message of size bytes
// from region a to region b, including jitter and time scaling.
func (n *Network) OneWay(a, b string, size int) (time.Duration, error) {
	n.mu.RLock()
	if !n.regions[a] || !n.regions[b] {
		n.mu.RUnlock()
		return 0, fmt.Errorf("%w: %s->%s", ErrNoRoute, a, b)
	}
	p := normPair(a, b)
	if n.partitioned[p] {
		n.mu.RUnlock()
		return 0, fmt.Errorf("%w: %s->%s", ErrPartitioned, a, b)
	}
	lat := n.latency[p]
	bw := n.bandwidth[p]
	n.mu.RUnlock()

	d := lat
	if bw > 0 && size > 0 {
		d += time.Duration(float64(size) / bw * float64(time.Second))
	}
	if n.cfg.JitterFrac > 0 && d > 0 {
		n.rngMu.Lock()
		j := (n.rng.Float64()*2 - 1) * n.cfg.JitterFrac
		n.rngMu.Unlock()
		d += time.Duration(float64(d) * j)
	}
	return time.Duration(float64(d) * n.cfg.TimeScale), nil
}

// Per-link traffic metric names on obs.Default, labeled link="from->to".
// They total every Network in the process; Network.LinkStats is per network.
const (
	// MetricLinkMessages counts messages put on a directed region link.
	MetricLinkMessages = "netsim_link_messages_total"
	// MetricLinkBytes counts their declared wire bytes.
	MetricLinkBytes = "netsim_link_bytes_total"
)

// link is one direction of a region pair (a region to itself included).
type link struct{ from, to string }

// LinkStats is the traffic one directed link has carried: every message
// that paid the link's delay — an RPC is one message each way. Messages
// refused by a partition are not counted.
type LinkStats struct {
	Messages int64
	Bytes    int64
}

type linkCounters struct {
	msgs, bytes       atomic.Int64
	obsMsgs, obsBytes *obs.Counter
}

// LinkStats returns what the from→to link has carried so far.
func (n *Network) LinkStats(from, to string) LinkStats {
	n.mu.RLock()
	lc := n.links[link{from, to}]
	n.mu.RUnlock()
	if lc == nil {
		return LinkStats{}
	}
	return LinkStats{Messages: lc.msgs.Load(), Bytes: lc.bytes.Load()}
}

// count records one message of size bytes on the from→to link.
func (n *Network) count(from, to string, size int) {
	k := link{from, to}
	n.mu.RLock()
	lc := n.links[k]
	n.mu.RUnlock()
	if lc == nil {
		n.mu.Lock()
		if lc = n.links[k]; lc == nil {
			label := from + "->" + to
			lc = &linkCounters{
				obsMsgs:  obs.Default.Counter(obs.LabeledName(MetricLinkMessages, "link", label)),
				obsBytes: obs.Default.Counter(obs.LabeledName(MetricLinkBytes, "link", label)),
			}
			n.links[k] = lc
		}
		n.mu.Unlock()
	}
	lc.msgs.Add(1)
	lc.bytes.Add(int64(size))
	lc.obsMsgs.Inc()
	lc.obsBytes.Add(int64(size))
}

// sleep waits for d, honoring ctx cancellation.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Delay blocks for the one-way delay from a to b for a message of the given
// size. It is the building block for request/response calls.
func (n *Network) Delay(ctx context.Context, a, b string, size int) error {
	d, err := n.OneWay(a, b, size)
	if err != nil {
		return err
	}
	n.count(a, b, size)
	return sleep(ctx, d)
}

// Message is a payload with an explicit wire size for bandwidth accounting.
type Message struct {
	Payload any
	Size    int
}

// Handler processes a request at the server side of an Endpoint.
type Handler func(ctx context.Context, req Message) (Message, error)

// Endpoint is a named service attached to a region.
type Endpoint struct {
	net     *Network
	region  string
	name    string
	mu      sync.RWMutex
	handler Handler
	down    bool
}

// Register attaches a handler to the network under name in region.
func (n *Network) Register(name, region string, h Handler) *Endpoint {
	ep := &Endpoint{net: n, region: region, name: name, handler: h}
	n.mu.Lock()
	if n.eps == nil {
		n.eps = make(map[string]*Endpoint)
	}
	n.eps[name] = ep
	n.mu.Unlock()
	return ep
}

// SetDown marks the endpoint crashed; calls fail immediately after the
// request propagation delay, like a TCP RST from a dead host.
func (ep *Endpoint) SetDown(down bool) {
	ep.mu.Lock()
	ep.down = down
	ep.mu.Unlock()
}

// Down reports whether the endpoint is marked crashed.
func (ep *Endpoint) Down() bool {
	ep.mu.RLock()
	defer ep.mu.RUnlock()
	return ep.down
}

// Region returns the endpoint's region.
func (ep *Endpoint) Region() string { return ep.region }

// ErrEndpointDown is returned when calling a crashed endpoint.
var ErrEndpointDown = errors.New("netsim: endpoint down")

// ErrUnknownEndpoint is returned when dialing an unregistered name.
var ErrUnknownEndpoint = errors.New("netsim: unknown endpoint")

// Call performs a simulated RPC from fromRegion to the named endpoint:
// request propagation + handler execution + response propagation.
func (n *Network) Call(ctx context.Context, fromRegion, name string, req Message) (Message, error) {
	n.mu.RLock()
	ep := n.eps[name]
	n.mu.RUnlock()
	if ep == nil {
		return Message{}, fmt.Errorf("%w: %q", ErrUnknownEndpoint, name)
	}
	if err := n.Delay(ctx, fromRegion, ep.region, req.Size); err != nil {
		return Message{}, err
	}
	ep.mu.RLock()
	down, h := ep.down, ep.handler
	ep.mu.RUnlock()
	if down {
		return Message{}, fmt.Errorf("%w: %q", ErrEndpointDown, name)
	}
	resp, err := h(ctx, req)
	if err != nil {
		return Message{}, err
	}
	if err := n.Delay(ctx, ep.region, fromRegion, resp.Size); err != nil {
		return Message{}, err
	}
	return resp, nil
}

// Send puts a one-way message from fromRegion on the wire to the named
// endpoint and returns at once: the message is counted on the link now and
// handed to the endpoint's handler after the one-way delay, on a goroutine
// of its own, whose response goes nowhere. Nothing travels back, so the
// sender learns nothing of delivery, and an endpoint that is down when the
// message lands drops it. Send fails, and puts nothing on the wire, only
// for an unknown endpoint or a link that is partitioned or missing.
func (n *Network) Send(fromRegion, name string, m Message) error {
	n.mu.RLock()
	ep := n.eps[name]
	n.mu.RUnlock()
	if ep == nil {
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, name)
	}
	d, err := n.OneWay(fromRegion, ep.region, m.Size)
	if err != nil {
		return err
	}
	n.count(fromRegion, ep.region, m.Size)
	time.AfterFunc(d, func() {
		ep.mu.RLock()
		down, h := ep.down, ep.handler
		ep.mu.RUnlock()
		if !down {
			_, _ = h(context.Background(), m)
		}
	})
	return nil
}
