// Package obs is GlobalDB's observability core: a metrics registry whose
// instruments are safe for concurrent use and allocation-free on the hot
// path (atomic counters, gauges, and log-linear latency histograms), and
// a lightweight per-query span tracer (trace.go) that attributes a query's
// wall time across parse/plan/bind, per-shard scan RPCs, DN-side execute
// time, and commit fan-out. Histogram is the repository's only latency
// histogram: the registry's instruments, the benchmark harness's per-run
// percentiles and the Stats wire frame all read quantiles from it.
//
// Instruments are looked up by name once — at construction of the
// component that updates them — and then updated with plain atomic
// operations, so instrumented hot paths (per-page scan accounting, the
// server's per-statement observations) never touch the registry map or
// allocate. Snapshots are taken by readers (the metrics endpoint, the
// Stats wire frame, tests) concurrently with writers.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (in-flight statements, active
// connections, pool occupancy).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc moves the gauge up by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec moves the gauge down by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram buckets are log-linear: each power-of-two octave of nanoseconds
// [2^e, 2^(e+1)) is split into subBuckets equal-width buckets, so the largest
// duration in a bucket is less than 1+1/subBuckets times the smallest.
// Durations below 2·subBuckets ns get one bucket per nanosecond. histBuckets
// covers every non-negative time.Duration (below 2^63 ns, ~292 years).
const (
	subBits     = 3
	subBuckets  = 1 << subBits
	histBuckets = (64 - subBits) * subBuckets
)

// Histogram is a log-linear latency histogram. Observe is wait-free and
// allocation-free: one atomic add into the duration's bucket plus count and
// sum, so it can sit on per-statement and per-page paths. A quantile read
// from a Snapshot is never below the true nearest-rank sample and at most
// 1/subBuckets (12.5 %) above it.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// bucketFor maps a duration to its bucket index. A duration of bit length
// n > subBits keeps its top subBits+1 bits m ∈ [subBuckets, 2·subBuckets)
// after dropping shift = n-1-subBits low bits, and lands in bucket
// shift·subBuckets + m; shorter durations are their own index.
func bucketFor(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	v := uint64(d)
	if v < subBuckets {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - subBits
	return shift<<subBits + int(v>>uint(shift))
}

// bucketMax is the largest duration bucketFor maps to bucket i: the value a
// quantile in that bucket reports.
func bucketMax(i int) time.Duration {
	if i < subBuckets {
		return time.Duration(i)
	}
	shift := uint(i>>subBits - 1)
	m := uint64(i&(subBuckets-1) | subBuckets)
	return time.Duration((m+1)<<shift - 1)
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[bucketFor(d)].Add(1)
}

// Snapshot returns a point-in-time copy of the histogram. Concurrent
// Observes may land between field reads; the snapshot is still a valid
// histogram (each bucket is internally consistent), which is all
// percentile reporting needs.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.SumNanos = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time read of a Histogram. Snapshots merge
// associatively and commutatively with Add — the same contract
// stats.ScanSnapshot.Add keeps — so per-server or per-shard snapshots can
// be folded together in any grouping.
type HistSnapshot struct {
	Count    int64
	SumNanos int64
	Buckets  [histBuckets]int64
}

// Add returns the element-wise sum of two snapshots.
func (s HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count + o.Count, SumNanos: s.SumNanos + o.SumNanos}
	for i := range s.Buckets {
		out.Buckets[i] = s.Buckets[i] + o.Buckets[i]
	}
	return out
}

// Sub returns the element-wise difference s - o: the histogram of
// observations that landed between snapshot o and snapshot s of the same
// histogram. Benchmarks use it to report interval quantiles on the shared
// Default registry without resetting instruments.
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count - o.Count, SumNanos: s.SumNanos - o.SumNanos}
	for i := range s.Buckets {
		out.Buckets[i] = s.Buckets[i] - o.Buckets[i]
	}
	return out
}

// Quantile returns the q-th quantile (0 < q <= 1) as the largest duration
// of the bucket holding the nearest-rank sample, the ⌈q·Count⌉-th smallest.
// Zero with no samples.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen >= rank {
			return bucketMax(i)
		}
	}
	return time.Duration(s.SumNanos) // unreachable unless counts raced; cap at sum
}

// P50 returns the median latency.
func (s HistSnapshot) P50() time.Duration { return s.Quantile(0.50) }

// P95 returns the 95th-percentile latency.
func (s HistSnapshot) P95() time.Duration { return s.Quantile(0.95) }

// P99 returns the 99th-percentile latency.
func (s HistSnapshot) P99() time.Duration { return s.Quantile(0.99) }

// Mean returns the average latency.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// Registry is a named collection of instruments. Lookups get-or-create
// under a mutex; holders of the returned instrument update it lock-free.
// Names follow Prometheus conventions and may carry a label set baked into
// the name, e.g. `server_statement_latency_seconds{type="select"}` —
// the registry treats the whole string as the key and the text exposition
// emits it verbatim.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry: cluster-side totals (scan pages,
// rows by layer, commit counts) and client pool gauges land here; the
// metrics endpoint serves it alongside any per-server registry.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Histograms snapshots every histogram in the registry, keyed by name.
func (r *Registry) Histograms() map[string]HistSnapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.hists))
	hs := make([]*Histogram, 0, len(r.hists))
	for name, h := range r.hists {
		names = append(names, name)
		hs = append(hs, h)
	}
	r.mu.Unlock()
	out := make(map[string]HistSnapshot, len(names))
	for i, name := range names {
		out[name] = hs[i].Snapshot()
	}
	return out
}

// LabeledName bakes one label into a metric name in Prometheus text form.
func LabeledName(base, label, value string) string {
	return fmt.Sprintf("%s{%s=%q}", base, label, value)
}

// labeledQuantile renders a metric name with an extra quantile label,
// merging into an existing label set when the name already carries one.
func labeledQuantile(name string, q string) string {
	if n := len(name); n > 0 && name[n-1] == '}' {
		return name[:n-1] + `,quantile="` + q + `"}`
	}
	return name + `{quantile="` + q + `"}`
}

// stripLabels returns the metric base name without any baked-in label set.
func stripLabels(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i]
		}
	}
	return name
}

// suffixedName inserts a suffix onto the base name ahead of any baked-in
// label set: `lat{type="q"}` + `_count` → `lat_count{type="q"}`.
func suffixedName(name, suffix string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i] + suffix + name[i:]
		}
	}
	return name + suffix
}

// WriteProm renders the registry in Prometheus text exposition format:
// counters and gauges as single samples, histograms in summary form
// (quantile-labeled samples plus _count and _sum). Output is sorted by
// name so scrapes and tests are deterministic.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	type sample struct {
		name string
		kind string
		c    *Counter
		g    *Gauge
		h    *Histogram
	}
	samples := make([]sample, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		samples = append(samples, sample{name: name, kind: "counter", c: c})
	}
	for name, g := range r.gauges {
		samples = append(samples, sample{name: name, kind: "gauge", g: g})
	}
	for name, h := range r.hists {
		samples = append(samples, sample{name: name, kind: "summary", h: h})
	}
	r.mu.Unlock()
	sort.Slice(samples, func(i, j int) bool { return samples[i].name < samples[j].name })

	typed := make(map[string]bool)
	for _, s := range samples {
		base := stripLabels(s.name)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, s.kind); err != nil {
				return err
			}
		}
		switch {
		case s.c != nil:
			if _, err := fmt.Fprintf(w, "%s %d\n", s.name, s.c.Value()); err != nil {
				return err
			}
		case s.g != nil:
			if _, err := fmt.Fprintf(w, "%s %d\n", s.name, s.g.Value()); err != nil {
				return err
			}
		default:
			snap := s.h.Snapshot()
			for _, q := range []struct {
				label string
				v     time.Duration
			}{{"0.5", snap.P50()}, {"0.95", snap.P95()}, {"0.99", snap.P99()}} {
				if _, err := fmt.Fprintf(w, "%s %g\n", labeledQuantile(s.name, q.label), q.v.Seconds()); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", suffixedName(s.name, "_count"), snap.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %g\n", suffixedName(s.name, "_sum"), time.Duration(snap.SumNanos).Seconds()); err != nil {
				return err
			}
		}
	}
	return nil
}
