package obs

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets pins the log-linear mapping: below 2·subBuckets ns
// every nanosecond has its own bucket; above, each octave [2^e, 2^(e+1))
// splits into subBuckets buckets of width 2^(e-subBits), and bucketMax is
// the last duration of each.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
		max  time.Duration
	}{
		{-5, 0, 0},
		{0, 0, 0},
		{1, 1, 1},
		{7, 7, 7},
		{8, 8, 8},
		{15, 15, 15},
		{16, 16, 17}, // octave [16,32): width 2
		{17, 16, 17},
		{31, 23, 31},                       // last bucket of the octave
		{32, 24, 35},                       // octave [32,64): width 4
		{1000, 63, 1023},                   // 1µs: shift 6, top bits 0b1111
		{time.Millisecond, 143, 1_048_575}, // shift 16, top bits 0b1111
		{time.Second, 222, 1_006_632_959},  // shift 26, top bits 0b1110
		{time.Duration(1<<63 - 1), histBuckets - 1, time.Duration(1<<63 - 1)},
	}
	for _, c := range cases {
		got := bucketFor(c.d)
		if got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.d, got, c.want)
			continue
		}
		if m := bucketMax(got); m != c.max {
			t.Errorf("bucketMax(%d) = %d, want %d", got, m, c.max)
		}
	}
	// Buckets tile the durations: each starts one past the previous max.
	for i := 1; i < histBuckets; i++ {
		lo := bucketMax(i-1) + 1
		if bucketFor(lo) != i || bucketFor(bucketMax(i)) != i {
			t.Fatalf("bucket %d does not cover [%d, %d]", i, lo, bucketMax(i))
		}
		if (bucketMax(i)-lo)*subBuckets >= lo {
			t.Fatalf("bucket %d [%d, %d] wider than 1/%d of its floor", i, lo, bucketMax(i), subBuckets)
		}
	}
}

// nearestRank is the oracle Quantile approximates: the ⌈q·n⌉-th smallest
// sample.
func nearestRank(samples []time.Duration, q float64) time.Duration {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[min(rank, len(sorted))-1]
}

// TestHistogramQuantilesMatchNearestRank checks Quantile against the
// sort-based oracle on random samples spanning 10 ns to 10 s: never below
// the exact nearest-rank sample, at most 12.5 % above it.
func TestHistogramQuantilesMatchNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lo, hi := math.Log(10), math.Log(float64(10*time.Second))
	for trial := 0; trial < 200; trial++ {
		var h Histogram
		samples := make([]time.Duration, 1+rng.Intn(500))
		for i := range samples {
			samples[i] = time.Duration(math.Exp(lo + rng.Float64()*(hi-lo)))
			h.Observe(samples[i])
		}
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
			exact, got := nearestRank(samples, q), s.Quantile(q)
			if got < exact || float64(got) > 1.125*float64(exact) {
				t.Fatalf("trial %d, n=%d: q%v = %v, exact %v", trial, len(samples), q, got, exact)
			}
		}
	}
}

// TestHistogramQuantileRoundsRankUp pins nearest-rank: the rank is
// ⌈q·Count⌉, so a tail sample that is the only one above q still answers q.
func TestHistogramQuantileRoundsRankUp(t *testing.T) {
	within := func(got, want time.Duration) bool {
		return got >= want && float64(got) <= 1.125*float64(want)
	}
	var two Histogram
	two.Observe(time.Millisecond)
	two.Observe(40 * time.Millisecond)
	s := two.Snapshot()
	if !within(s.P95(), 40*time.Millisecond) || !within(s.P99(), 40*time.Millisecond) {
		t.Errorf("{1ms, 40ms}: p95 = %v, p99 = %v, want ≈ 40ms", s.P95(), s.P99())
	}
	var tail Histogram
	for i := 0; i < 19; i++ {
		tail.Observe(time.Millisecond)
	}
	tail.Observe(100 * time.Millisecond)
	s = tail.Snapshot()
	if !within(s.P99(), 100*time.Millisecond) {
		t.Errorf("19×1ms + 100ms: p99 = %v, want ≈ 100ms", s.P99())
	}
	if !within(s.P95(), time.Millisecond) {
		t.Errorf("19×1ms + 100ms: p95 = %v, want ≈ 1ms", s.P95())
	}
}

// TestHistogramQuantiles checks quantiles resolve to the last duration of
// the bucket holding the nearest-rank sample, and that an empty snapshot
// reports zeros.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.P50() != 0 || s.Mean() != 0 {
		t.Fatalf("empty histogram: p50 = %v, mean = %v", s.P50(), s.Mean())
	}
	// 90 fast samples (1µs), 9 medium (1ms), 1 slow (1s).
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Second)

	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, bucketMax(bucketFor(time.Microsecond))},
		{0.95, bucketMax(bucketFor(time.Millisecond))},
		{0.99, bucketMax(bucketFor(time.Millisecond))}, // rank 99: the last 1ms sample
		{1.00, bucketMax(bucketFor(time.Second))},
	} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("q%v = %v, want %v", c.q, got, c.want)
		}
	}
	if want := (90*time.Microsecond + 9*time.Millisecond + time.Second) / 100; s.Mean() != want {
		t.Errorf("mean = %v, want %v", s.Mean(), want)
	}
}

// TestHistogramObserveAllocFree keeps Observe fit for per-statement paths.
func TestHistogramObserveAllocFree(t *testing.T) {
	var h Histogram
	d := time.Duration(1)
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(d)
		d = d*3 + 7
	}); n != 0 {
		t.Fatalf("Observe allocates %v times per call", n)
	}
}

// TestHistSnapshotAddAssociative mirrors the ScanSnapshot.Add contract:
// merging per-source snapshots must be associative and commutative, so
// per-shard or per-server histograms can be folded in any grouping.
func TestHistSnapshotAddAssociative(t *testing.T) {
	mk := func(ds ...time.Duration) HistSnapshot {
		var h Histogram
		for _, d := range ds {
			h.Observe(d)
		}
		return h.Snapshot()
	}
	a := mk(time.Microsecond, 3*time.Microsecond)
	b := mk(time.Millisecond)
	c := mk(50*time.Millisecond, 2*time.Second, 7)

	left := a.Add(b).Add(c)
	right := a.Add(b.Add(c))
	if left != right {
		t.Fatalf("Add not associative:\n(a+b)+c = %+v\na+(b+c) = %+v", left, right)
	}
	if ab, ba := a.Add(b), b.Add(a); ab != ba {
		t.Fatalf("Add not commutative: %+v vs %+v", ab, ba)
	}
	if left.Count != 6 {
		t.Fatalf("merged count = %d, want 6", left.Count)
	}
	var zero HistSnapshot
	if a.Add(zero) != a {
		t.Fatalf("zero snapshot is not the identity")
	}
}

// TestHistogramConcurrent hammers Observe against Snapshot from many
// goroutines; run under -race this proves the histogram needs no lock.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const writers = 8
	const perWriter = 5000
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Concurrent snapshot readers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				var inBuckets int64
				for _, n := range s.Buckets {
					inBuckets += n
				}
				// Bucket totals may run ahead of or behind the count
				// field mid-update, but never go negative.
				if inBuckets < 0 || s.Count < 0 {
					t.Error("negative snapshot")
					return
				}
				_ = s.P99()
			}
		}()
	}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				h.Observe(time.Duration((seed+1)*(j+1)) * time.Nanosecond)
			}
		}(i)
	}
	// Wait for writers (the first writers goroutines started after the
	// readers); then stop readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Poll until all writes are visible, then stop the readers.
		deadline := time.Now().Add(10 * time.Second)
		for h.count.Load() < writers*perWriter && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	wg.Wait()

	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("final count = %d, want %d", s.Count, writers*perWriter)
	}
	var inBuckets int64
	for _, n := range s.Buckets {
		inBuckets += n
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket total = %d, count = %d", inBuckets, s.Count)
	}
}

// TestRegistryGetOrCreate checks instruments are shared by name and
// registry access is safe under concurrency.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same-name counters not shared")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same-name gauges not shared")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same-name histograms not shared")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("shared").Inc()
				r.Histogram("lat").Observe(time.Microsecond)
				r.Gauge("inflight").Add(1)
				r.Gauge("inflight").Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 1600 {
		t.Fatalf("shared counter = %d, want 1600", got)
	}
	if got := r.Gauge("inflight").Value(); got != 0 {
		t.Fatalf("inflight gauge = %d, want 0", got)
	}
	snaps := r.Histograms()
	if snaps["lat"].Count != 1600 {
		t.Fatalf("lat histogram count = %d, want 1600", snaps["lat"].Count)
	}
}

// TestWriteProm pins the exposition format: TYPE headers, quantile
// labels (merged into existing label sets), _count/_sum, sorted output.
func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("rows_total").Add(42)
	r.Gauge("inflight").Set(3)
	r.Histogram(LabeledName("stmt_latency_seconds", "type", "select")).Observe(2 * time.Millisecond)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE inflight gauge\n",
		"inflight 3\n",
		"# TYPE rows_total counter\n",
		"rows_total 42\n",
		"# TYPE stmt_latency_seconds summary\n",
		`stmt_latency_seconds{type="select",quantile="0.5"}`,
		`stmt_latency_seconds{type="select",quantile="0.99"}`,
		`stmt_latency_seconds_count{type="select"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSpanNilSafety proves every Span/Trace method is a no-op on nil —
// the property that makes tracing free when disabled.
func TestSpanNilSafety(t *testing.T) {
	var tr *Trace
	var sp *Span
	if tr.Root() != nil {
		t.Fatal("nil trace root")
	}
	if tr.Render() != nil {
		t.Fatal("nil trace render")
	}
	if sp.Child("x") != nil {
		t.Fatal("nil span child")
	}
	sp.Tag("shard=%d", 1)
	sp.AddDNExec(time.Second)
	sp.End()
	if sp.Duration() != 0 {
		t.Fatal("nil span duration")
	}
	ctx := WithSpan(context.Background(), nil)
	if SpanFrom(ctx) != nil {
		t.Fatal("nil span round-tripped through context")
	}
}

// TestTraceTree builds a small span tree (with concurrent children, as
// the shard fan-out does) and checks the rendered shape.
func TestTraceTree(t *testing.T) {
	tr := NewTrace("execute")
	root := tr.Root()
	ctx := WithSpan(context.Background(), root)
	if SpanFrom(ctx) != root {
		t.Fatal("span did not round-trip through context")
	}

	plan := root.Child("plan")
	plan.End()
	var wg sync.WaitGroup
	for shard := 0; shard < 3; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			rpc := SpanFrom(ctx).Child("scan-page")
			rpc.Tag("shard=%d node=dn%d@region-a", shard, shard)
			rpc.AddDNExec(time.Millisecond)
			rpc.End()
		}(shard)
	}
	wg.Wait()
	root.End()

	lines := tr.Render()
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if !strings.HasPrefix(lines[0], "execute") {
		t.Fatalf("root line = %q", lines[0])
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"  plan", "scan-page [shard=1 node=dn1@region-a]", "dn-exec"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("render missing %q:\n%s", want, joined)
		}
	}
	// Ended spans freeze their duration.
	d := root.Duration()
	time.Sleep(2 * time.Millisecond)
	if root.Duration() != d {
		t.Fatal("ended span duration drifted")
	}
}
