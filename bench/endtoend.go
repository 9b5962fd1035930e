package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// setupRepeats: the cluster is opened and loaded this many times and the
	// median time reported, so one slow load does not set setup_s. The first
	// cluster is the one measured.
	setupRepeats = 9
)

// setupTimed opens and loads the workload's cluster once, in its own
// directory, and reports how long that took.
func setupTimed(ctx context.Context, o options, w workload, n int) (env, time.Duration, error) {
	dir := filepath.Join(o.workDir, fmt.Sprintf("setup-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	e, err := w.setup(ctx, dir)
	return e, time.Since(t0), err
}

// extraSetups sets the cluster up o.setupRepeats-1 more times, closing each,
// and returns the median of all set-up times in seconds. It runs after the
// measured cluster is closed, so the measured run never shares the process
// with the remains of another cluster.
func extraSetups(ctx context.Context, o options, w workload, first time.Duration) (float64, error) {
	times := []float64{first.Seconds()}
	for n := 1; n < o.setupRepeats; n++ {
		e, d, err := setupTimed(ctx, o, w, n)
		if err != nil {
			return 0, fmt.Errorf("set-up %d: %w", n, err)
		}
		e.close()
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// warmUp executes the first warmShare of every op list and discards the
// timings. It is a fixed amount of work — about a quarter of what a run
// executes — so what follows starts from the same state on every run, and
// the live heap read at its end has grown by what that many operations
// leave behind, however fast they ran. It returns the cursors to continue
// from.
func warmUp(ctx context.Context, e env) ([]int, phaseResult) {
	cl := e.clients()
	p := &phase{clients: cl, cursor: make([]int, len(cl))}
	warm := make([]int, len(cl))
	for i, c := range cl {
		warm[i] = atLeast(int(float64(c.numOps())*warmShare), 1)
	}
	res := p.run(ctx, func(c, done int, _ time.Duration) bool { return done >= warm[c] })
	return p.cursor, res
}

// liveHeapMB is the heap still reachable after a collection. Read after the
// warm-up, less the reading taken before set-up, it is what the system
// holds — table data, version chains, redo logs and caches — for a fixed
// amount of loaded data and executed work (the warm-up's operation count). The cluster keeps running while it is read — heartbeats
// are shipped, and each compression in flight holds a megabyte of pooled
// compressor state — so it is the smallest of several readings: retained
// memory cannot read lower than it is, and transient buffers are not
// retained. Each reading collects twice, because the first collection only
// moves sync.Pool contents to the victim cache and the second frees them.
func liveHeapMB() float64 {
	const readings = 15
	least := math.Inf(1)
	for i := 0; i < readings; i++ {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		least = math.Min(least, float64(ms.HeapAlloc)/(1<<20))
		time.Sleep(3 * time.Millisecond)
	}
	return least
}

func runEndToEnd(ctx context.Context, o options, w workload) (result, error) {
	// The generated op lists are the harness's, not the system's: what the
	// process holds before a cluster exists is subtracted from the live heap.
	heapBefore := liveHeapMB()
	e, firstSetup, err := setupTimed(ctx, o, w, 0)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	db := e.database()

	cursor, warm := warmUp(ctx, e)
	heap := liveHeapMB() - heapBefore

	span := time.Duration(o.seconds * float64(time.Second))
	p := &phase{clients: e.clients(), cursor: cursor, lag: func() time.Duration { return rcpLag(db) }}
	res := p.run(ctx, func(_, _ int, elapsed time.Duration) bool { return elapsed >= span })

	checkErr := e.check(ctx, p.cursor)
	e.close()
	setupS, err := extraSetups(ctx, o, w, firstSetup)
	if err != nil {
		return result{}, err
	}
	wr, rd := summarize(res.samples, classWrite), summarize(res.samples, classRead)
	if o.strictTail && (wr.tailPc != 95 || rd.tailPc != 95) {
		return result{}, fmt.Errorf("too few samples for a 95th percentile with %d beyond it (%d writes, %d reads): measure for longer",
			minBeyond, wr.n, rd.n)
	}
	m := endToEndMetrics(res, wr, rd, setupS, heap)
	out := outcome(warm, res, checkErr, m)
	fmt.Fprintf(o.report, "workload %s seed %d: %d clients, closed loop, %.1fs measured after %d warm-up ops; set-up x%d\n",
		w.name(), o.seed, numClients, res.wall.Seconds(), len(warm.samples), o.setupRepeats)
	fmt.Fprintf(o.report, "  writes %s\n  reads  %s\n", wr, rd)
	if routed := summarize(res.samples, classRouted); routed.n > 0 {
		fmt.Fprintf(o.report, "  reads placed by replica routing (per-layer ror.routed_read_*, no bound): %s, %.1f/s\n    per second of the run: %v\n",
			routed, float64(routed.n)/res.wall.Seconds(), perSecond(res.samples, classRouted))
	}
	fmt.Fprintf(o.report, "  writes per second of the run: %v\n  reads per second of the run:  %v\n",
		perSecond(res.samples, classWrite), perSecond(res.samples, classRead))
	fmt.Fprintf(o.report, "  tpmC-style %.0f writes/min; failed %d of %d; conflicts %d\n",
		float64(wr.n)/res.wall.Seconds()*60, out.Failed, out.Attempted, res.conflicts+warm.conflicts)
	if checkErr != nil {
		fmt.Fprintf(o.report, "  CHECK FAILED: %v\n", checkErr)
	}
	printMetrics(o.report, "end-to-end metrics (tracing off):", m)
	return out, nil
}

// perSecond counts the successful operations of a class started in each
// second of the phase: printed so that a stall or a reroute that the
// whole-run figures only hint at can be seen.
func perSecond(samples []sample, c class) []int {
	var out []int
	for _, s := range samples {
		if s.class != c || !s.ok {
			continue
		}
		sec := int(s.at / time.Second)
		for len(out) <= sec {
			out = append(out, 0)
		}
		out[sec]++
	}
	return out
}

// endToEndMetrics names the reported metrics of one measured phase; wr and rd
// are its write and read latency summaries. Rates are successful operations
// over the wall time of the whole phase.
func endToEndMetrics(res phaseResult, wr, rd latencySummary, setupS, heapMB float64) map[string]metricValue {
	return map[string]metricValue{
		"setup_s":          {setupS, "s"},
		"write_ops_per_s":  {float64(wr.n) / res.wall.Seconds(), "1/s"},
		"read_ops_per_s":   {float64(rd.n) / res.wall.Seconds(), "1/s"},
		"write_p50_ms":     {wr.p50, "ms"},
		"write_p95_ms":     {wr.tail, "ms"},
		"read_p50_ms":      {rd.p50, "ms"},
		"read_p95_ms":      {rd.tail, "ms"},
		"live_heap_mb":     {heapMB, "MB"},
		"staleness_p50_ms": {median(lagsMs(res.lags)), "ms"},
	}
}

func lagsMs(lags []time.Duration) []float64 {
	out := make([]float64, len(lags))
	for i, l := range lags {
		out[i] = float64(l) / float64(time.Millisecond)
	}
	return out
}
