package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// With --trace 1 the measured time is split between three sources of
// per-layer numbers, all taken from outside the program: the workload run
// with counter readings around it and spans around every call the clients
// make, the layer ladder, and the micro probes.
const (
	layersWorkloadShare = 0.4
	layersLadderShare   = 0.4
	// traceWindow alternates untraced and traced stretches of the workload
	// run; their throughput ratio is the tracing overhead.
	traceWindow = 500 * time.Millisecond
)

func runLayers(ctx context.Context, o options, w workload) (result, error) {
	total := time.Duration(o.seconds * float64(time.Second))
	span := time.Duration(float64(total) * layersWorkloadShare).Round(2 * traceWindow)
	if span < 2*traceWindow {
		span = 2 * traceWindow
	}
	ladderBudget := time.Duration(float64(total) * layersLadderShare)
	microBudget := total - span - ladderBudget
	if microBudget < total/10 {
		microBudget = total / 10
	}

	e, _, err := setupTimed(ctx, o, w, 0)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	db := e.database()
	cursor, warm := warmUp(ctx, e)

	t0 := time.Now()
	tracers := make([]*tracer, numClients)
	for i := range tracers {
		tracers[i] = newTracer(t0)
	}
	p := &phase{clients: e.clients(), cursor: cursor, lag: func() time.Duration { return rcpLag(db) },
		tracers: tracers, traceWindow: traceWindow}
	before := snapCounters(e)
	res := p.run(ctx, func(_, _ int, elapsed time.Duration) bool { return elapsed >= span })
	after := snapCounters(e)
	checkErr := e.check(ctx, p.cursor)
	m := counterMetrics(before, after, res, e, span)
	e.close()

	var traced, untraced float64
	for _, s := range res.samples {
		switch {
		case !s.ok:
		case s.traced:
			traced++
		default:
			untraced++
		}
	}
	// Both kinds of window cover half of the span.
	overhead := 0.0
	if untraced > 0 {
		overhead = 1 - traced/untraced
	}
	m["proc.trace_overhead_share"] = metricValue{overhead, "share"}
	tracePath := filepath.Join(o.outDir, "trace-"+w.name()+".json")
	if err := writeSpans(tracePath, tracers...); err != nil {
		return result{}, err
	}

	ladderTracer := newTracer(time.Now())
	ladder, err := runLadder(ctx, ladderBudget, ladderTracer)
	if err != nil {
		return result{}, err
	}
	ladderPath := filepath.Join(o.outDir, "ladder-spans.json")
	if err := writeSpans(ladderPath, ladderTracer); err != nil {
		return result{}, err
	}
	for name, v := range ladder.metrics() {
		m[name] = v
	}
	micro, err := runMicro(ctx, microBudget, filepath.Join(o.workDir, "micro"))
	if err != nil {
		return result{}, err
	}
	for name, v := range micro {
		m[name] = v
	}

	out := outcome(warm, res, checkErr, m)
	fmt.Fprintf(o.report, "workload %s seed %d, per-layer pass: %.1fs workload (alternating %v untraced/traced windows), %.1fs ladder, %.1fs micro probes\n",
		w.name(), o.seed, res.wall.Seconds(), traceWindow, ladderBudget.Seconds(), microBudget.Seconds())
	fmt.Fprintf(o.report, "  %d ops untraced, %d traced; failed %d; conflicts %d; spans in %s and %s\n",
		int(untraced), int(traced), out.Failed, res.conflicts+warm.conflicts, tracePath, ladderPath)
	if checkErr != nil {
		fmt.Fprintf(o.report, "  CHECK FAILED: %v\n", checkErr)
	}
	ladder.print(o.report)
	printMetrics(o.report, "per-layer metrics:", m)
	return out, nil
}
