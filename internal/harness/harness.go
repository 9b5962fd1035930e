// Package harness drives benchmark workloads against a GlobalDB cluster:
// client goroutines ("terminals") execute a workload function in a closed
// loop for a fixed duration, and the harness reports throughput and latency
// percentiles — the measurements behind every figure in the paper's
// evaluation (Sec. V). Latencies are recorded in an obs.Histogram, the same
// instrument the metrics registry uses, so a reported percentile is at most
// 12.5 % above the true nearest-rank sample and never below it.
package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"globaldb/internal/obs"
)

// Workload executes one operation for one client. Returning an error counts
// as a failed operation (e.g. an aborted transaction a real client would
// retry).
type Workload func(ctx context.Context, client int) error

// Result summarizes a run.
type Result struct {
	// Name labels the run.
	Name string
	// Ops is the number of successful operations.
	Ops int64
	// Errors counts failed operations.
	Errors int64
	// Elapsed is the measured wall time.
	Elapsed time.Duration
	// Throughput is Ops per second of wall time.
	Throughput float64
	// P50, P95 and P99 are latency percentiles of successful operations.
	P50, P95, P99 time.Duration
	// Mean is the mean latency.
	Mean time.Duration
}

// String renders the result as a report row.
func (r Result) String() string {
	return fmt.Sprintf("%-28s %10.0f op/s  ops=%-8d err=%-6d p50=%-10v p95=%-10v p99=%v",
		r.Name, r.Throughput, r.Ops, r.Errors, r.P50, r.P95, r.P99)
}

// Options configure a run.
type Options struct {
	// Name labels the result.
	Name string
	// Clients is the number of concurrent terminals.
	Clients int
	// Duration is the measured window after warmup.
	Duration time.Duration
	// Warmup runs the workload without measuring, letting caches, RCP and
	// replication settle.
	Warmup time.Duration
}

// Run executes the workload and returns its result.
func Run(ctx context.Context, opts Options, w Workload) Result {
	if opts.Clients <= 0 {
		opts.Clients = 1
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}

	var measuring atomic.Bool
	var stop atomic.Bool
	var ops, errs atomic.Int64
	var hist obs.Histogram

	// Clients observe a stop flag rather than a canceled context: a real
	// terminal finishes its in-flight transaction instead of abandoning a
	// half-committed one, so runs never leak pending or prepared intents.
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				start := time.Now()
				err := w(ctx, c)
				if !measuring.Load() {
					continue
				}
				if err != nil {
					errs.Add(1)
					continue
				}
				ops.Add(1)
				hist.Observe(time.Since(start))
			}
		}(c)
	}

	if opts.Warmup > 0 {
		sleepCtx(ctx, opts.Warmup)
	}
	measuring.Store(true)
	begin := time.Now()
	sleepCtx(ctx, opts.Duration)
	measuring.Store(false)
	elapsed := time.Since(begin)
	stop.Store(true)
	wg.Wait()

	lat := hist.Snapshot()
	r := Result{
		Name:    opts.Name,
		Ops:     ops.Load(),
		Errors:  errs.Load(),
		Elapsed: elapsed,
		P50:     lat.P50(),
		P95:     lat.P95(),
		P99:     lat.P99(),
		Mean:    lat.Mean(),
	}
	if elapsed > 0 {
		r.Throughput = float64(r.Ops) / elapsed.Seconds()
	}
	return r
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Series is a labeled sequence of results (one figure line).
type Series struct {
	Label   string
	Results []Result
}

// Table renders paper-style output: one row per result.
func (s Series) Table() string {
	out := fmt.Sprintf("== %s ==\n", s.Label)
	for _, r := range s.Results {
		out += r.String() + "\n"
	}
	return out
}
