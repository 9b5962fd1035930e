package main

import (
	"context"
	"errors"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"globaldb/internal/storage/mvcc"
)

// class splits operations the way a user of the system would: statements
// that only read, and transactions or statements that write.
type class uint8

const (
	classRead class = iota
	classWrite
	// classRouted is fresh_reads_geo's reader: reads under a staleness bound
	// that the replica-routing tracker places. At the default settings they
	// flip between the local replica and one in another city for seconds at
	// a time (README, "Found while building this"), so no bound can hold
	// them; they are checked and counted like every operation but reported
	// per layer (ror.routed_read_*), not among the end-to-end read metrics.
	classRouted
)

var classes = []class{classWrite, classRead, classRouted}

// sample is one executed operation.
type sample struct {
	at    time.Duration // start, since the phase began
	dur   time.Duration
	class class
	ok    bool
	// traced marks operations executed with span recording on.
	traced bool
}

// client is one closed-loop caller: it owns a pre-generated op list and
// sends its next operation only after the previous reply. do executes
// operation i of the list; stmt identifies the operation in spans.
type client interface {
	numOps() int
	do(ctx context.Context, i int, tr *tracer, stmt int64) (class, error)
}

// phase is one stretch of load: every client runs operations from its
// cursor until stop says so.
type phase struct {
	clients []client
	cursor  []int // next op index per client; advanced by run
	// lag, when set, is sampled every lagSampleEvery while the phase runs,
	// on its own goroutine: reading the RCP can block behind a collector
	// poll, and that wait must not be charged to a client.
	lag func() time.Duration
	// tracers, when set, record spans during the windows traced selects.
	tracers []*tracer
	// traceWindow > 0 alternates untraced and traced windows of this length,
	// starting untraced, so both see the same cluster state and drift.
	traceWindow time.Duration
}

// lagSampleEvery is the period of the RCP-lag sampler.
const lagSampleEvery = 2 * time.Millisecond

type phaseResult struct {
	samples    []sample
	lags       []time.Duration // RCP lag readings taken during the phase
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCPU      time.Duration
	conflicts  int
	goroutines int // live when the phase ended: the cluster's own
}

// gcCPUTime is the runtime's estimate of CPU spent in garbage collection
// since the process started.
func gcCPUTime() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run drives the phase. stop is asked before every operation with the
// client, the number of operations it has finished in this phase and the
// time since the phase began.
func (p *phase) run(ctx context.Context, stop func(client, done int, elapsed time.Duration) bool) phaseResult {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, gc0 := cpuTime(), gcCPUTime()
	t0 := time.Now()

	per := make([][]sample, len(p.clients))
	conflicts := make([]int, len(p.clients))
	var wg sync.WaitGroup
	for c := range p.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := p.clients[c]
			n := cl.numOps()
			for done := 0; ; done++ {
				start := time.Since(t0)
				if stop(c, done, start) {
					return
				}
				var tr *tracer
				if p.tracers != nil && (p.traceWindow <= 0 || int(start/p.traceWindow)%2 == 1) {
					tr = p.tracers[c]
				}
				i := p.cursor[c] % n
				cls, err := cl.do(ctx, i, tr, int64(c)<<32|int64(p.cursor[c]))
				p.cursor[c]++
				s := sample{at: start, dur: time.Since(t0) - start, class: cls, ok: err == nil, traced: tr != nil}
				if errors.Is(err, mvcc.ErrWriteConflict) {
					conflicts[c]++
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	var lags []time.Duration
	stopLag, lagDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(lagDone)
		if p.lag == nil {
			return
		}
		tick := time.NewTicker(lagSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-tick.C:
				lags = append(lags, p.lag())
			}
		}
	}()
	wg.Wait()
	close(stopLag)
	<-lagDone

	res := phaseResult{lags: lags, wall: time.Since(t0), cpu: cpuTime() - cpu0, goroutines: runtime.NumGoroutine()}
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.gcCPU = gcCPUTime() - gc0
	for c := range per {
		res.samples = append(res.samples, per[c]...)
		res.conflicts += conflicts[c]
	}
	return res
}

// outcome assembles a run's result from its warm-up and measured phases:
// operations attempted while measuring, operations failed in either phase,
// and whether every check held and no write-write conflict occurred.
func outcome(warm, res phaseResult, checkErr error, m map[string]metricValue) result {
	out := result{Correct: checkErr == nil && res.conflicts+warm.conflicts == 0, Metrics: m}
	for _, c := range classes {
		ok, failed := res.count(c)
		_, warmFailed := warm.count(c)
		out.Attempted += ok + failed
		out.Failed += failed + warmFailed
	}
	return out
}

// count returns how many samples of a class succeeded and failed.
func (r phaseResult) count(c class) (ok, failed int) {
	for _, s := range r.samples {
		if s.class != c {
			continue
		}
		if s.ok {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}
