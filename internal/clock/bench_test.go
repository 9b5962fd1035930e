package clock

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkWaitUntilAfterBesideWork runs two goroutines that loop on GClock
// waits of about 2·Terr ≈ 120 µs (b.N waits in all) beside two goroutines
// doing fixed units of CPU work, and reports how much work the siblings got
// done per second of the waits (work/s) and the mean wait (us/wait). A wait
// that churns the scheduler shows as less sibling work.
func BenchmarkWaitUntilAfterBesideWork(b *testing.B) {
	dev := NewDevice("r", Real())
	n := NewNode(DefaultNodeConfig(), Real(), dev)
	stop := n.Start() // keeps Terr near Tsync, so every wait spins
	defer stop()
	ctx := context.Background()

	// The siblings pass one token back and forth, a unit of work per hop,
	// like a request and its reply: each hop readies the other sibling, as
	// a network reply readies its reader.
	var units atomic.Int64
	quit := make(chan struct{})
	token := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var workers sync.WaitGroup
	for w := range 2 {
		workers.Add(1)
		go func() {
			defer workers.Done()
			x := uint64(w + 1)
			defer func() { sink.Add(x) }()
			for {
				select {
				case <-token[w]:
				case <-quit:
					return
				}
				for range 2000 { // one unit of work: a xorshift run
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				units.Add(1)
				select {
				case token[1-w] <- struct{}{}:
				case <-quit:
					return
				}
			}
		}()
	}
	token[0] <- struct{}{}

	var waited atomic.Int64
	var waiters sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for w := range 2 {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			for i := w; i < b.N; i += 2 {
				t0 := time.Now()
				if err := n.WaitUntilAfter(ctx, n.Now().Upper()); err != nil {
					b.Error(err)
					return
				}
				waited.Add(int64(time.Since(t0)))
			}
		}()
	}
	waiters.Wait()
	elapsed := time.Since(start)
	done := units.Load()
	b.StopTimer()
	close(quit)
	workers.Wait()

	b.ReportMetric(float64(done)/elapsed.Seconds(), "work/s")
	b.ReportMetric(float64(waited.Load())/float64(b.N)/1e3, "us/wait")
}

// sink keeps the work loop from being optimised away.
var sink atomic.Uint64
