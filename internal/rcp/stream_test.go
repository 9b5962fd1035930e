package rcp

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"globaldb/internal/datanode"
	"globaldb/internal/netsim"
	"globaldb/internal/obs"
	"globaldb/internal/repl"
	"globaldb/internal/ts"
)

// newStreamRig is newRig with the collector's timing chosen by the test. Its
// collector is not started.
func newStreamRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := newRig(t)
	r.col = NewCollector(cfg, datanode.NewClient(r.net, "east"), rigTopology(2),
		func(context.Context) (ts.Timestamp, error) { return ts.Timestamp(r.hbTS.Add(10)), nil })
	return r
}

func rigTopology(shards int) Topology {
	topo := Topology{Primaries: map[int]string{}, Replicas: map[int][]string{}}
	for shard := 0; shard < shards; shard++ {
		topo.Primaries[shard] = pname(shard)
		topo.Replicas[shard] = []string{rname(shard, 0), rname(shard, 1)}
	}
	return topo
}

// manualHeartbeats is collector timing under which nothing happens unless
// the test asks: no heartbeat ticks, and a long poll parks for pollInterval.
func manualHeartbeats(pollInterval time.Duration) Config {
	return Config{PollInterval: pollInterval, HeartbeatInterval: time.Hour, PollTimeout: 2 * time.Second}
}

func (r *rig) replica(id string) *datanode.Replica {
	for _, rep := range r.replicas {
		if rep.ID() == id {
			return rep
		}
	}
	panic("no replica " + id)
}

// heartbeat stamps every primary and returns once every reachable replica of
// the given shards has replayed the stamp.
func (r *rig) heartbeat(t *testing.T, shards ...int) ts.Timestamp {
	t.Helper()
	if err := r.col.HeartbeatOnce(bg); err != nil {
		t.Fatal(err)
	}
	stamp := ts.Timestamp(r.hbTS.Load())
	for _, shard := range shards {
		waitReplay(t, r, shard, stamp)
	}
	return stamp
}

// eventually waits, up to limit, for ok; it reports how long that took.
func eventually(t *testing.T, what string, limit time.Duration, ok func() bool) time.Duration {
	t.Helper()
	start := time.Now()
	for !ok() {
		if time.Since(start) > limit {
			t.Fatalf("%s: not within %v", what, limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(start)
}

// TestReadersNeverWaitForAStatusRoundTrip: RCP and Statuses are what every
// replica read calls first, so neither may queue behind a status RPC that is
// crossing the WAN — the collector publishes under a lock it never holds
// across I/O.
func TestReadersNeverWaitForAStatusRoundTrip(t *testing.T) {
	r := newRig(t)
	r.net.SetLink("east", "west", 4*time.Second, 0) // x0.1: a 400 ms round trip
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	sent := r.net.LinkStats("east", "west").Messages
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		r.col.PollOnce(ctx)
	}()
	eventually(t, "status request on the wire", 5*time.Second, func() bool {
		return r.net.LinkStats("east", "west").Messages > sent
	})
	// The best of a few tries, so that a preempted test goroutine is not
	// mistaken for a blocked reader.
	best := time.Hour
	for i := 0; i < 5; i++ {
		start := time.Now()
		r.col.RCP()
		r.col.Statuses()
		best = min(best, time.Since(start))
	}
	if best > time.Millisecond {
		t.Fatalf("RCP+Statuses took %v with a status RPC in flight", best)
	}
	select {
	case <-polled:
		t.Fatal("the poll finished before the readers ran: nothing was in flight")
	default:
	}
	cancel()
	<-polled
}

// TestWatermarkReachesRCPWithoutWaitingForThePollInterval: a replica answers
// its parked long poll the moment it has replayed something newer, so what
// every replica has applied is the RCP a one-way trip later, however long
// PollInterval is.
func TestWatermarkReachesRCPWithoutWaitingForThePollInterval(t *testing.T) {
	r := newStreamRig(t, manualHeartbeats(time.Second))
	r.col.Start()
	defer r.col.Stop()
	stamp := r.heartbeat(t, 0, 1)
	if took := eventually(t, "applied heartbeat to reach the RCP", 5*time.Second, func() bool {
		return r.col.RCP() >= stamp
	}); took > 50*time.Millisecond {
		t.Fatalf("RCP caught up %v after every replica had applied the heartbeat; PollInterval must not be in that path", took)
	}
	// The watchers are parked again behind the new watermark, and the next
	// heartbeat gets the same treatment.
	stamp = r.heartbeat(t, 0, 1)
	if took := eventually(t, "second heartbeat to reach the RCP", 5*time.Second, func() bool {
		return r.col.RCP() >= stamp
	}); took > 50*time.Millisecond {
		t.Fatalf("second heartbeat: RCP caught up after %v", took)
	}
}

// TestReplicaLostWhileItsPollIsParked: a replica that dies holding a parked
// poll is seen unhealthy once the poll has run out and the next one failed;
// the RCP goes on without it while its shard has another reachable replica,
// holds (and does not regress) when it was the last, and resumes when a
// replica rejoins.
func TestReplicaLostWhileItsPollIsParked(t *testing.T) {
	const pollInterval = 100 * time.Millisecond
	r := newStreamRig(t, manualHeartbeats(pollInterval))
	r.col.Start()
	defer r.col.Stop()

	// Sample the RCP for the whole test: it must never step back, and every
	// replica the collector calls healthy must already have replayed up to
	// it — that is what lets a read at the RCP go to any of them.
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		var last ts.Timestamp
		for {
			select {
			case <-stopSampler:
				return
			default:
			}
			got := r.col.RCP()
			if got < last {
				t.Errorf("RCP regressed from %v to %v", last, got)
				return
			}
			last = got
			for node, st := range r.col.Statuses() {
				if st.Healthy && !st.Primary && st.MaxCommitTS < got {
					t.Errorf("RCP %v is ahead of serving replica %s at %v", got, node, st.MaxCommitTS)
					return
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	defer func() {
		close(stopSampler)
		sampler.Wait()
	}()
	healthy := func(node string) bool { return r.col.Statuses()[node].Healthy }

	first := r.heartbeat(t, 0, 1)
	eventually(t, "first heartbeat to reach the RCP", 5*time.Second, func() bool { return r.col.RCP() == first })
	// Every watcher has re-parked behind `first` by the time its answer is
	// visible as healthy.
	eventually(t, "all replicas reported", 5*time.Second, func() bool {
		return healthy(rname(0, 0)) && healthy(rname(0, 1))
	})

	lost := r.replica(rname(0, 0))
	lost.SetDown(true)
	if took := eventually(t, "lost replica to read unhealthy", 5*time.Second, func() bool {
		return !healthy(lost.ID())
	}); took > 2*pollInterval {
		t.Fatalf("lost replica read healthy for %v, PollInterval is %v", took, pollInterval)
	}
	if got := r.col.Statuses()[lost.ID()].MaxCommitTS; got != first {
		t.Fatalf("lost replica's last watermark = %v, want %v kept", got, first)
	}

	// Shard 0 still has a reachable replica: the RCP moves on.
	second := r.heartbeat(t, 1)
	eventually(t, "RCP to advance past a lost replica", 5*time.Second, func() bool { return r.col.RCP() == second })

	// Its last reachable replica goes too: the RCP holds while shard 1 runs
	// ahead.
	last := r.replica(rname(0, 1))
	last.SetDown(true)
	eventually(t, "last replica to read unhealthy", 5*time.Second, func() bool { return !healthy(last.ID()) })
	third := r.heartbeat(t, 1)
	eventually(t, "shard 1 to report the third heartbeat", 5*time.Second, func() bool {
		st := r.col.Statuses()
		return st[rname(1, 0)].MaxCommitTS == third && st[rname(1, 1)].MaxCommitTS == third
	})
	if got := r.col.RCP(); got != second {
		t.Fatalf("RCP = %v with shard 0 dark, want it pinned at %v", got, second)
	}

	// One of them comes back, catches up, and the RCP with it.
	last.SetDown(false)
	eventually(t, "RCP to resume after the rejoin", 5*time.Second, func() bool { return r.col.RCP() == third })
	if !healthy(last.ID()) || healthy(lost.ID()) {
		t.Fatalf("after the rejoin: %s healthy=%v, %s healthy=%v", last.ID(), healthy(last.ID()), lost.ID(), healthy(lost.ID()))
	}
}

// TestStopCancelsParkedPolls: Stop does not wait out the long polls parked at
// the replicas — with a cluster's worth of watchers (6 shards: 12 replicas
// parked, 6 primaries between polls) and a one-minute PollInterval it returns
// at once and every goroutine Start launched is gone. Start then works again.
func TestStopCancelsParkedPolls(t *testing.T) {
	const shards = 6
	r := newRig(t) // for its network; the extra shards need no shipping
	for shard := 2; shard < shards; shard++ {
		datanode.NewPrimary(r.net, pname(shard), "east", shard, repl.Async, 1)
		for i, region := range []string{"west", "east"} {
			datanode.NewReplica(r.net, rname(shard, i), region, shard)
		}
	}
	topo := rigTopology(shards)
	r.col = NewCollector(manualHeartbeats(time.Minute), datanode.NewClient(r.net, "east"), topo,
		func(context.Context) (ts.Timestamp, error) { return ts.Timestamp(r.hbTS.Add(10)), nil })

	for round := 0; round < 2; round++ {
		baseline := runtime.NumGoroutine()
		r.col.Start()
		// Once every primary has answered, every watcher has sent its first
		// request; the replicas' are parked (their watermark is still zero).
		eventually(t, "primaries to report", 5*time.Second, func() bool {
			n := 0
			for _, st := range r.col.Statuses() {
				if st.Primary && st.Healthy {
					n++
				}
			}
			return n == shards
		})
		if n := runtime.NumGoroutine(); n < baseline+3*shards {
			t.Fatalf("round %d: %d goroutines over a baseline of %d, want a watcher per node", round, n, baseline)
		}
		start := time.Now()
		r.col.Stop()
		if took := time.Since(start); took > time.Second {
			t.Fatalf("round %d: Stop took %v with polls parked for a minute", round, took)
		}
		for _, st := range r.col.Statuses() {
			if !st.Healthy {
				t.Fatalf("round %d: Stop published %s as unhealthy; a cancelled poll says nothing about the node", round, st.Node)
			}
		}
		// Stop has waited for them; the runtime may take a moment to retire
		// the stacks.
		eventually(t, "goroutine count to return to the baseline", 5*time.Second, func() bool {
			return runtime.NumGoroutine() <= baseline
		})
	}
}

// TestCollectorMetrics: what the stream does is readable from the registry —
// how far the RCP trails the heartbeat clock, how far each replica trails its
// primary, and how the long polls were answered.
func TestCollectorMetrics(t *testing.T) {
	counter := func(cause string) int64 {
		return obs.Default.Counter(obs.LabeledName(MetricStatusReplies, "cause", cause)).Value()
	}
	advances, timeouts, failures := counter("advance"), counter("timeout"), counter("error")

	const pollInterval = 20 * time.Millisecond
	r := newStreamRig(t, manualHeartbeats(pollInterval))
	r.col.Start()
	defer r.col.Stop()
	first := r.heartbeat(t, 0, 1)
	eventually(t, "first heartbeat to reach the RCP", 5*time.Second, func() bool { return r.col.RCP() == first })
	if got := counter("advance") - advances; got < 2 {
		t.Fatalf("advance replies = %d after a heartbeat moved the RCP over two shards", got)
	}
	eventually(t, "a long poll to run out", 5*time.Second, func() bool { return counter("timeout") > timeouts })

	// The heartbeat clock is 10 ahead of the RCP when the second stamp is
	// issued: that is the lag a read opening then would have seen.
	second := r.heartbeat(t, 0, 1)
	if got := obs.Default.Gauge(MetricLag).Value(); got != int64(second-first) {
		t.Fatalf("%s = %d, want %d", MetricLag, got, second-first)
	}
	// Once a replica has answered after its primary reported the stamp, it
	// trails by nothing.
	eventually(t, "replay lag to read zero", 5*time.Second, func() bool {
		st := r.col.Statuses()
		if st[pname(0)].MaxCommitTS != second || st[rname(0, 1)].MaxCommitTS != second {
			return false
		}
		return obs.Default.Gauge(obs.LabeledName(MetricReplicaLagTS, "node", rname(0, 1))).Value() == 0 &&
			obs.Default.Gauge(obs.LabeledName(MetricReplicaLagLSN, "node", rname(0, 1))).Value() == 0
	})

	r.replica(rname(1, 0)).SetDown(true)
	eventually(t, "a failed poll to be counted", 5*time.Second, func() bool { return counter("error") > failures })

	lines := r.col.FormatStats()
	if len(lines) != 1+4 || !strings.Contains(lines[0], "advance=") || !strings.Contains(lines[3], rname(1, 0)) || !strings.Contains(lines[3], "healthy=false") {
		t.Fatalf("FormatStats:\n%s", strings.Join(lines, "\n"))
	}
}

// TestPublishTakesTheMinimumOverServingReplicas drives publish with made-up
// answers: the RCP is what every serving replica has replayed, not what each
// shard's freshest has; an unreachable replica stops counting; and one that
// comes back behind the RCP is neither healthy nor a drag on the RCP until it
// has caught up.
func TestPublishTakesTheMinimumOverServingReplicas(t *testing.T) {
	c := NewCollector(DefaultConfig(), nil, rigTopology(2), nil)
	at := func(node string, shard int, watermark ts.Timestamp) {
		c.publish(shard, node, false, datanode.StatusResp{LastCommitTS: watermark}, nil)
	}
	lost := func(node string, shard int) {
		c.publish(shard, node, false, datanode.StatusResp{}, netsim.ErrEndpointDown)
	}
	expect := func(step string, rcp ts.Timestamp, healthy ...string) {
		t.Helper()
		if got := c.RCP(); got != rcp {
			t.Fatalf("%s: RCP = %v, want %v", step, got, rcp)
		}
		want := map[string]bool{}
		for _, node := range healthy {
			want[node] = true
		}
		for node, st := range c.Statuses() {
			if st.Healthy != want[node] {
				t.Fatalf("%s: %s healthy=%v, want %v", step, node, st.Healthy, want[node])
			}
		}
	}
	r00, r01, r10, r11 := rname(0, 0), rname(0, 1), rname(1, 0), rname(1, 1)

	at(r00, 0, 100)
	at(r01, 0, 90)
	expect("shard 1 silent", 0, r00, r01)
	at(r10, 1, 95)
	at(r11, 1, 95)
	expect("slowest serving replica", 90, r00, r01, r10, r11) // the freshest per shard would say 95
	at(r01, 0, 120)
	expect("shard 1 is the slowest", 95, r00, r01, r10, r11)

	lost(r10, 1)
	at(r11, 1, 130)
	expect("an unreachable replica stops counting", 100, r00, r01, r11)
	if got := c.Statuses()[r10].MaxCommitTS; got != 95 {
		t.Fatalf("lost replica's last watermark = %v, want 95 kept", got)
	}
	lost(r11, 1)
	at(r00, 0, 140)
	expect("a shard with no serving replica pins the RCP", 100, r00, r01)

	at(r10, 1, 97) // back, but behind the RCP: replaying what it missed
	expect("catching up", 100, r00, r01)
	at(r10, 1, 110)
	expect("caught up", 110, r00, r01, r10)
}
