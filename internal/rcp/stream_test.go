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
		func(context.Context) (ts.Timestamp, error) { return ts.Timestamp(r.hbTS.Add(10)), nil }, 0)
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

// manualHeartbeats is collector timing under which no heartbeat ticks unless
// the test asks, and no node is probed after its first probe.
func manualHeartbeats() Config {
	return Config{HeartbeatInterval: time.Hour, PollTimeout: 2 * time.Second}
}

// shortHeartbeats is collector timing with a real heartbeat every interval,
// and so a probe of every node silent for two intervals.
func shortHeartbeats(interval time.Duration) Config {
	return Config{HeartbeatInterval: interval, PollTimeout: 2 * time.Second}
}

// replies reads the process-wide count of what collectors heard by cause.
func replies(cause string) int64 {
	return obs.Default.Counter(obs.LabeledName(MetricStatusReplies, "cause", cause)).Value()
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

// probed waits until all n nodes of col's topology read healthy in an
// answer to a probe sent since since (or in a push since then).
func probed(t *testing.T, col *Collector, since time.Time, n int) {
	t.Helper()
	eventually(t, "every node to answer a probe", 5*time.Second, func() bool {
		answered := 0
		for _, st := range col.Statuses() {
			if st.Healthy && st.PolledAt.After(since) {
				answered++
			}
		}
		return answered == n
	})
}

// TestPushedWatermarkReachesRCPWithoutAProbe: a replica pushes the watermark
// it has just applied, so what every replica has applied is the RCP a
// one-way trip later, and no probe is sent for it.
func TestPushedWatermarkReachesRCPWithoutAProbe(t *testing.T) {
	r := newStreamRig(t, manualHeartbeats())
	start := time.Now()
	r.col.Start()
	defer r.col.Stop()
	probed(t, r.col, start, 6)
	probes, pushes := replies("timeout"), replies("advance")
	for i := 0; i < 2; i++ {
		stamp := r.heartbeat(t, 0, 1)
		if took := eventually(t, "applied heartbeat to reach the RCP", 5*time.Second, func() bool {
			return r.col.RCP() >= stamp
		}); took > 50*time.Millisecond {
			t.Fatalf("heartbeat %d: RCP caught up %v after every replica had applied it; no probe may be in that path", i, took)
		}
	}
	if got := replies("timeout") - probes; got != 0 || replies("advance")-pushes != 8 {
		t.Fatalf("%d probes and %d pushes for two heartbeats over four replicas, want none and 8", got, replies("advance")-pushes)
	}
}

// TestReplicaLostBetweenPushes, with real heartbeats: a replica that dies
// pushes nothing more, and is seen unhealthy once it has been silent for two
// heartbeat periods and the probe that follows failed. Meanwhile the RCP
// goes on over the other replicas, which push every heartbeat and so are
// never probed. It holds (and does not regress) when the shard's last
// replica goes too, and resumes when a replica rejoins.
//
// Besides the collector's own ticks, the test stamps the primaries by hand
// ten times per period. A live replica pushes every stamp, so it stays
// silent for two periods only if its pushes stop, not when the host delays
// two ticks of the collector's timer.
func TestReplicaLostBetweenPushes(t *testing.T) {
	const heartbeat = 20 * time.Millisecond
	r := newStreamRig(t, shortHeartbeats(heartbeat))
	firstProbes := replies("timeout")
	r.col.Start()
	defer r.col.Stop()
	stopBeats := make(chan struct{})
	var beats sync.WaitGroup
	beats.Add(1)
	go func() {
		defer beats.Done()
		for {
			select {
			case <-stopBeats:
				return
			case <-time.After(heartbeat / 10):
			}
			_ = r.col.HeartbeatOnce(bg)
		}
	}()
	defer func() {
		close(stopBeats)
		beats.Wait()
	}()

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
	watermark := func(node string) ts.Timestamp { return r.col.Statuses()[node].MaxCommitTS }

	eventually(t, "every replica to serve at a moving RCP after its first probe", 5*time.Second, func() bool {
		return replies("timeout")-firstProbes >= 4 && r.col.RCP() > 0 && healthy(rname(0, 0)) && healthy(rname(0, 1)) &&
			healthy(rname(1, 0)) && healthy(rname(1, 1))
	})

	lost := r.replica(rname(0, 0))
	probes := replies("timeout")
	lost.SetDown(true)
	heard := watermark(lost.ID())
	// Two silent periods, then one probe: a round trip of a few ms here, and
	// as much again for a late timer.
	if took := eventually(t, "lost replica to read unhealthy", 5*time.Second, func() bool {
		return !healthy(lost.ID())
	}); took > silentHeartbeats*heartbeat+20*time.Millisecond {
		t.Fatalf("lost replica read healthy for %v, heartbeat every %v", took, heartbeat)
	}
	if got := watermark(lost.ID()); got < heard || got > lost.Applier().MaxCommitTS() {
		t.Fatalf("lost replica's last watermark = %v, want the last one heard (%v or later) kept", got, heard)
	}

	// Shard 0 still has a reachable replica: the RCP moves on.
	eventually(t, "RCP to advance past a lost replica", 5*time.Second, func() bool {
		return r.col.RCP() > watermark(lost.ID())
	})
	if n := replies("timeout") - probes; n != 0 {
		t.Fatalf("%d live replicas probed while each pushed every heartbeat", n)
	}

	// Its last reachable replica goes too: the RCP holds while shard 1 runs
	// ahead.
	last := r.replica(rname(0, 1))
	last.SetDown(true)
	eventually(t, "last replica to read unhealthy", 5*time.Second, func() bool { return !healthy(last.ID()) })
	pinned := r.col.RCP()
	ahead := max(watermark(rname(1, 0)), watermark(rname(1, 1)))
	eventually(t, "shard 1 to run ahead", 5*time.Second, func() bool {
		return watermark(rname(1, 0)) > ahead && watermark(rname(1, 1)) > ahead
	})
	if got := r.col.RCP(); got != pinned {
		t.Fatalf("RCP = %v with shard 0 dark, want it pinned at %v", got, pinned)
	}

	// One of them comes back, catches up, and the RCP with it.
	last.SetDown(false)
	eventually(t, "RCP to resume after the rejoin", 5*time.Second, func() bool { return r.col.RCP() > ahead })
	if !healthy(last.ID()) || healthy(lost.ID()) {
		t.Fatalf("after the rejoin: %s healthy=%v, %s healthy=%v", last.ID(), healthy(last.ID()), lost.ID(), healthy(lost.ID()))
	}
}

// TestStopEndsWatchersAndDropsPushes: Stop does not wait for anything —
// with a cluster's worth of watchers (6 shards: 12 replicas and 6 primaries
// between probes) and heartbeats an hour apart it returns at once and every
// goroutine Start launched is gone — and a push that lands after it is not
// published. Start then works again and takes pushes again.
func TestStopEndsWatchersAndDropsPushes(t *testing.T) {
	const shards = 6
	r := newRig(t) // for its network; the extra shards need no shipping
	for shard := 2; shard < shards; shard++ {
		datanode.NewPrimary(r.net, pname(shard), "east", shard, repl.Async, 1)
		for i, region := range []string{"west", "east"} {
			datanode.NewReplica(r.net, rname(shard, i), region, shard)
		}
	}
	topo := rigTopology(shards)
	r.col = NewCollector(manualHeartbeats(), datanode.NewClient(r.net, "east"), topo,
		func(context.Context) (ts.Timestamp, error) { return ts.Timestamp(r.hbTS.Add(10)), nil }, 0)

	for round := 0; round < 2; round++ {
		baseline := runtime.NumGoroutine()
		start := time.Now()
		r.col.Start()
		probed(t, r.col, start, 3*shards)
		if n := runtime.NumGoroutine(); n < baseline+3*shards {
			t.Fatalf("round %d: %d goroutines over a baseline of %d, want a watcher per node", round, n, baseline)
		}
		stamp := r.heartbeat(t, 0)
		eventually(t, "a push to be published", 5*time.Second, func() bool {
			return r.col.Statuses()[rname(0, 0)].MaxCommitTS == stamp
		})
		start = time.Now()
		r.col.Stop()
		if took := time.Since(start); took > time.Second {
			t.Fatalf("round %d: Stop took %v with every watcher waiting out an hour", round, took)
		}
		for _, st := range r.col.Statuses() {
			if !st.Healthy {
				t.Fatalf("round %d: Stop published %s as unhealthy; a cancelled probe says nothing about the node", round, st.Node)
			}
		}
		stopped := r.heartbeat(t, 0) // every replica of shard 0 pushes it
		time.Sleep(20 * time.Millisecond)
		if got := r.col.Statuses()[rname(0, 0)].MaxCommitTS; got != stamp {
			t.Fatalf("round %d: a stopped collector published %v, pushed after Stop (last before: %v)", round, stopped, got)
		}
		// Stop has waited for them; the runtime may take a moment to retire
		// the stacks.
		eventually(t, "goroutine count to return to the baseline", 5*time.Second, func() bool {
			return runtime.NumGoroutine() <= baseline
		})
	}
}

// TestCollectorMetrics, with real heartbeats: what the stream does is
// readable from the registry — how far the RCP trails the collector's clock,
// how far each replica trails its primary, and what the replicas were heard
// saying: pushes, answers to probes, failed probes.
func TestCollectorMetrics(t *testing.T) {
	advances, timeouts, failures := replies("advance"), replies("timeout"), replies("error")

	r := newStreamRig(t, shortHeartbeats(10*time.Millisecond))
	start := time.Now()
	r.col.Start()
	defer r.col.Stop()
	probed(t, r.col, start, 6)
	if replies("timeout") <= timeouts {
		t.Fatal("the first probes' answers were not counted")
	}
	raised := r.col.RCP()
	eventually(t, "heartbeats to raise the RCP", 5*time.Second, func() bool { return r.col.RCP() > raised })
	if got := replies("advance") - advances; got < 2 {
		t.Fatalf("advance replies = %d after heartbeats moved the RCP over two shards", got)
	}

	// The gauge is set from the collector's wall clock. (This rig's
	// timestamps are small counters, so it reads about the wall clock's
	// epoch nanoseconds.)
	want := int64(ts.FromTime(time.Now()) - r.col.RCP())
	if got := obs.Default.Gauge(MetricLag).Value(); got < want-int64(time.Second) || got > want+int64(time.Second) {
		t.Fatalf("%s = %d, want the wall clock minus the RCP, about %d", MetricLag, got, want)
	}
	// Once a replica has pushed after its primary was heard from, it trails
	// by nothing.
	eventually(t, "replay lag to read zero", 5*time.Second, func() bool {
		return r.col.Statuses()[pname(0)].MaxCommitTS > raised &&
			obs.Default.Gauge(obs.LabeledName(MetricReplicaLagTS, "node", rname(0, 1))).Value() == 0 &&
			obs.Default.Gauge(obs.LabeledName(MetricReplicaLagLSN, "node", rname(0, 1))).Value() == 0
	})

	r.replica(rname(1, 0)).SetDown(true)
	eventually(t, "a failed probe to be counted", 5*time.Second, func() bool { return replies("error") > failures })

	lines := r.col.FormatStats()
	if len(lines) != 1+4 || !strings.Contains(lines[0], "advance=") || !strings.Contains(lines[3], rname(1, 0)) || !strings.Contains(lines[3], "healthy=false") {
		t.Fatalf("FormatStats:\n%s", strings.Join(lines, "\n"))
	}
}

// TestPublishTakesTheMinimumOverServingReplicas drives publish with made-up
// answers: the RCP is what every serving replica has replayed, not what each
// shard's freshest has; an unreachable replica stops counting; an answer
// older than the one stored lowers nothing; and one that comes back behind
// the RCP is neither healthy nor a drag on the RCP until it has caught up.
func TestPublishTakesTheMinimumOverServingReplicas(t *testing.T) {
	c := NewCollector(DefaultConfig(), nil, rigTopology(2), nil, 0)
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
	at(r00, 0, 99) // a probe's answer, overtaken on the wire by the push of 140
	expect("an overtaken answer", 100, r00, r01)
	if got := c.Statuses()[r00].MaxCommitTS; got != 140 {
		t.Fatalf("an overtaken answer lowered the watermark to %v", got)
	}

	at(r10, 1, 97) // back, but behind the RCP: replaying what it missed
	expect("catching up", 100, r00, r01)
	at(r10, 1, 110)
	expect("caught up", 110, r00, r01, r10)
}
