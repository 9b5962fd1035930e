package rcp

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"globaldb/internal/clock"
	"globaldb/internal/datanode"
	"globaldb/internal/netsim"
	"globaldb/internal/obs"
	"globaldb/internal/repl"
	"globaldb/internal/ts"
	"globaldb/internal/tso"
)

// cities are the paper's three regions; the collector sits in collectorRegion,
// a region of its own beside Langzhong, so that every message on a link to or
// from it is status or heartbeat traffic and nothing else.
var cities = []string{"xian", "langzhong", "dongguan"}

const collectorRegion = "cn"

// cityRig is the three-city cluster's RCP pipeline: shard i has its primary
// in cities[i], under a GClock oracle over the real clock, and a replica in
// each of the other two cities, shipped to with the default shipper.
type cityRig struct {
	net       *netsim.Network
	primaries []*datanode.Primary
	oracles   []*tso.Oracle
	replicas  []*datanode.Replica
	col       *Collector
	gtmCalls  atomic.Int64
}

func newCityRig(t *testing.T, cfg Config) *cityRig {
	t.Helper()
	n := netsim.New(netsim.Config{TimeScale: 0.1})
	n.SetLink("xian", "langzhong", 25*time.Millisecond, 0)
	n.SetLink("langzhong", "dongguan", 35*time.Millisecond, 0)
	n.SetLink("xian", "dongguan", 55*time.Millisecond, 0)
	n.SetLink(collectorRegion, "langzhong", 0, 0)
	n.SetLink(collectorRegion, "xian", 25*time.Millisecond, 0)
	n.SetLink(collectorRegion, "dongguan", 35*time.Millisecond, 0)
	r := &cityRig{net: n}
	topo := Topology{Primaries: map[int]string{}, Replicas: map[int][]string{}}
	for shard, city := range cities {
		p := datanode.NewPrimary(n, pname(shard), city, shard, repl.Async, 1)
		o := tso.New(p.ID(), clock.NewNode(clock.DefaultNodeConfig(), clock.Real(), clock.NewDevice(city, clock.Real())), nil)
		o.SetMode(ts.ModeGClock)
		p.SetOracle(o)
		r.primaries, r.oracles = append(r.primaries, p), append(r.oracles, o)
		topo.Primaries[shard] = p.ID()
		i := 0
		for _, other := range cities {
			if other == city {
				continue
			}
			rep := datanode.NewReplica(n, rname(shard, i), other, shard)
			i++
			r.replicas = append(r.replicas, rep)
			topo.Replicas[shard] = append(topo.Replicas[shard], rep.ID())
			sh := repl.NewShipper(repl.DefaultShipperConfig(), n, city, datanode.ReplEndpointName(rep.ID()), p.Log(), p.Repl().AckHook())
			p.Repl().AddShipper(sh)
			sh.Start()
			t.Cleanup(sh.Stop)
		}
	}
	// The GTM stand-in: a timestamp past every clock reading.
	tsp := func(context.Context) (ts.Timestamp, error) {
		r.gtmCalls.Add(1)
		return ts.FromTime(time.Now().Add(time.Second)), nil
	}
	topo.Stamp = func(shard int) bool {
		_, ok := r.primaries[shard].StampHeartbeat()
		return ok
	}
	r.col = NewCollector(cfg, datanode.NewClient(n, collectorRegion), topo, tsp, 0)
	return r
}

// start starts the collector and returns once every node has answered its
// first probe, which subscribes every replica.
func (r *cityRig) start(t *testing.T) {
	t.Helper()
	since := time.Now()
	r.col.Start()
	t.Cleanup(r.col.Stop)
	probed(t, r.col, since, len(r.primaries)+len(r.replicas))
}

// statusTraffic is what has crossed the collector's links so far: messages
// from it to the cities and from the cities to it.
func (r *cityRig) statusTraffic() (out, in int64) {
	for _, city := range cities {
		out += r.net.LinkStats(collectorRegion, city).Messages
		in += r.net.LinkStats(city, collectorRegion).Messages
	}
	return out, in
}

// tick runs one heartbeat and returns once the RCP covers the stamp of every
// primary, i.e. once every replica has applied its shard's stamp and been
// heard reporting it.
func (r *cityRig) tick(t *testing.T) {
	t.Helper()
	if err := r.col.HeartbeatOnce(bg); err != nil {
		t.Fatal(err)
	}
	var want ts.Timestamp = ts.Max
	for _, p := range r.primaries {
		want = min(want, p.Store().LastCommitTS())
	}
	eventually(t, "the tick's stamps to reach the RCP", 5*time.Second, func() bool { return r.col.RCP() >= want })
}

// TestGClockTickSendsNothingToPrimaries: under GClock a tick costs no message
// at all — each primary stamps its own log from its own clock, and the GTM is
// never asked — and the RCP still rises with every tick. Under GTM a primary
// has no timestamps of its own, so the tick fetches one and sends it to each
// primary in a HeartbeatReq.
func TestGClockTickSendsNothingToPrimaries(t *testing.T) {
	r := newCityRig(t, manualHeartbeats(time.Hour))
	r.start(t)
	out, _ := r.statusTraffic()
	before := r.col.RCP()
	for i := 0; i < 10; i++ {
		r.tick(t)
	}
	if got, _ := r.statusTraffic(); got != out || r.gtmCalls.Load() != 0 {
		t.Fatalf("10 GClock ticks put %d messages on the collector's outgoing links and asked the GTM %d times, want none",
			got-out, r.gtmCalls.Load())
	}
	if r.col.RCP() <= before {
		t.Fatal("the RCP did not rise")
	}

	for _, o := range r.oracles {
		o.SetMode(ts.ModeGTM)
	}
	r.tick(t)
	if got, _ := r.statusTraffic(); got != out+int64(len(r.primaries)) || r.gtmCalls.Load() != 1 {
		t.Fatalf("a GTM tick put %d messages on the collector's outgoing links with %d GTM fetches, want one HeartbeatReq per primary and one fetch",
			got-out, r.gtmCalls.Load())
	}
}

// TestIdleTicksCostOnePushPerReplica: every replica advance is exactly one
// message, replica to collector, and nothing goes the other way — over N idle
// ticks the status traffic in both directions is one message per replica per
// tick. The long poll it replaces cost two per replica per tick in this rig
// (the answer and the request re-arming it), so this is half.
func TestIdleTicksCostOnePushPerReplica(t *testing.T) {
	const ticks = 20
	r := newCityRig(t, manualHeartbeats(time.Hour))
	r.start(t)
	out, in := r.statusTraffic()
	pushes := obs.Default.Counter(obs.LabeledName(MetricStatusReplies, "cause", "advance")).Value()
	for i := 0; i < ticks; i++ {
		r.tick(t)
	}
	gotOut, gotIn := r.statusTraffic()
	if want := int64(ticks * len(r.replicas)); gotIn-in != want || gotOut != out {
		t.Fatalf("%d idle ticks: %d messages to the collector and %d from it, want %d (one per replica per tick) and 0",
			ticks, gotIn-in, gotOut-out, want)
	}
	if got := obs.Default.Counter(obs.LabeledName(MetricStatusReplies, "cause", "advance")).Value() - pushes; got != int64(ticks*len(r.replicas)) {
		t.Fatalf("%d pushes counted, want %d", got, ticks*len(r.replicas))
	}
}

// TestLagGaugeMovesOnIdleRig: with the collector running as a cluster runs
// it — a tick every HeartbeatInterval, nothing else happening — rcp_lag_ns
// follows the RCP: it is set at every raise, from the collector's clock, to
// a few WAN trips' worth of staleness, and keeps changing.
func TestLagGaugeMovesOnIdleRig(t *testing.T) {
	r := newCityRig(t, DefaultConfig())
	r.start(t)
	eventually(t, "a first RCP raise", 5*time.Second, func() bool { return r.col.RCP() > 0 })
	gauge := obs.Default.Gauge(MetricLag)
	seen := map[int64]bool{}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		v := gauge.Value()
		if v <= 0 || v > int64(time.Second) {
			t.Fatalf("%s = %v on an idle three-city rig", MetricLag, time.Duration(v))
		}
		seen[v] = true
		time.Sleep(2 * time.Millisecond)
	}
	if len(seen) < 10 {
		t.Fatalf("%s took %d values in 300 ms of heartbeats", MetricLag, len(seen))
	}
}
