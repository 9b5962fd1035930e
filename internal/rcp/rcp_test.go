package rcp

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"globaldb/internal/datanode"
	"globaldb/internal/netsim"
	"globaldb/internal/redo"
	"globaldb/internal/repl"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
)

var bg = context.Background()

// TestComputeRCPPaperExample reproduces Fig. 4 exactly: three replicas with
// commit timestamps {ts2,ts4,ts1}, {ts5}, {ts1,ts3}; the RCP is
// min(max each) = min(ts4, ts5, ts3) = ts3.
func TestComputeRCPPaperExample(t *testing.T) {
	perShard := map[int][]ts.Timestamp{
		1: {2, 4, 1}, // Replica 1: Trx2, Trx4, Trx1
		2: {5},       // Replica 2: Trx5
		3: {1, 3},    // Replica 3: Trx1, Trx3
	}
	if got := ComputeRCP(perShard); got != 3 {
		t.Fatalf("RCP = %v, want ts3", got)
	}
}

func TestComputeRCPMultipleReplicasPerShard(t *testing.T) {
	perShard := map[int][]ts.Timestamp{
		0: {10, 50}, // freshest replica of shard 0 is at 50
		1: {40, 20},
	}
	if got := ComputeRCP(perShard); got != 40 {
		t.Fatalf("RCP = %v, want 40", got)
	}
	if got := ComputeRCP(nil); got != ts.Zero {
		t.Fatalf("empty RCP = %v", got)
	}
}

// rig: two shards, each with one primary (east) and two replicas
// (west, east).
type rig struct {
	net       *netsim.Network
	primaries []*datanode.Primary
	replicas  []*datanode.Replica
	col       *Collector
	hbTS      atomic.Int64
}

func newRig(t *testing.T) *rig {
	t.Helper()
	n := netsim.New(netsim.Config{TimeScale: 0.1})
	n.SetLink("east", "west", 20*time.Millisecond, 0)
	r := &rig{net: n}
	topo := Topology{Primaries: map[int]string{}, Replicas: map[int][]string{}}
	for shard := 0; shard < 2; shard++ {
		p := datanode.NewPrimary(n, pname(shard), "east", shard, repl.Async, 1)
		r.primaries = append(r.primaries, p)
		topo.Primaries[shard] = p.ID()
		for i, region := range []string{"west", "east"} {
			rep := datanode.NewReplica(n, rname(shard, i), region, shard)
			r.replicas = append(r.replicas, rep)
			topo.Replicas[shard] = append(topo.Replicas[shard], rep.ID())
			sh := repl.NewShipper(repl.DefaultShipperConfig(), n, "east", datanode.ReplEndpointName(rep.ID()), p.Log(), p.Repl().AckHook())
			p.Repl().AddShipper(sh)
			sh.Start()
			t.Cleanup(sh.Stop)
		}
	}
	r.hbTS.Store(1000)
	tsp := func(context.Context) (ts.Timestamp, error) {
		return ts.Timestamp(r.hbTS.Add(10)), nil
	}
	r.col = NewCollector(DefaultConfig(), datanode.NewClient(n, "east"), topo, tsp, 0)
	return r
}

func pname(shard int) string    { return "p" + string(rune('0'+shard)) }
func rname(shard, i int) string { return "r" + string(rune('0'+shard)) + string(rune('0'+i)) }

// commitPlain writes one committed txn to a primary's store and log.
func commitPlain(p *datanode.Primary, txn uint64, commitTS ts.Timestamp) {
	p.Store().Put(mvcc.TxnID(txn), []byte("k"), []byte("v"), ts.Max)
	p.Log().AppendBatch([]redo.Record{{Type: redo.TypeHeapUpdate, Txn: txn, Key: []byte("k"), Value: []byte("v")}})
	p.Store().MarkPending(mvcc.TxnID(txn))
	p.Log().AppendBatch([]redo.Record{{Type: redo.TypePendingCommit, Txn: txn}})
	p.Store().Commit(mvcc.TxnID(txn), commitTS)
	p.Log().AppendBatch([]redo.Record{{Type: redo.TypeCommit, Txn: txn, TS: commitTS}})
}

func TestPollOnceComputesMinOfMax(t *testing.T) {
	r := newRig(t)
	// Shard 0 commits at 100, shard 1 at 60.
	commitPlain(r.primaries[0], 1, 100)
	commitPlain(r.primaries[1], 2, 60)
	waitReplay(t, r, 0, 100)
	waitReplay(t, r, 1, 60)
	got := r.col.PollOnce(bg)
	if got != 60 {
		t.Fatalf("RCP = %v, want 60", got)
	}
	// Shard 1 catches up; RCP advances to shard 0's watermark.
	commitPlain(r.primaries[1], 3, 200)
	waitReplay(t, r, 1, 200)
	if got := r.col.PollOnce(bg); got != 100 {
		t.Fatalf("RCP = %v, want 100", got)
	}
}

func TestRCPMonotonicUnderReplicaFailure(t *testing.T) {
	r := newRig(t)
	commitPlain(r.primaries[0], 1, 100)
	commitPlain(r.primaries[1], 2, 100)
	waitReplay(t, r, 0, 100)
	waitReplay(t, r, 1, 100)
	first := r.col.PollOnce(bg)
	if first != 100 {
		t.Fatalf("RCP = %v", first)
	}
	// Both replicas of shard 0 fail: the RCP must hold, not regress.
	for _, rep := range r.replicas {
		if rep.Shard() == 0 {
			rep.SetDown(true)
		}
	}
	if got := r.col.PollOnce(bg); got != first {
		t.Fatalf("RCP moved to %v with shard 0 dark", got)
	}
	st := r.col.Statuses()
	if st[rname(0, 0)].Healthy {
		t.Fatal("failed replica must be marked unhealthy")
	}
}

func TestHeartbeatAdvancesIdleShards(t *testing.T) {
	r := newRig(t)
	// No transactions at all; heartbeats alone must move the RCP.
	if err := r.col.HeartbeatOnce(bg); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := r.col.PollOnce(bg)
		if got >= 1010 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("RCP stuck at %v despite heartbeats", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRunLoopAndTakeover(t *testing.T) {
	r := newRig(t)
	r.col.Start()
	defer r.col.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for r.col.RCP() < 1010 {
		if time.Now().After(deadline) {
			t.Fatalf("collector loop never advanced the RCP past heartbeats: %v", r.col.RCP())
		}
		time.Sleep(2 * time.Millisecond)
	}
	old := r.col.RCP()
	r.col.Stop()

	// A takeover collector on another CN starts from the old value, and
	// polling only raises it: replica watermarks are monotonic, so the RCP
	// can't regress, however slowly the replicas answer. A commit above the
	// old value on both shards checks that its polling reaches the replicas'
	// watermarks rather than only keeping its start.
	commitTS := old + 1000
	for shard, p := range r.primaries {
		commitPlain(p, uint64(10+shard), commitTS)
		waitReplay(t, r, shard, commitTS)
	}
	topo := Topology{Primaries: map[int]string{}, Replicas: map[int][]string{}}
	for shard := 0; shard < 2; shard++ {
		topo.Primaries[shard] = pname(shard)
		topo.Replicas[shard] = []string{rname(shard, 0), rname(shard, 1)}
	}
	takeover := NewCollector(DefaultConfig(), datanode.NewClient(r.net, "west"), topo,
		func(context.Context) (ts.Timestamp, error) { return ts.Timestamp(r.hbTS.Add(10)), nil }, old)
	if got := takeover.RCP(); got != old {
		t.Fatalf("takeover starts at %v, want %v", got, old)
	}
	if got := takeover.PollOnce(bg); got < commitTS {
		t.Fatalf("takeover RCP %v never reached the replicas' %v", got, commitTS)
	}
}

func waitReplay(t *testing.T, r *rig, shard int, want ts.Timestamp) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, rep := range r.replicas {
			if rep.Shard() == shard && rep.Applier().MaxCommitTS() < want {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d replicas never reached %v", shard, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
