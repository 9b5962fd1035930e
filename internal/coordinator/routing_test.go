package coordinator

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"globaldb/internal/clock"
	"globaldb/internal/datanode"
	"globaldb/internal/netsim"
	"globaldb/internal/rcp"
	"globaldb/internal/repl"
	"globaldb/internal/ror"
	"globaldb/internal/table"
	"globaldb/internal/ts"
	"globaldb/internal/tso"
)

func TestRoutingSetAndGet(t *testing.T) {
	r := NewRouting(3)
	if r.NumShards() != 3 {
		t.Fatalf("NumShards = %d", r.NumShards())
	}
	r.SetPrimary(0, "dn0")
	r.SetPrimary(1, "dn1")
	r.AddReplica(0, "dn0r0")
	r.AddReplica(0, "dn0r1")
	if r.Primary(0) != "dn0" || r.Primary(1) != "dn1" || r.Primary(2) != "" {
		t.Fatalf("primaries: %q %q %q", r.Primary(0), r.Primary(1), r.Primary(2))
	}
	reps := r.Replicas(0)
	if len(reps) != 2 || reps[0] != "dn0r0" || reps[1] != "dn0r1" {
		t.Fatalf("replicas: %v", reps)
	}
	if len(r.Replicas(1)) != 0 {
		t.Fatal("shard 1 must have no replicas")
	}
}

func TestRoutingReplicasReturnsCopy(t *testing.T) {
	r := NewRouting(1)
	r.AddReplica(0, "a")
	got := r.Replicas(0)
	got[0] = "mutated"
	if r.Replicas(0)[0] != "a" {
		t.Fatal("Replicas must return a copy")
	}
}

func TestRoutingReset(t *testing.T) {
	r := NewRouting(2)
	r.SetPrimary(0, "old0")
	r.AddReplica(0, "old0r")
	r.Reset([]string{"new0", "new1"}, [][]string{{"new0r"}, nil})
	if r.Primary(0) != "new0" || r.Primary(1) != "new1" {
		t.Fatalf("after reset: %q %q", r.Primary(0), r.Primary(1))
	}
	if reps := r.Replicas(0); len(reps) != 1 || reps[0] != "new0r" {
		t.Fatalf("after reset replicas: %v", reps)
	}
}

func TestRoutingConcurrentAccess(t *testing.T) {
	// Failover re-wiring races reads in production; the table must stay
	// internally consistent under the race detector.
	r := NewRouting(4)
	for s := 0; s < 4; s++ {
		r.SetPrimary(s, "p")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch w % 3 {
				case 0:
					r.SetPrimary(i%4, "p2")
				case 1:
					_ = r.Primary(i % 4)
				case 2:
					_ = r.Replicas(i % 4)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestStatsZeroValue(t *testing.T) {
	var s Stats
	if s.Commits != 0 || s.Aborts != 0 || s.ReplicaReads != 0 {
		t.Fatalf("zero stats: %+v", s)
	}
}

// TestCanceledReplicaGetBlamesNoNode: a replica point read whose context is
// already dead says nothing about the replica. Get returns the context's
// error, leaves the replica healthy in the tracker and does not retry the
// primary on the same dead context — the rule the scan path keeps.
func TestCanceledReplicaGetBlamesNoNode(t *testing.T) {
	net := netsim.New(netsim.Config{TimeScale: 0.02})
	net.AddRegion("east")
	p := datanode.NewPrimary(net, "dn0", "east", 0, repl.Async, 1)
	rep := datanode.NewReplica(net, "dn0r0", "east", 0)
	routing := NewRouting(1)
	routing.SetPrimary(0, p.ID())
	routing.AddReplica(0, rep.ID())
	client := datanode.NewClient(net, "east")
	oracle := tso.New("cn-east", clock.NewNode(clock.DefaultNodeConfig(), clock.Real(), clock.NewDevice("east", clock.Real())), nil)
	oracle.SetMode(ts.ModeGClock)
	cn := New(oracle.Name(), "east", 1, client, oracle, routing, table.NewCatalog())
	cn.SetCollector(rcp.NewCollector(rcp.Config{}, client, rcp.Topology{}, nil, 0))
	tr := ror.NewTracker()
	tr.AddNode(0, p.ID(), "east", true, 10*time.Millisecond)
	tr.AddNode(0, rep.ID(), "east", false, time.Millisecond)
	cn.SetTracker(tr)

	q := &ROTxn{cn: cn, snap: 1, bound: time.Hour, replicaMode: true}
	if node, replica, err := q.pick(0); err != nil || !replica || node != rep.ID() {
		t.Fatalf("pick = %s %v %v, want the replica", node, replica, err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, _, err := q.Get(ctx, 0, []byte("k")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get on a canceled context: %v, want context.Canceled", err)
	}
	if cand, ok := tr.Node(rep.ID()); !ok || !cand.Healthy {
		t.Fatalf("replica %+v marked failed by a canceled read", cand)
	}
	if st := cn.Stats(); st.PrimaryReads != 0 {
		t.Fatalf("%d primary reads: a canceled read was retried on the primary", st.PrimaryReads)
	}
}
