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

// newReplicaRig builds a CN over one shard whose primary and replica sit in
// its own region, with the replica the cheaper node on the skyline.
func newReplicaRig(t *testing.T) (cn *CN, tr *ror.Tracker, replica string) {
	t.Helper()
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
	cn = New(oracle.Name(), "east", 1, client, oracle, routing, table.NewCatalog())
	cn.SetCollector(rcp.NewCollector(rcp.Config{}, client, rcp.Topology{}, nil, 0))
	tr = ror.NewTracker()
	tr.AddNode(0, p.ID(), "east", true, 10*time.Millisecond)
	tr.AddNode(0, rep.ID(), "east", false, time.Millisecond)
	cn.SetTracker(tr)
	return cn, tr, rep.ID()
}

// TestCanceledReplicaGetBlamesNoNode: a replica read whose context is
// already dead says nothing about the replica. A Get and a scan page, which
// share one fetch, each return the context's error, leave the replica
// healthy in the tracker and do not retry the primary on the same dead
// context.
func TestCanceledReplicaGetBlamesNoNode(t *testing.T) {
	reads := map[string]func(ctx context.Context, q *Txn) error{
		"get": func(ctx context.Context, q *Txn) error {
			_, _, err := q.Get(ctx, 0, []byte("k"))
			return err
		},
		"scan page": func(ctx context.Context, q *Txn) error {
			cur := q.ScanCursor(ctx, 0, ScanSpec{Start: []byte("a"), End: []byte("z"), Prefetch: -1})
			defer cur.Close()
			for cur.NextBatch(ctx) {
			}
			return cur.Err()
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			cn, tr, rep := newReplicaRig(t)
			q := &Txn{cn: cn, ts: tso.TxnTS{Snap: 1}, readOnly: true, onReplicas: true, bound: time.Hour}
			if node, replica := q.pick(0); !replica || node != rep {
				t.Fatalf("pick = %s %v, want the replica", node, replica)
			}
			ctx, cancel := context.WithCancel(bg)
			cancel()
			if err := read(ctx, q); !errors.Is(err, context.Canceled) {
				t.Fatalf("read on a canceled context: %v, want context.Canceled", err)
			}
			if cand, ok := tr.Node(rep); !ok || !cand.Healthy {
				t.Fatalf("replica %+v marked failed by a canceled read", cand)
			}
			if st := cn.Stats(); st.PrimaryReads != 0 {
				t.Fatalf("%d primary reads: a canceled read was retried on the primary", st.PrimaryReads)
			}
		})
	}
}

// TestReadOnlyRefusesWrites: a read-only query, on replicas or on
// primaries, refuses every write with ErrReadOnly and holds no pin on
// version GC; with nothing written, its Commit ends it.
func TestReadOnlyRefusesWrites(t *testing.T) {
	cn, _, _ := newReplicaRig(t)
	for _, bound := range []time.Duration{AnyStaleness, 0} {
		q, err := cn.ReadOnly(bg, bound)
		if err != nil {
			t.Fatal(err)
		}
		if q.OnReplicas() != (bound < 0) {
			t.Fatalf("rig: bound %v opened a query with replicas=%v", bound, q.OnReplicas())
		}
		if err := q.Put(bg, 0, []byte("k"), []byte("v")); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Put (replicas=%v): %v, want ErrReadOnly", q.OnReplicas(), err)
		}
		if err := q.Delete(bg, 0, []byte("k")); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Delete (replicas=%v): %v, want ErrReadOnly", q.OnReplicas(), err)
		}
		if _, ok := cn.OldestActiveSnapshot(time.Now()); ok {
			t.Fatalf("query (replicas=%v) pins version GC", q.OnReplicas())
		}
		if err := q.Commit(bg); err != nil {
			t.Fatalf("Commit (replicas=%v): %v", q.OnReplicas(), err)
		}
	}
}
