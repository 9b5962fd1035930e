package cluster

import (
	"testing"

	"globaldb/internal/coordinator"
	"globaldb/internal/datanode"
	"globaldb/internal/ts"
)

func primaryIDs(c *Cluster) []string {
	ids := make([]string, 0, len(c.Primaries()))
	for _, p := range c.Primaries() {
		ids = append(ids, p.ID())
	}
	return ids
}

// TestChaosCoordinatorDiesBeforeResolution simulates the coordinator dying
// between decision durability and phase-two fan-out: the drop hook abandons
// background resolution, leaving non-anchor shards prepared. The client ack
// already happened (decision is durable at the anchor), so recovery via
// ResolveInDoubt must commit the stragglers — no lost writes.
func TestChaosCoordinatorDiesBeforeResolution(t *testing.T) {
	c := open(t, smallCfg())
	// Coordinated from Dongguan, whose home shard is 2: the anchor is the
	// nearest participant, not the lowest-numbered one.
	cn := c.CN("dongguan")
	cn.SetResolveDropHook(func(uint64) bool { return true })

	tx, _ := cn.Begin(bg)
	shards := []int{0, 1, 2}
	for _, s := range shards {
		if err := tx.Put(bg, s, key(s, 42), []byte("chaos")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err) // ack must arrive: decision durability doesn't need phase two
	}
	cn.Quiesce()
	want := tx.CommitTS()

	// Anchor (the CN's home shard's primary) is committed; the rest are
	// still prepared — their intents are not yet versions — and each names
	// the anchor in its in-doubt entry.
	const anchorShard = 2
	if v := c.Primaries()[anchorShard].Store().Versions(key(anchorShard, 42)); len(v) != 1 || v[0].CommitTS != want {
		t.Fatalf("anchor shard versions %v, want single at %v", v, want)
	}
	client := datanode.NewClient(c.Net, "xian")
	for _, s := range shards[:anchorShard] {
		if v := c.Primaries()[s].Store().Versions(key(s, 42)); len(v) != 0 {
			t.Fatalf("shard %d resolved despite dropped phase two: %v", s, v)
		}
		inDoubt, err := client.InDoubt(bg, c.Primaries()[s].ID())
		if err != nil || len(inDoubt) != 1 || inDoubt[0].Anchor != c.Primaries()[anchorShard].ID() {
			t.Fatalf("shard %d in doubt: %+v %v, want one txn anchored at shard %d", s, inDoubt, err, anchorShard)
		}
	}

	// Recovery: a fresh coordinator sweeps the in-doubt sets and consults
	// each transaction's anchor for the outcome.
	committed, aborted, err := coordinator.ResolveInDoubt(bg, client, primaryIDs(c))
	if err != nil {
		t.Fatal(err)
	}
	if committed != 2 || aborted != 0 {
		t.Fatalf("resolved committed=%d aborted=%d, want 2/0", committed, aborted)
	}
	for _, s := range shards {
		if v := c.Primaries()[s].Store().Versions(key(s, 42)); len(v) != 1 || v[0].CommitTS != want {
			t.Fatalf("shard %d after recovery: %v, want single at %v", s, v, want)
		}
	}
	// A second sweep finds nothing in doubt.
	if committed, aborted, _ := coordinator.ResolveInDoubt(bg, client, primaryIDs(c)); committed+aborted != 0 {
		t.Fatalf("second sweep resolved %d/%d, want idle", committed, aborted)
	}
}

// TestResolveInDoubtPresumedAbort: a participant prepared for a transaction
// whose anchor never saw a decision is aborted on recovery. The anchor not
// knowing the transaction proves no client was acked, so abort is safe.
func TestResolveInDoubtPresumedAbort(t *testing.T) {
	c := open(t, smallCfg())
	client := datanode.NewClient(c.Net, "xian")
	anchor := c.Primaries()[0].ID()
	part := c.Primaries()[1].ID()

	const orphan = 987654
	k := key(1, 314)
	if err := client.Write(bg, part, orphan, ts.Max, []datanode.WriteOp{{Key: k, Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := client.Prepare(bg, part, orphan, anchor); err != nil {
		t.Fatal(err)
	}

	committed, aborted, err := coordinator.ResolveInDoubt(bg, client, primaryIDs(c))
	if err != nil {
		t.Fatal(err)
	}
	if committed != 0 || aborted != 1 {
		t.Fatalf("resolved committed=%d aborted=%d, want 0/1", committed, aborted)
	}
	if v := c.Primaries()[1].Store().Versions(k); len(v) != 0 {
		t.Fatalf("aborted prepare left versions: %v", v)
	}
	// The key is writable again: the intent is gone, not just invisible.
	cn := c.CN("xian")
	tx, _ := cn.Begin(bg)
	if err := tx.Put(bg, 1, k, []byte("after")); err != nil {
		t.Fatalf("write after presumed abort: %v", err)
	}
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCoordinatorDiesBetweenPrepareAndDecision: the coordinator sends
// every participant its fused Write+Prepare — intents staged and the
// transaction prepared in one message — and dies before deciding. No
// decision exists anywhere, no client was acked, so recovery presumes abort:
// every participant, the anchor included, drops the intents the fused
// message staged, and the keys are writable again.
func TestChaosCoordinatorDiesBetweenPrepareAndDecision(t *testing.T) {
	c := open(t, smallCfg())
	client := datanode.NewClient(c.Net, "dongguan")
	const orphan = 424242
	shards := []int{0, 2}
	anchor := c.Primaries()[2].ID()
	for _, s := range shards {
		ops := []datanode.WriteOp{
			{Key: key(s, 271), Value: []byte("staged")},
			{Key: key(s, 272), Value: []byte("staged")},
		}
		if err := client.WriteThen(bg, c.Primaries()[s].ID(), orphan, ts.Max, ops, datanode.ThenPrepare, anchor); err != nil {
			t.Fatal(err)
		}
	}
	// The coordinator is gone. Both participants hold prepared intents.
	for _, s := range shards {
		st, err := client.TxnStatus(bg, c.Primaries()[s].ID(), orphan)
		if err != nil || !st.Prepared || st.Known {
			t.Fatalf("shard %d before recovery: %+v %v, want prepared and undecided", s, st, err)
		}
	}

	committed, aborted, err := coordinator.ResolveInDoubt(bg, client, primaryIDs(c))
	if err != nil {
		t.Fatal(err)
	}
	if committed != 0 || aborted != len(shards) {
		t.Fatalf("resolved committed=%d aborted=%d, want 0/%d", committed, aborted, len(shards))
	}
	for _, s := range shards {
		p := c.Primaries()[s]
		if n := p.Store().Stats().ActiveTxns; n != 0 {
			t.Fatalf("shard %d: %d transactions still hold intents after presumed abort", s, n)
		}
		for _, i := range []int{271, 272} {
			if v := p.Store().Versions(key(s, i)); len(v) != 0 {
				t.Fatalf("shard %d: aborted write became a version: %v", s, v)
			}
		}
	}
	// The intents are gone, not merely invisible: a new transaction writes
	// the same keys through the normal path and commits.
	tx, _ := c.CN("dongguan").Begin(bg)
	for _, s := range shards {
		if err := tx.Put(bg, s, key(s, 271), []byte("after")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(bg); err != nil {
		t.Fatalf("commit after presumed abort: %v", err)
	}
}
