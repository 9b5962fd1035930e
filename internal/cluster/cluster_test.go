package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globaldb/internal/coordinator"
	"globaldb/internal/repl"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
)

var bg = context.Background()

// smallCfg is a fast three-region cluster for tests.
func smallCfg() Config {
	cfg := ThreeCity()
	cfg.TimeScale = 0.02 // 55ms RTT -> 1.1ms
	cfg.Shards = 4
	cfg.ReplicasPerShard = 2
	return cfg
}

func open(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func key(shard, i int) []byte { return []byte(fmt.Sprintf("s%02d-key-%06d", shard, i)) }

func TestOpenBuildsTopology(t *testing.T) {
	c := open(t, smallCfg())
	if got := len(c.CNs()); got != 3 {
		t.Fatalf("CNs = %d", got)
	}
	if got := len(c.Primaries()); got != 4 {
		t.Fatalf("primaries = %d", got)
	}
	for shard := 0; shard < 4; shard++ {
		reps := c.Replicas(shard)
		if len(reps) != 2 {
			t.Fatalf("shard %d replicas = %d", shard, len(reps))
		}
		// Replicas are placed outside the primary's region (remote
		// replication protects against regional disasters).
		for _, r := range reps {
			if r.Region() == c.Primaries()[shard].Region() {
				t.Fatalf("shard %d replica in primary region %s", shard, r.Region())
			}
		}
	}
	if c.Mode() != ts.ModeGClock {
		t.Fatalf("mode = %v", c.Mode())
	}
}

func TestSingleShardTxnCommitAndRead(t *testing.T) {
	c := open(t, smallCfg())
	cn := c.CN("xian")
	txn, err := cn.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Put(bg, 0, key(0, 1), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// Read own write before commit.
	v, found, err := txn.Get(bg, 0, key(0, 1))
	if err != nil || !found || string(v) != "hello" {
		t.Fatalf("RYOW: %q %v %v", v, found, err)
	}
	if err := txn.Commit(bg); err != nil {
		t.Fatal(err)
	}
	// A new transaction sees it.
	txn2, _ := cn.Begin(bg)
	v, found, err = txn2.Get(bg, 0, key(0, 1))
	if err != nil || !found || string(v) != "hello" {
		t.Fatalf("after commit: %q %v %v", v, found, err)
	}
	txn2.Commit(bg)
}

func TestMultiShardTxn2PC(t *testing.T) {
	c := open(t, smallCfg())
	cn := c.CN("dongguan")
	txn, err := cn.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 4; shard++ {
		if err := txn.Put(bg, shard, key(shard, 7), []byte("multi")); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(bg); err != nil {
		t.Fatal(err)
	}
	txn2, _ := cn.Begin(bg)
	for shard := 0; shard < 4; shard++ {
		v, found, err := txn2.Get(bg, shard, key(shard, 7))
		if err != nil || !found || string(v) != "multi" {
			t.Fatalf("shard %d: %q %v %v", shard, v, found, err)
		}
	}
	txn2.Commit(bg)
}

func TestAbortRollsBackAllShards(t *testing.T) {
	c := open(t, smallCfg())
	cn := c.CN("xian")
	txn, _ := cn.Begin(bg)
	txn.Put(bg, 0, key(0, 9), []byte("x"))
	txn.Put(bg, 1, key(1, 9), []byte("y"))
	if err := txn.Abort(bg); err != nil {
		t.Fatal(err)
	}
	txn2, _ := cn.Begin(bg)
	for _, shard := range []int{0, 1} {
		if _, found, _ := txn2.Get(bg, shard, key(shard, 9)); found {
			t.Fatalf("aborted write visible on shard %d", shard)
		}
	}
	txn2.Commit(bg)
	// The aborted transaction cannot be reused.
	if err := txn.Commit(bg); err != coordinator.ErrTxnDone {
		t.Fatalf("commit after abort: %v", err)
	}
}

// TestWriteConflictAborts pins commit-time conflict detection: writes are
// buffered at the CN, so both Puts succeed; the first transaction to reach
// the primary wins and the second Commit fails with a write-write conflict,
// leaving no intent behind.
func TestWriteConflictAborts(t *testing.T) {
	c := open(t, smallCfg())
	cn := c.CN("xian")
	t1, _ := cn.Begin(bg)
	t2, _ := cn.Begin(bg)
	if err := t1.Put(bg, 0, key(0, 42), []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Put(bg, 0, key(0, 42), []byte("second")); err != nil {
		t.Fatalf("buffered write must not fail: %v", err)
	}
	if err := t1.Commit(bg); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(bg); !errors.Is(err, mvcc.ErrWriteConflict) {
		t.Fatalf("second commit: %v, want write-write conflict", err)
	}
	if n := c.Primaries()[0].Store().Stats().ActiveTxns; n != 0 {
		t.Fatalf("loser left %d unresolved transactions holding intents", n)
	}
	r, _ := cn.Begin(bg)
	v, found, err := r.Get(bg, 0, key(0, 42))
	if err != nil || !found || string(v) != "first" {
		t.Fatalf("after conflict: %q %v %v", v, found, err)
	}
	r.Commit(bg)
}

func TestExternalConsistencyAcrossCNs(t *testing.T) {
	// R.1 end to end: a transaction committed (acked) on the Xi'an CN is
	// visible to a transaction begun afterwards on the Dongguan CN.
	c := open(t, smallCfg())
	for i := 0; i < 20; i++ {
		w, _ := c.CN("xian").Begin(bg)
		if err := w.Put(bg, 0, key(0, 100+i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(bg); err != nil {
			t.Fatal(err)
		}
		r, err := c.CN("dongguan").Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		v, found, err := r.Get(bg, 0, key(0, 100+i))
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("iter %d: R.1 violated: %q %v %v", i, v, found, err)
		}
		r.Commit(bg)
	}
}

func waitRCP(t *testing.T, c *Cluster, min ts.Timestamp) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Collector.RCP() < min {
		if time.Now().After(deadline) {
			t.Fatalf("RCP stuck at %v, want >= %v", c.Collector.RCP(), min)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestReplicaReadsSeeCommittedData(t *testing.T) {
	c := open(t, smallCfg())
	cn := c.CN("xian")
	w, _ := cn.Begin(bg)
	if err := w.Put(bg, 0, key(0, 1), []byte("replicated")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(bg); err != nil {
		t.Fatal(err)
	}
	// Wait for the RCP to pass the commit, then a replica read must see it.
	// Reading from a CN remote from shard 0's primary: the skyline picks
	// that CN's local replica over the remote primary.
	waitRCP(t, c, w.Snapshot())
	var remote *coordinator.CN
	for _, cand := range c.CNs() {
		if cand.Region() != c.Primaries()[0].Region() {
			remote = cand
			break
		}
	}
	ro, err := remote.ReadOnly(bg, coordinator.AnyStaleness)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.OnReplicas() {
		t.Fatal("read-only query must run on replicas")
	}
	v, found, err := ro.Get(bg, 0, key(0, 1))
	if err != nil || !found || string(v) != "replicated" {
		t.Fatalf("replica read: %q %v %v", v, found, err)
	}
	if remote.Stats().ReplicaReads == 0 {
		t.Fatal("replica read counter must increment")
	}
}

func TestRORMonotonicFreshness(t *testing.T) {
	// Consecutive ROR queries never observe a smaller snapshot (Sec. IV-A:
	// "the RCP increases monotonically ... consecutive ROR queries always
	// show data with equal or greater freshness").
	c := open(t, smallCfg())
	cn := c.CN("langzhong")
	var prev ts.Timestamp
	for i := 0; i < 30; i++ {
		ro, err := cn.ReadOnly(bg, coordinator.AnyStaleness)
		if err != nil {
			t.Fatal(err)
		}
		if ro.Snapshot() < prev {
			t.Fatalf("RCP went backwards: %v after %v", ro.Snapshot(), prev)
		}
		prev = ro.Snapshot()
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRORNoTornMultiShardReads(t *testing.T) {
	// A multi-shard transaction moves value between two shards; replica
	// reads at the RCP must always see the sum conserved.
	c := open(t, smallCfg())
	cn := c.CN("xian")
	init, _ := cn.Begin(bg)
	init.Put(bg, 0, []byte("acct-a"), []byte{100})
	init.Put(bg, 1, []byte("acct-b"), []byte{100})
	if err := init.Commit(bg); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			txn, err := cn.Begin(bg)
			if err != nil {
				continue
			}
			av, _, err1 := txn.Get(bg, 0, []byte("acct-a"))
			bv, _, err2 := txn.Get(bg, 1, []byte("acct-b"))
			if err1 != nil || err2 != nil {
				txn.Abort(bg)
				continue
			}
			if err := txn.Put(bg, 0, []byte("acct-a"), []byte{av[0] - 1}); err != nil {
				txn.Abort(bg)
				continue
			}
			if err := txn.Put(bg, 1, []byte("acct-b"), []byte{bv[0] + 1}); err != nil {
				txn.Abort(bg)
				continue
			}
			txn.Commit(bg)
		}
	}()

	reader := c.CN("dongguan")
	deadline := time.Now().Add(500 * time.Millisecond)
	checks := 0
	for time.Now().Before(deadline) {
		ro, err := reader.ReadOnly(bg, coordinator.AnyStaleness)
		if err != nil {
			t.Fatal(err)
		}
		av, foundA, err1 := ro.Get(bg, 0, []byte("acct-a"))
		bv, foundB, err2 := ro.Get(bg, 1, []byte("acct-b"))
		if err1 != nil || err2 != nil {
			t.Fatalf("ro read: %v %v", err1, err2)
		}
		if !foundA && !foundB {
			continue // RCP before the initial commit
		}
		if foundA != foundB {
			t.Fatal("torn read: one account visible, the other not")
		}
		// Byte arithmetic: the balances wrap once the writer has moved more
		// than 100 units, and their sum is conserved modulo 256.
		if sum := av[0] + bv[0]; sum != 200 {
			t.Fatalf("torn read: a=%d b=%d, sum = %d (mod 256)", av[0], bv[0], sum)
		}
		checks++
	}
	stop.Store(true)
	wg.Wait()
	if checks == 0 {
		t.Fatal("no successful consistency checks ran")
	}
}

func TestStalenessBoundFallsBackToPrimary(t *testing.T) {
	cfg := smallCfg()
	cfg.RCP.HeartbeatInterval = time.Hour // RCP barely moves
	c := open(t, cfg)
	cn := c.CN("xian")
	// With a tight bound and a stale RCP, the query must fall back to
	// primaries at a fresh snapshot.
	time.Sleep(20 * time.Millisecond)
	ro, err := cn.ReadOnly(bg, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if ro.OnReplicas() {
		t.Fatal("stale RCP with tight bound must fall back to primary reads")
	}
	if cn.Stats().RORFallbacks == 0 {
		t.Fatal("fallback counter must increment")
	}
}

func TestDDLGateBlocksFreshTables(t *testing.T) {
	c := open(t, smallCfg())
	cn := c.CN("xian")
	schema := testSchema("users")
	if err := c.CreateTable(bg, schema); err != nil {
		t.Fatal(err)
	}
	// Immediately after the DDL the RCP is typically behind it: a query
	// naming the table must fall back to primaries.
	ro, err := cn.ReadOnly(bg, coordinator.AnyStaleness, schema.ID)
	if err != nil {
		t.Fatal(err)
	}
	ddlTS := c.Catalog.DDLTSOf(schema.ID)
	if ro.OnReplicas() && ro.Snapshot() < ddlTS {
		t.Fatal("ROR allowed below the table's DDL timestamp")
	}
	// Once the RCP passes the DDL, replica reads are allowed again.
	waitRCP(t, c, ddlTS)
	ro, err = cn.ReadOnly(bg, coordinator.AnyStaleness, schema.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.OnReplicas() {
		t.Fatal("ROR must be allowed once the RCP passes the DDL")
	}
}

func TestReplicaFailureReroutes(t *testing.T) {
	c := open(t, smallCfg())
	cn := c.CN("xian")
	w, _ := cn.Begin(bg)
	w.Put(bg, 0, key(0, 5), []byte("v"))
	if err := w.Commit(bg); err != nil {
		t.Fatal(err)
	}
	waitRCP(t, c, w.Snapshot())
	// Kill every replica of shard 0: reads must still succeed via the
	// primary fallback.
	for _, rep := range c.Replicas(0) {
		rep.SetDown(true)
	}
	time.Sleep(20 * time.Millisecond) // let a status poll observe the failure
	ro, err := cn.ReadOnly(bg, coordinator.AnyStaleness)
	if err != nil {
		t.Fatal(err)
	}
	v, found, err := ro.Get(bg, 0, key(0, 5))
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("read with dead replicas: %q %v %v", v, found, err)
	}
}

// TestRCPReplicaOfADownPrimaryKeepsServing: a shard whose primary is down,
// and not yet replaced, ships nothing, so its replicas fall silent. Silence
// only gets them probed: they answer, stay healthy, and keep serving reads
// at the RCP, which they pin.
func TestRCPReplicaOfADownPrimaryKeepsServing(t *testing.T) {
	const shard = 1
	c := open(t, smallCfg())
	cn := c.CN("xian")
	w, _ := cn.Begin(bg)
	if err := w.Put(bg, shard, key(shard, 1), []byte("before-failure")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(bg); err != nil {
		t.Fatal(err)
	}
	waitRCP(t, c, w.CommitTS())

	failed := time.Now()
	c.FailPrimary(shard)
	// Nothing reaches a replica now, so what the collector hears from it
	// three heartbeat periods on is the answer to a probe.
	silent := failed.Add(3 * c.cfg.RCP.HeartbeatInterval)
	deadline := time.Now().Add(5 * time.Second)
	for _, rep := range c.Replicas(shard) {
		for c.Collector.Statuses()[rep.ID()].PolledAt.Before(silent) {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s of a down primary was not probed", rep.ID())
			}
			time.Sleep(time.Millisecond)
		}
		if st := c.Collector.Statuses()[rep.ID()]; !st.Healthy {
			t.Fatalf("replica %s of a down primary reads unhealthy: %+v", rep.ID(), st)
		}
	}
	ro, err := cn.ReadOnly(bg, coordinator.AnyStaleness)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.OnReplicas() {
		t.Fatal("an AnyStaleness query fell back to primaries")
	}
	replicaReads := cn.Stats().ReplicaReads
	v, found, err := ro.Get(bg, shard, key(shard, 1))
	if err != nil || !found || string(v) != "before-failure" {
		t.Fatalf("replica read of a down primary's shard: %q %v %v", v, found, err)
	}
	if cn.Stats().ReplicaReads != replicaReads+1 {
		t.Fatal("the read was not served by a replica")
	}
}

func TestPrimaryFailoverPromotion(t *testing.T) {
	c := open(t, smallCfg())
	cn := c.CN("xian")
	w, _ := cn.Begin(bg)
	w.Put(bg, 2, key(2, 1), []byte("before-failover"))
	if err := w.Commit(bg); err != nil {
		t.Fatal(err)
	}
	// Let replication catch up so the promoted replica has the data.
	deadline := time.Now().Add(5 * time.Second)
	for c.Replicas(2)[0].Applier().MaxCommitTS() < w.Snapshot() {
		if time.Now().After(deadline) {
			t.Fatal("replica never caught up before failover")
		}
		time.Sleep(2 * time.Millisecond)
	}

	c.FailPrimary(2)
	if err := c.PromoteReplica(bg, 2, 0); err != nil {
		t.Fatal(err)
	}

	// Reads and writes continue against the promoted primary.
	r, err := cn.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	v, found, err := r.Get(bg, 2, key(2, 1))
	if err != nil || !found || string(v) != "before-failover" {
		t.Fatalf("read after failover: %q %v %v", v, found, err)
	}
	r.Commit(bg)

	w2, _ := cn.Begin(bg)
	if err := w2.Put(bg, 2, key(2, 2), []byte("after-failover")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(bg); err != nil {
		t.Fatal(err)
	}
	// The re-seeded surviving replica converges to the new primary.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if len(c.Replicas(2)) > 0 && c.Replicas(2)[0].Applier().MaxCommitTS() >= w2.Snapshot() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("surviving replica never converged after failover")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestClockFailureFallbackToGTM(t *testing.T) {
	c := open(t, smallCfg())
	// The region's time device fails; error bounds grow at 200 PPM plus
	// the 60µs sync floor — after 250ms the bound passes 110µs.
	c.FailClockDevice("xian", true)
	deadline := time.Now().Add(5 * time.Second)
	for c.ClockHealthy(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("clock must become unhealthy after device failure")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Operator falls back to centralized management with zero downtime.
	if err := c.TransitionToGTM(bg); err != nil {
		t.Fatal(err)
	}
	if c.Mode() != ts.ModeGTM {
		t.Fatalf("mode = %v", c.Mode())
	}
	// Transactions still work.
	cn := c.CN("xian")
	txn, err := cn.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Put(bg, 0, key(0, 77), []byte("gtm-mode")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(bg); err != nil {
		t.Fatal(err)
	}
	// Device heals; transition back online.
	c.FailClockDevice("xian", false)
	time.Sleep(10 * time.Millisecond)
	if err := c.TransitionToGClock(bg); err != nil {
		t.Fatal(err)
	}
	txn2, err := cn.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	v, found, err := txn2.Get(bg, 0, key(0, 77))
	if err != nil || !found || string(v) != "gtm-mode" {
		t.Fatalf("read across transitions: %q %v %v", v, found, err)
	}
	txn2.Commit(bg)
}

func TestSyncReplicationMode(t *testing.T) {
	cfg := smallCfg()
	cfg.ReplMode = repl.SyncQuorum
	cfg.Quorum = 1
	c := open(t, cfg)
	cn := c.CN("xian")
	txn, _ := cn.Begin(bg)
	txn.Put(bg, 0, key(0, 3), []byte("sync"))
	if err := txn.Commit(bg); err != nil {
		t.Fatal(err)
	}
	// The commit is already on a quorum (1) of replicas: at least one
	// shipper has acked through the commit record.
	p := c.Primaries()[0]
	lsn := p.Log().LastLSN()
	acked := func() bool {
		for _, sh := range p.Repl().Shippers() {
			if sh.AckedLSN() >= lsn {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(time.Second)
	for !acked() {
		if time.Now().After(deadline) {
			t.Fatal("no replica acked the commit despite sync mode")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShardOfStable(t *testing.T) {
	a := ShardOf(int64(42), 6)
	for i := 0; i < 10; i++ {
		if ShardOf(int64(42), 6) != a {
			t.Fatal("ShardOf must be deterministic")
		}
	}
	spread := map[int]bool{}
	for i := 0; i < 100; i++ {
		spread[ShardOf(int64(i), 6)] = true
	}
	if len(spread) != 6 {
		t.Fatalf("hash must use all shards, got %d", len(spread))
	}
	if ShardOf("warehouse-1", 6) < 0 || ShardOf([]byte("k"), 6) < 0 || ShardOf(1.5, 6) < 0 || ShardOf(true, 6) < 0 || ShardOf(uint64(7), 6) < 0 || ShardOf(struct{}{}, 6) < 0 {
		t.Fatal("all value kinds must hash")
	}
}

// TestCollectorFollowsTopologyChanges: a promotion and a primary move each
// rebuild the RCP collector over the new node set — a watcher per new node,
// none left on a retired one — and the RCP goes on to cover commits made
// after the change.
func TestCollectorFollowsTopologyChanges(t *testing.T) {
	c := open(t, smallCfg())
	cn := c.CN("xian")
	commit := func(shard, i int) ts.Timestamp {
		t.Helper()
		txn, err := cn.Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Put(bg, shard, key(shard, i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(bg); err != nil {
			t.Fatal(err)
		}
		return txn.CommitTS()
	}
	rcpCovers := func(what string, want ts.Timestamp) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for c.Collector.RCP() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: RCP stuck at %v, want %v covered", what, c.Collector.RCP(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// watched waits until the collector reports exactly the cluster's
	// current nodes, all healthy.
	watched := func(what string) {
		t.Helper()
		want := map[string]bool{}
		for shard, p := range c.Primaries() {
			want[p.ID()] = true
			for _, rep := range c.Replicas(shard) {
				want[rep.ID()] = true
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			got := c.Collector.Statuses()
			ok := len(got) == len(want)
			for node, st := range got {
				ok = ok && want[node] && st.Healthy
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: collector reports %v, cluster has %v", what, got, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	rcpCovers("at open", commit(2, 1))
	watched("at open")
	before := c.Collector

	c.FailPrimary(2)
	if err := c.PromoteReplica(bg, 2, 0); err != nil {
		t.Fatal(err)
	}
	if c.Collector == before {
		t.Fatal("promotion kept the collector built for the old topology")
	}
	watched("after the promotion")
	rcpCovers("after the promotion", commit(2, 2))

	if err := c.MovePrimary(bg, 1, "dongguan"); err != nil {
		t.Fatal(err)
	}
	watched("after the move")
	rcpCovers("after the move", commit(1, 3))
}
