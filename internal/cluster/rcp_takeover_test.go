package cluster

import (
	"testing"
	"time"

	"globaldb/internal/coordinator"
)

// TestReadOnlySnapshotSurvivesPrimaryMove: a primary move rebuilds the RCP
// collector, and until the new collector hears from a serving replica of
// every shard it has nothing of its own to publish. Replica status replies to
// the collector are held back by a partition for the whole test, so the only
// RCP a reader can get after the move is the one the new collector started
// from. A read-only query must never be handed a snapshot below one an
// earlier query was handed.
func TestReadOnlySnapshotSurvivesPrimaryMove(t *testing.T) {
	cfg := smallCfg()
	cfg.Shards = 1 // primary in xian, replicas in langzhong and dongguan
	c := open(t, cfg)
	cn := c.CN("xian")
	txn, err := cn.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Put(bg, 0, key(0, 1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(bg); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Collector.RCP() < txn.CommitTS() {
		if time.Now().After(deadline) {
			t.Fatalf("RCP stuck at %v below commit %v", c.Collector.RCP(), txn.CommitTS())
		}
		time.Sleep(time.Millisecond)
	}
	before, err := cn.ReadOnly(bg, coordinator.AnyStaleness)
	if err != nil {
		t.Fatal(err)
	}
	if !before.OnReplicas() || before.Snapshot() < txn.CommitTS() {
		t.Fatalf("before the move: snapshot %v on replicas=%v, want >= %v on replicas",
			before.Snapshot(), before.OnReplicas(), txn.CommitTS())
	}

	// The collector runs in langzhong. Promoting the langzhong replica leaves
	// the dongguan one as the shard's only replica, and the partition keeps
	// its status replies from the collector.
	c.Net.SetPartitioned(cfg.GTMRegion, "dongguan", true)
	if err := c.MovePrimary(bg, 0, cfg.GTMRegion); err != nil {
		t.Fatal(err)
	}
	for _, region := range cfg.Regions {
		after, err := c.CN(region).ReadOnly(bg, coordinator.AnyStaleness)
		if err != nil {
			t.Fatal(err)
		}
		if after.Snapshot() < before.Snapshot() {
			t.Fatalf("CN %s after the move: snapshot %v, below the %v handed out before it",
				region, after.Snapshot(), before.Snapshot())
		}
	}
}
