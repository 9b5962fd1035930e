package cluster

import (
	"testing"
	"time"

	"globaldb/internal/placement"
)

// TestAdviseAndMovePrimary drives a write-heavy workload against one shard
// from a region that does not own it, asks the advisor for moves, executes
// the top move, and verifies the shard keeps serving reads and writes from
// its new home.
func TestAdviseAndMovePrimary(t *testing.T) {
	c := open(t, smallCfg())

	// Find a shard whose primary is NOT in dongguan but which has a
	// replica there.
	shard := -1
	for s := 0; s < c.Shards(); s++ {
		if c.Primaries()[s].Region() == "dongguan" {
			continue
		}
		for _, rep := range c.Replicas(s) {
			if rep.Region() == "dongguan" {
				shard = s
				break
			}
		}
		if shard >= 0 {
			break
		}
	}
	if shard < 0 {
		t.Fatal("topology has no candidate shard")
	}

	// Dongguan hammers the shard with writes.
	cn := c.CN("dongguan")
	var lastKey []byte
	for i := 0; i < 40; i++ {
		tx, err := cn.Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		lastKey = key(shard, i)
		if err := tx.Put(bg, shard, lastKey, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(bg); err != nil {
			t.Fatal(err)
		}
	}

	moves := c.AdvisePlacement(placement.DefaultConfig())
	var move *placement.Move
	for i := range moves {
		if moves[i].Shard == shard {
			move = &moves[i]
		}
	}
	if move == nil {
		t.Fatalf("advisor did not recommend moving shard %d: %v", shard, moves)
	}
	if move.To != "dongguan" {
		t.Fatalf("advisor recommends %q, want dongguan", move.To)
	}

	if err := c.MovePrimary(bg, shard, "dongguan"); err != nil {
		t.Fatal(err)
	}
	if got := c.Primaries()[shard].Region(); got != "dongguan" {
		t.Fatalf("primary region = %q after move", got)
	}

	// Data survives and the shard keeps accepting traffic from its new home.
	r, err := cn.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	v, found, err := r.Get(bg, shard, lastKey)
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("read after move: %q %v %v", v, found, err)
	}
	r.Commit(bg)
	w, _ := cn.Begin(bg)
	if err := w.Put(bg, shard, key(shard, 999), []byte("after-move")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(bg); err != nil {
		t.Fatal(err)
	}

	// Replicas of the relocated shard converge to the new primary.
	deadline := time.Now().Add(10 * time.Second)
	for {
		reps := c.Replicas(shard)
		if len(reps) > 0 && reps[0].Applier().MaxCommitTS() >= w.Snapshot() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas never converged after the move")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMovePrimaryValidation covers the error paths.
func TestMovePrimaryValidation(t *testing.T) {
	c := open(t, smallCfg())
	if err := c.MovePrimary(bg, -1, "xian"); err == nil {
		t.Fatal("negative shard must fail")
	}
	if err := c.MovePrimary(bg, 0, "atlantis"); err == nil {
		t.Fatal("unknown region must fail")
	}
	// Moving to the current region is a no-op.
	cur := c.Primaries()[0].Region()
	if err := c.MovePrimary(bg, 0, cur); err != nil {
		t.Fatalf("no-op move: %v", err)
	}
}

// TestPlacementTrackerWiredIntoCNs verifies CN traffic lands in the shared
// tracker with the issuing CN's region.
func TestPlacementTrackerWiredIntoCNs(t *testing.T) {
	c := open(t, smallCfg())
	cn := c.CN("langzhong")
	tx, err := cn.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(bg, 1, key(1, 1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A different key: a read of the key just written is answered from the
	// CN's write buffer and never reaches the shard.
	if _, _, err := tx.Get(bg, 1, key(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}
	snap := c.Placement.Snapshot()
	a := snap[1]["langzhong"]
	if a.Writes != 1 || a.Reads != 1 {
		t.Fatalf("tracked access = %+v", a)
	}
}
