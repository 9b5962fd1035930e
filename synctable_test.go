package globaldb

import (
	"context"
	"math"
	"testing"
	"time"

	"globaldb/internal/redo"
)

// TestSyncReplicatedTable exercises the paper's future-work feature: a
// synchronously replicated table co-existing with asynchronous ones. Writes
// to the sync table wait for replica acknowledgement at commit, so the data
// is immediately fresh on replicas; async tables keep their fast commits.
func TestSyncReplicatedTable(t *testing.T) {
	cfg := ThreeCity()
	cfg.TimeScale = 0.05
	cfg.Shards = 3
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	mkSchema := func(name string, sync bool) *Schema {
		return &Schema{
			Name: name,
			Columns: []Column{
				{Name: "id", Kind: Int64},
				{Name: "v", Kind: String},
			},
			PK:             []int{0},
			SyncReplicated: sync,
		}
	}
	if err := db.CreateTable(ctx, mkSchema("config", true)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(ctx, mkSchema("events", false)); err != nil {
		t.Fatal(err)
	}
	sess, _ := db.Connect("xian")

	// Sync-table write: after commit returns, every committed record is on
	// a quorum of that shard's replicas.
	tx, _ := sess.Begin(ctx)
	if err := tx.Insert(ctx, "config", Row{int64(1), "flag=on"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	shard := db.Cluster().ShardOf(int64(1))
	p := db.Cluster().Primaries()[shard]
	// The commit's records are the last ones that are not heartbeats: the
	// collector appends one every few milliseconds, so any number may have
	// landed behind the commit by now.
	frames, _, err := p.Log().ReadFrom(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := redo.Unmarshal(frames)
	if err != nil {
		t.Fatal(err)
	}
	var commitLSN uint64
	for _, r := range recs {
		if r.Type != redo.TypeHeartbeat {
			commitLSN = r.LSN
		}
	}
	acked := false
	for _, sh := range p.Repl().Shippers() {
		if sh.AckedLSN() >= commitLSN {
			acked = true
		}
	}
	if !acked {
		t.Fatal("sync-table commit returned before any replica acked")
	}
	// The row is immediately readable on that shard's replicas at its
	// commit timestamp.
	for _, rep := range db.Cluster().Replicas(shard) {
		if rep.Applier().MaxCommitTS() < tx.Snapshot() {
			continue // quorum is 1: the other replica may lag briefly
		}
		v, found, err := rep.Applier().Store().Get(ctx, mustPK(t, db, "config", int64(1)), tx.Snapshot()+1e9, 0)
		if err != nil || !found {
			t.Fatalf("sync table row missing on caught-up replica: %v %v", found, err)
		}
		_ = v
	}

	// Async-table commits do not wait: they are much faster than the WAN
	// round trip the sync table pays. The fastest of a few commits is
	// compared, since one commit on a loaded machine can stall for longer
	// than that round trip.
	syncD := timeCommits(t, ctx, sess, "config", 10)
	asyncD := timeCommits(t, ctx, sess, "events", 10)
	if asyncD >= syncD {
		t.Fatalf("async commit (%v) must be faster than sync commit (%v)", asyncD, syncD)
	}

	// A transaction touching BOTH tables waits (the sync requirement is
	// transaction-wide once a sync table is written).
	mixed, _ := sess.Begin(ctx)
	if err := mixed.Insert(ctx, "events", Row{int64(20), "e"}); err != nil {
		t.Fatal(err)
	}
	if err := mixed.Insert(ctx, "config", Row{int64(20), "c"}); err != nil {
		t.Fatal(err)
	}
	if err := mixed.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// timeCommits commits one-row inserts into tbl with ids from, from+1, ...
// and returns the fastest commit.
func timeCommits(t *testing.T, ctx context.Context, sess *Session, tbl string, from int64) time.Duration {
	t.Helper()
	fastest := time.Duration(math.MaxInt64)
	for id := from; id < from+5; id++ {
		tx, err := sess.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(ctx, tbl, Row{id, "x"}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		fastest = min(fastest, time.Since(start))
	}
	return fastest
}

func mustPK(t *testing.T, db *DB, tbl string, id int64) []byte {
	t.Helper()
	sch, err := db.Cluster().Catalog.Get(tbl)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sch.PrimaryKeyFromValues([]any{id})
	if err != nil {
		t.Fatal(err)
	}
	return k
}
