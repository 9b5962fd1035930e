package cluster

import (
	"fmt"
	"path/filepath"
	"testing"

	"globaldb/internal/datanode"
	"globaldb/internal/netsim"
	"globaldb/internal/repl"
	"globaldb/internal/table"
	"globaldb/internal/wal"
)

// TestClusterWALDurability runs transactions against a cluster with WAL
// archiving enabled, closes it (draining the WALs), and verifies that each
// shard's full redo stream can be recovered and replayed into a store that
// matches the primary's final watermark.
func TestClusterWALDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCfg()
	cfg.WALDir = dir
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sch := &table.Schema{
		Name:    "kv",
		Columns: []table.Column{{Name: "k", Kind: table.Int64}, {Name: "v", Kind: table.String}},
		PK:      []int{0},
	}
	if err := c.CreateTable(bg, sch); err != nil {
		t.Fatal(err)
	}
	cn := c.CN(cfg.Regions[0])
	for i := 0; i < 60; i++ {
		txn, err := cn.Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		pk, _ := sch.PrimaryKeyFromValues([]any{int64(i)})
		val, _ := sch.EncodeRow(table.Row{int64(i), fmt.Sprintf("v%d", i)})
		if err := txn.WriteBatch(bg, c.ShardOf(int64(i)), []datanode.WriteOp{{Key: pk, Value: val}}); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(bg); err != nil {
			t.Fatal(err)
		}
	}
	c.Close() // stops the heartbeats, then drains the WAL archivers
	// Read the final state after Close: until then the collector's
	// heartbeats keep appending records and advancing watermarks.
	watermarks := make(map[int]int64)
	lsns := make(map[int]uint64)
	for _, p := range c.Primaries() {
		watermarks[p.Shard()] = int64(p.Store().LastCommitTS())
		lsns[p.Shard()] = p.Log().LastLSN()
	}

	for shard := 0; shard < cfg.Shards; shard++ {
		shardDir := filepath.Join(dir, fmt.Sprintf("shard-%d", shard))
		recs, err := wal.Recover(shardDir)
		if err != nil {
			t.Fatalf("shard %d recover: %v", shard, err)
		}
		if uint64(len(recs)) != lsns[shard] {
			t.Fatalf("shard %d: recovered %d records, want %d", shard, len(recs), lsns[shard])
		}
		n := netsim.New(netsim.Config{TimeScale: 0.2})
		n.SetLink("east", "west", 0, 0)
		p, closer, err := datanode.RecoverPrimary(n, fmt.Sprintf("r%d", shard), "east", shard, shardDir, repl.Async, 1)
		if err != nil {
			t.Fatalf("shard %d recover primary: %v", shard, err)
		}
		if got := int64(p.Store().LastCommitTS()); got != watermarks[shard] {
			t.Fatalf("shard %d watermark %d, want %d", shard, got, watermarks[shard])
		}
		closer.Close()
	}
}
