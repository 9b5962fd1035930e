package coordinator

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"globaldb/internal/storage/mvcc"
)

// pagesCursor feeds canned pages through a ScanCursor, standing in for a
// data node.
func pagesCursor(pages [][]mvcc.KV) *ScanCursor {
	i := 0
	return newScanCursor(context.Background(), nil, 0, 0, 0, nil, func(context.Context, []byte, int, int) ([]mvcc.KV, []byte, bool, error) {
		p := pages[i]
		i++
		return p, nil, i < len(pages), nil
	})
}

func kv(key string) mvcc.KV { return mvcc.KV{Key: []byte(key), Value: []byte("v" + key)} }

// batchKeys drains a batch cursor, recording each batch's keys.
func batchKeys(t *testing.T, c BatchCursor) [][]string {
	t.Helper()
	var out [][]string
	for c.NextBatch(context.Background()) {
		var b []string
		for _, kv := range c.Batch() {
			b = append(b, string(kv.Key))
		}
		out = append(out, b)
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	return out
}

// TestBatchCursorsMovePages pins the batch shape of the pipeline: a
// ScanCursor hands each data-node page upward whole (skipping an empty one)
// and ends cleanly, and MergeCursors yields the global key order while
// splitting a page only where another shard's keys interleave.
func TestBatchCursorsMovePages(t *testing.T) {
	c := pagesCursor([][]mvcc.KV{{kv("a"), kv("b"), kv("c")}, {}, {kv("d")}})
	if got, want := fmt.Sprint(batchKeys(t, c)), "[[a b c] [d]]"; got != want {
		t.Fatalf("scan cursor batches = %v, want %v", got, want)
	}
	if c.NextBatch(context.Background()) || c.Err() != nil {
		t.Fatalf("expected clean end, err=%v", c.Err())
	}

	merged := MergeCursors(
		pagesCursor([][]mvcc.KV{{kv("a"), kv("b"), kv("e")}}),
		pagesCursor([][]mvcc.KV{{kv("c"), kv("d")}, {kv("f")}}),
	)
	if got, want := fmt.Sprint(batchKeys(t, merged)), "[[a b] [c d] [e] [f]]"; got != want {
		t.Fatalf("merged batches = %v, want %v", got, want)
	}
}

// TestAggMergeAcrossBatches pins two AggMergeCursor properties: a group
// spanning a child batch boundary merges into one output pair, and the
// pending group's bytes are cloned before the child refills (so a child
// that recycles its page buffer cannot corrupt the group being
// assembled).
func TestAggMergeAcrossBatches(t *testing.T) {
	ctx := context.Background()
	// Child recycles one backing buffer across batches, as the BatchCursor
	// contract permits.
	buf := make([]mvcc.KV, 2)
	batches := [][2]string{{"g1", "g2"}, {"g2", "g3"}}
	i := 0
	child := newScanCursor(context.Background(), nil, 0, 0, 0, nil, func(context.Context, []byte, int, int) ([]mvcc.KV, []byte, bool, error) {
		b := batches[i]
		i++
		buf[0] = mvcc.KV{Key: []byte(b[0]), Value: []byte{1}}
		buf[1] = mvcc.KV{Key: []byte(b[1]), Value: []byte{1}}
		return buf, nil, i < len(batches), nil
	})
	m := MergeAggregates(child, func(a, b []byte) ([]byte, error) {
		return []byte{a[0] + b[0]}, nil
	})
	var keys []string
	var counts []int
	for m.NextBatch(ctx) {
		for _, kv := range m.Batch() {
			keys = append(keys, string(kv.Key))
			counts = append(counts, int(kv.Value[0]))
		}
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	if fmt.Sprint(keys) != "[g1 g2 g3]" || fmt.Sprint(counts) != "[1 2 1]" {
		t.Fatalf("merged groups %v counts %v, want [g1 g2 g3] [1 2 1]", keys, counts)
	}
	if !bytes.Equal([]byte("g2"), []byte(keys[1])) {
		t.Fatalf("boundary group key corrupted: %q", keys[1])
	}
}
