package datanode

import (
	"bytes"
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"globaldb/internal/netsim"
	"globaldb/internal/repl"
	"globaldb/internal/ts"
	"globaldb/internal/wal"
)

// The redo golden test pins every byte a primary's redo stream puts on disk
// and on the wire for a fixed request sequence: the WAL segment file, and the
// Data of each batch its shipper sends — one LZ4 block and one batch small
// enough to go out raw. A change to how records are framed, logged, written
// or shipped must leave all of it unchanged.

const (
	goldenWALHex = "2c00000080630d5e020107000a676f6c64656e2f6b30301c676f6c64656e20676f6c64656e20676f6c64656e20676f6c64656e202c000000" +
		"cb28b7f8020207000a676f6c64656e2f6b30311c676f6c64656e20676f6c64656e20676f6c64656e20676f6c64656e202c00000041c02154" +
		"020307000a676f6c64656e2f6b30321c676f6c64656e20676f6c64656e20676f6c64656e20676f6c64656e202c000000acc82fb002040700" +
		"0a676f6c64656e2f6b30331c676f6c64656e20676f6c64656e20676f6c64656e20676f6c64656e202c0000000224544a020507000a676f6c" +
		"64656e2f6b30341c676f6c64656e20676f6c64656e20676f6c64656e20676f6c64656e2006000000df92b86c04060700000007000000d40c" +
		"2104050707d00f00002c0000003582af5d020808000a676f6c64656e2f6b30351c676f6c64656e20676f6c64656e20676f6c64656e20676f" +
		"6c64656e2009000000085164df070908000003646e390700000028a01a4f0b0a00a01f0000"
	goldenLZ4Hex = "e602f2092c00000080630d5e020107000a676f6c64656e2f6b30301c0b001f2007000200340068cb28b7f8020234001f3134000e6841c021" +
		"54020334001f3234000e68acc82fb0020434001f3334000e680224544a020534001f3434000ae006000000df92b86c0406070000000400b0" +
		"d40c2104050707d00f0000ed00773582af5d02080821011f3551000af00209000000085164df070908000003646e39"
	goldenSmallHex = "0700000028a01a4f0b0a00a01f0000"
)

// TestRedoGoldenBytes drives one primary with a WAL that fsyncs every append and one
// replica through a heap batch, PENDING COMMIT and COMMIT, a PREPARE that
// carries its anchor, and a heartbeat, then compares the WAL file and the
// shipped batches with the pinned hex.
func TestRedoGoldenBytes(t *testing.T) {
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.SetLink("east", "west", time.Millisecond, 0)
	p := NewPrimary(n, "dn0", "east", 0, repl.Async, 1)
	dir := t.TempDir()
	w, err := p.AttachWAL(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rep := NewReplica(n, "dn0r0", "west", 0)

	var (
		mu   sync.Mutex
		seen []repl.Batch
	)
	n.Register("tap", "west", func(ctx context.Context, m netsim.Message) (netsim.Message, error) {
		mu.Lock()
		seen = append(seen, m.Payload.(repl.Batch))
		mu.Unlock()
		return n.Call(ctx, "west", ReplEndpointName(rep.ID()), m)
	})
	sh := repl.NewShipper(repl.DefaultShipperConfig(), n, p.Region(), "tap", p.Log(), p.Repl().AckHook())
	p.Repl().AddShipper(sh)

	c := NewClient(n, "east")
	value := []byte(strings.Repeat("golden ", 4))
	var heap []WriteOp
	for i := 0; i < 5; i++ {
		heap = append(heap, WriteOp{Key: []byte("golden/k0" + string(rune('0'+i))), Value: value})
	}
	if err := c.WriteThen(bg, "dn0", 7, 1, heap, ThenPending, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(bg, "dn0", 7, ts.Timestamp(1000), false); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteThen(bg, "dn0", 8, 1, []WriteOp{{Key: []byte("golden/k05"), Value: value}}, ThenPrepare, "dn9"); err != nil {
		t.Fatal(err)
	}
	// Everything so far leaves in one batch, large enough to compress.
	sh.Start()
	defer sh.Stop()
	first := p.Log().LastLSN()
	waitFor(t, "first batch ack", func() bool { return sh.AckedLSN() == first })
	if err := c.Heartbeat(bg, "dn0", ts.Timestamp(2000)); err != nil {
		t.Fatal(err)
	}
	last := p.Log().LastLSN()
	waitFor(t, "heartbeat ack", func() bool { return sh.AckedLSN() == last })

	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	file, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(file); got != goldenWALHex {
		t.Errorf("WAL segment changed:\n got %s\nwant %s", got, goldenWALHex)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("batches shipped = %d, want 2", len(seen))
	}
	for i, want := range []struct {
		from       uint64
		count      int
		compressed bool
		data       string
	}{{1, 9, true, goldenLZ4Hex}, {10, 1, false, goldenSmallHex}} {
		b := seen[i]
		if b.From != want.from || b.Count != want.count || b.Compressed != want.compressed {
			t.Errorf("batch %d: from %d count %d compressed %v, want %d %d %v",
				i, b.From, b.Count, b.Compressed, want.from, want.count, want.compressed)
		}
		if got := hex.EncodeToString(b.Data); got != want.data {
			t.Errorf("batch %d data changed:\n got %s\nwant %s", i, got, want.data)
		}
	}
	// The raw batches concatenate to the WAL file: one stream, two carriers.
	raw, err := (repl.LZ4{}).Decompress(seen[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(raw, seen[1].Data...), file) {
		t.Error("shipped frames differ from the WAL's")
	}
	if rep.Applier().AppliedLSN() != last {
		t.Errorf("replica applied %d, want %d", rep.Applier().AppliedLSN(), last)
	}
}
