package repl

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"globaldb/internal/netsim"
	"globaldb/internal/redo"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
)

// pipeCfg is a shipping config that forces many small batches, so the
// window (not the batch size) dominates catch-up time.
func pipeCfg(window int) ShipperConfig {
	return ShipperConfig{
		BatchMax:   8,
		FlushDelay: 0,
		Compressor: Noop{},
		RetryDelay: time.Millisecond,
		Window:     window,
	}
}

func shipBacklog(t *testing.T, window int) time.Duration {
	t.Helper()
	r := newShipRig(t, 40*time.Millisecond, 0, pipeCfg(window), Async)
	for i := 0; i < 64; i++ {
		writeTxn(r.log, uint64(i+1), ts.Timestamp((i+1)*10), map[string]string{fmt.Sprintf("k%d", i): "v"})
	}
	last := r.log.LastLSN()
	start := time.Now()
	waitFor(t, "catch-up", 10*time.Second, func() bool { return r.shipper.AckedLSN() == last })
	elapsed := time.Since(start)
	if r.applier.AppliedLSN() != last {
		t.Fatalf("applied %d, want %d", r.applier.AppliedLSN(), last)
	}
	return elapsed
}

// TestShipperPipelineBeatsStopAndWait: with a backlog of many small batches
// over a high-latency link, a windowed shipper drains at bandwidth while
// stop-and-wait pays a full round trip per batch. Also exercises the
// applier's reorder stash: concurrent in-flight batches arrive in whatever
// order the simulated WAN delivers them.
func TestShipperPipelineBeatsStopAndWait(t *testing.T) {
	stopWait := shipBacklog(t, 1)
	pipelined := shipBacklog(t, 4)
	if pipelined >= stopWait {
		t.Fatalf("window=4 (%v) not faster than stop-and-wait (%v)", pipelined, stopWait)
	}
}

// TestShipperStopPreservesAck: Stop() during an in-flight batch must not
// drop the ack the replica is about to return. The invariant after Stop is
// acked == applied — the shipper's view of the replica cannot be staler
// than what the replica durably applied. (The old stop-and-wait loop died
// inside its send call on cancellation, losing exactly that ack.)
func TestShipperStopPreservesAck(t *testing.T) {
	for _, preStop := range []time.Duration{0, 2 * time.Millisecond, 5 * time.Millisecond} {
		r := newShipRig(t, 20*time.Millisecond, 0, pipeCfg(4), Async)
		for i := 0; i < 16; i++ {
			writeTxn(r.log, uint64(i+1), ts.Timestamp((i+1)*10), map[string]string{fmt.Sprintf("k%d", i): "v"})
		}
		time.Sleep(preStop) // stagger Stop against the in-flight window
		r.shipper.Stop()
		if acked, applied := r.shipper.AckedLSN(), r.applier.AppliedLSN(); acked != applied {
			t.Fatalf("preStop=%v: acked=%d but replica applied %d", preStop, acked, applied)
		}
	}
}

// lingerCfg lingers for a second wherever the shipper lingers at all, so a
// test can tell a record that waited from one that did not.
func lingerCfg() ShipperConfig {
	cfg := DefaultShipperConfig()
	cfg.FlushDelay = time.Second
	return cfg
}

// TestShipperIdleLinkSendsAtOnce: FlushDelay exists to coalesce records with
// a batch that is already on the wire. A record that finds the link idle —
// every heartbeat of a quiet shard — has nothing to wait for and leaves at
// once.
func TestShipperIdleLinkSendsAtOnce(t *testing.T) {
	r := newShipRig(t, 20*time.Millisecond, 0, lingerCfg(), Async) // x0.2: 4 ms round trip
	for i := 1; i <= 3; i++ {
		start := time.Now()
		lsn := r.log.Append(redo.Record{Type: redo.TypeHeartbeat, TS: ts.Timestamp(100 * i)})
		waitFor(t, "ack", 5*time.Second, func() bool { return r.shipper.AckedLSN() == lsn })
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Fatalf("record %d on an idle link was acked after %v; FlushDelay is %v", i, took, time.Second)
		}
	}
	if st := r.shipper.Stats(); st.Batches != 3 {
		t.Fatalf("batches = %d, want one per record", st.Batches)
	}
}

// TestShipperCoalescesBehindABatchInFlight: records appended while a batch is
// unacked wait for each other and leave as one batch — when the ack arrives,
// which ends the linger early, or when FlushDelay runs out.
func TestShipperCoalescesBehindABatchInFlight(t *testing.T) {
	r := newShipRig(t, 400*time.Millisecond, 0, lingerCfg(), Async) // x0.2: 80 ms round trip
	r.log.Append(redo.Record{Type: redo.TypeHeartbeat, TS: 100})
	waitFor(t, "first batch on the wire", 5*time.Second, func() bool { return r.shipper.Stats().Batches == 1 })
	const behind = 5
	var last uint64
	for i := 0; i < behind; i++ {
		last = r.log.Append(redo.Record{Type: redo.TypeHeartbeat, TS: ts.Timestamp(200 + i)})
	}
	if st := r.shipper.Stats(); st.Batches != 1 || st.AckedLSN != 0 {
		t.Fatalf("the first batch was acked before the rest were appended (%+v): nothing was in flight", st)
	}
	start := time.Now()
	waitFor(t, "ack of the rest", 5*time.Second, func() bool { return r.shipper.AckedLSN() == last })
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("the records behind the first batch were acked after %v: its ack did not end the linger", took)
	}
	if st := r.shipper.Stats(); st.Batches != 2 || st.Records != 1+behind {
		t.Fatalf("%d records left in %d batches, want the %d behind the first in one", st.Records, st.Batches, behind)
	}
}

// TestEndpointReplaysEitherCompressor: the endpoint decodes a batch by its
// Compressed flag alone, so a baseline (Noop) shipper and a default (Flate)
// shipper replay through the same endpoint. The first ships half the log
// raw; the second takes over from LSN 1, the applier drops what it already
// has, and the rest arrives compressed.
func TestEndpointReplaysEitherCompressor(t *testing.T) {
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.SetLink("primary", "replica", time.Millisecond, 0)
	log := redo.NewLog()
	applier := NewApplier(mvcc.NewStore())
	ServeApplier(n, "ep", "replica", applier)
	value := bytes.Repeat([]byte("redo "), 200)
	ship := func(cfg ShipperConfig, from, to int) ShipperStats {
		for i := from; i < to; i++ {
			writeTxn(log, uint64(i+1), ts.Timestamp((i+1)*10), map[string]string{fmt.Sprintf("k%d", i): string(value)})
		}
		sh := NewShipper(cfg, n, "primary", "ep", log, nil)
		sh.Start()
		defer sh.Stop()
		last := log.LastLSN()
		waitFor(t, "ack", 5*time.Second, func() bool { return sh.AckedLSN() == last })
		return sh.Stats()
	}
	if st := ship(BaselineShipperConfig(), 0, 10); st.WireBytes != st.RawBytes {
		t.Fatalf("baseline shipper compressed: %+v", st)
	}
	if st := ship(DefaultShipperConfig(), 10, 20); st.WireBytes >= st.RawBytes/2 {
		t.Fatalf("default shipper did not compress: %+v", st)
	}
	if applier.AppliedLSN() != log.LastLSN() || applier.MaxCommitTS() != 200 {
		t.Fatalf("applied LSN %d of %d, watermark %v", applier.AppliedLSN(), log.LastLSN(), applier.MaxCommitTS())
	}
	for i := 0; i < 20; i++ {
		if v, ok, err := applier.Store().Get(bg, []byte(fmt.Sprintf("k%d", i)), ts.Max, 0); err != nil || !ok || !bytes.Equal(v, value) {
			t.Fatalf("k%d: found=%v err=%v, %d bytes", i, ok, err, len(v))
		}
	}
}

// TestShipperSmallBatchSkipsCompressor: under compressMinBytes a batch goes
// out raw; a large one is compressed and replays to the same records.
func TestShipperSmallBatchSkipsCompressor(t *testing.T) {
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.SetLink("primary", "replica", time.Millisecond, 0)
	log := redo.NewLog()
	applier := NewApplier(mvcc.NewStore())
	ServeApplier(n, "inner", "replica", applier)
	var seen []Batch
	var mu sync.Mutex
	n.Register("tap", "replica", func(ctx context.Context, m netsim.Message) (netsim.Message, error) {
		mu.Lock()
		seen = append(seen, m.Payload.(Batch))
		mu.Unlock()
		return n.Call(ctx, "replica", "inner", m)
	})
	sh := NewShipper(DefaultShipperConfig(), n, "primary", "tap", log, nil)
	sh.Start()
	defer sh.Stop()

	small := log.Append(redo.Record{Type: redo.TypeHeapUpdate, Txn: 1, Key: []byte("k"), Value: bytes.Repeat([]byte("v"), 150)})
	waitFor(t, "small batch ack", 5*time.Second, func() bool { return sh.AckedLSN() == small })
	big := log.Append(redo.Record{Type: redo.TypeHeapUpdate, Txn: 1, Key: []byte("k2"), Value: bytes.Repeat([]byte("w"), 4096)})
	waitFor(t, "big batch ack", 5*time.Second, func() bool { return sh.AckedLSN() == big })

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("batches seen = %d, want 2", len(seen))
	}
	if b := seen[0]; b.Compressed || len(b.Data) >= compressMinBytes || len(b.Data) < 150 {
		t.Fatalf("small batch: compressed=%v, %d bytes on the wire", b.Compressed, len(b.Data))
	}
	if b := seen[1]; !b.Compressed || len(b.Data) >= 1024 {
		t.Fatalf("4 KB batch: compressed=%v, %d bytes on the wire", b.Compressed, len(b.Data))
	}
	if applier.AppliedLSN() != big {
		t.Fatalf("applied %d, want %d", applier.AppliedLSN(), big)
	}
	st := sh.Stats()
	if st.WireBytes >= st.RawBytes || st.RawBytes < 4096+150 {
		t.Fatalf("stats: %+v", st)
	}
}
