package repl

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"globaldb/internal/netsim"
	"globaldb/internal/redo"
)

// Batch is the wire unit of log shipping.
type Batch struct {
	// From is the LSN of the first record in Data.
	From uint64
	// Count is the number of records in Data.
	Count int
	// Compressed marks Data as an LZ4 block, the only compressor that
	// shrinks a batch (Noop never does, so it never sets the flag).
	Compressed bool
	// Data holds the records' frames as the primary's log holds them, or an
	// LZ4 block of them. Uncompressed, it is a view of the log: read-only.
	Data []byte
}

// Ack is the replica's response to a batch.
type Ack struct {
	// AppliedLSN is the replica's new applied position. On a gap it tells
	// the shipper where to rewind.
	AppliedLSN uint64
}

// ShipperConfig tunes a shipper.
type ShipperConfig struct {
	// BatchMax bounds records per batch.
	BatchMax int
	// FlushDelay is how long the shipper lingers after the first pending
	// record to accumulate a fuller batch — the knob that models aggressive
	// flushing (GlobalDB) versus buffered shipping (baseline). It applies
	// only while an earlier batch is unacked; a record that finds the link
	// idle leaves at once, and so does a batch whose newest record is a
	// heartbeat, which the RCP is waiting for.
	FlushDelay time.Duration
	// Compressor encodes batches; Noop for the baseline, LZ4 for GlobalDB.
	Compressor Compressor
	// RetryDelay is the pause after a failed send (replica down, partition).
	RetryDelay time.Duration
	// Window is the maximum number of unacked batches in flight. 1 (and 0)
	// is stop-and-wait: each batch pays a full WAN round trip before the
	// next leaves. Larger windows pipeline sends so the log drains at
	// bandwidth rather than latency — the replica stashes out-of-order
	// arrivals and acks carry its applied LSN, so a lost or reordered
	// batch just rewinds the cursor.
	Window int
}

// DefaultShipperWindow is the pipelined in-flight batch budget.
const DefaultShipperWindow = 4

// DefaultShipperConfig returns GlobalDB's optimized shipping parameters.
func DefaultShipperConfig() ShipperConfig {
	return ShipperConfig{
		BatchMax:   512,
		FlushDelay: 200 * time.Microsecond,
		Compressor: LZ4{},
		RetryDelay: 5 * time.Millisecond,
		Window:     DefaultShipperWindow,
	}
}

// BaselineShipperConfig returns the unoptimized baseline: no compression,
// sluggish flushing, stop-and-wait acks.
func BaselineShipperConfig() ShipperConfig {
	return ShipperConfig{
		BatchMax:   512,
		FlushDelay: 2 * time.Millisecond,
		Compressor: Noop{},
		RetryDelay: 5 * time.Millisecond,
		Window:     1,
	}
}

// ShipperStats are cumulative shipping counters.
type ShipperStats struct {
	Batches      int64
	Records      int64
	RawBytes     int64
	WireBytes    int64
	SendFailures int64
	AckedLSN     uint64
}

// Shipper tails a primary's redo log and streams batches to one replica
// endpoint over the simulated network, tracking the replica's applied LSN.
type Shipper struct {
	cfg      ShipperConfig
	net      *netsim.Network
	from     string // primary's region
	endpoint string // replica's replication endpoint

	log    *redo.Log
	cancel context.CancelFunc
	done   chan struct{}

	acked atomic.Uint64
	onAck func(lsn uint64)

	mu    sync.Mutex
	stats ShipperStats
}

// NewShipper creates a shipper from a primary log in region from to the
// replica's endpoint. onAck (optional) fires on every acknowledgement.
func NewShipper(cfg ShipperConfig, n *netsim.Network, from, endpoint string, log *redo.Log, onAck func(uint64)) *Shipper {
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 512
	}
	if cfg.Compressor == nil {
		cfg.Compressor = Noop{}
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 5 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = 1 // zero-value config keeps stop-and-wait semantics
	}
	return &Shipper{cfg: cfg, net: n, from: from, endpoint: endpoint, log: log, onAck: onAck}
}

// Start launches the shipping loop.
func (s *Shipper) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.done = make(chan struct{})
	go s.run(ctx)
}

// Stop terminates the loop and waits for it to exit.
func (s *Shipper) Stop() {
	if s.cancel != nil {
		s.cancel()
		<-s.done
	}
}

// AckedLSN returns the replica's last acknowledged applied LSN.
func (s *Shipper) AckedLSN() uint64 { return s.acked.Load() }

// Stats returns a snapshot of shipping counters.
func (s *Shipper) Stats() ShipperStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.AckedLSN = s.acked.Load()
	return st
}

// Lag returns how many records the replica is behind the primary log.
func (s *Shipper) Lag() uint64 {
	last := s.log.LastLSN()
	acked := s.acked.Load()
	if acked >= last {
		return 0
	}
	return last - acked
}

// stopDrainTimeout bounds how long Stop waits for in-flight batch acks.
const stopDrainTimeout = 2 * time.Second

// compressMinBytes is the framed size below which a batch skips the
// compressor.
const compressMinBytes = 256

// run is the shipping loop: a sliding window of in-flight batches. The
// cursor advances optimistically past each batch as it is handed to a
// sender goroutine; acks (which may arrive out of order) carry the
// replica's applied LSN and only ever raise the acked watermark. When every
// send has completed but the watermark sits below the cursor — a reordered
// batch was rejected, or a send failed — the cursor rewinds to acked+1 and
// the gap is re-shipped (at-least-once delivery; the applier deduplicates).
func (s *Shipper) run(ctx context.Context) {
	defer close(s.done)
	// Sends run on their own context so Stop() can DRAIN the window rather
	// than cancel it: with stop-and-wait this loop used to die mid-Call and
	// lose the ack for a batch the replica had already applied, leaving
	// AckedLSN stale for whoever reads it after Stop.
	sendCtx, cancelSend := context.WithCancel(context.Background())
	defer cancelSend()

	type result struct {
		acked uint64
		err   error
	}
	results := make(chan result, s.cfg.Window) // cap=window: senders never block
	inflight := 0
	sawFail := false
	cursor := uint64(1)

	handle := func(r result) {
		inflight--
		if r.err != nil {
			if !errors.Is(r.err, context.Canceled) {
				s.mu.Lock()
				s.stats.SendFailures++
				s.mu.Unlock()
				metricSendFailures.Inc()
			}
			sawFail = true
			return
		}
		for { // max-merge: a stale ack must not regress the watermark
			cur := s.acked.Load()
			if r.acked <= cur || s.acked.CompareAndSwap(cur, r.acked) {
				break
			}
		}
		if s.onAck != nil {
			s.onAck(s.acked.Load())
		}
	}
	drain := func(limit time.Duration) {
		timer := time.NewTimer(limit)
		defer timer.Stop()
		for inflight > 0 {
			select {
			case r := <-results:
				handle(r)
			case <-timer.C:
				return
			}
		}
	}

	for {
		// Reap completed sends without blocking.
		for done := false; !done; {
			select {
			case r := <-results:
				handle(r)
			default:
				done = true
			}
		}
		if ctx.Err() != nil {
			drain(stopDrainTimeout)
			return
		}
		if inflight == 0 {
			if sawFail {
				sawFail = false
				cursor = s.acked.Load() + 1
				select {
				case <-time.After(s.cfg.RetryDelay):
				case <-ctx.Done():
				}
				continue
			}
			if next := s.acked.Load() + 1; cursor > next {
				cursor = next // stalled: re-ship the unacked gap
			}
		}
		if inflight >= s.cfg.Window {
			select {
			case r := <-results:
				handle(r)
			case <-ctx.Done():
			}
			continue
		}
		frames, n, err := s.log.ReadFrom(cursor, s.cfg.BatchMax)
		if err != nil {
			// Truncated past our cursor: jump forward. In a production
			// system this replica would need a full rebuild; the manager
			// only truncates below the minimum acked LSN, so this is a
			// defensive path.
			cursor = s.acked.Load() + 1
			continue
		}
		if n == 0 {
			notify := s.log.NotifyAppend()
			if frames, n, _ = s.log.ReadFrom(cursor, s.cfg.BatchMax); n == 0 {
				select {
				case <-notify:
				case r := <-results:
					handle(r)
				case <-ctx.Done():
				}
				continue
			}
		}
		// Linger to accumulate a fuller cross-transaction batch (the baseline
		// buffers longer) — but only while a batch is on the wire, as Nagle
		// does: on an idle link there is nothing to coalesce with. And never
		// behind a heartbeat: its whole purpose is to reach the replicas now,
		// and on a link whose round trip outlasts the heartbeat interval a
		// batch is always on the wire. Acks keep landing while we wait, and
		// the last one ends the wait.
		if s.cfg.FlushDelay > 0 && n < s.cfg.BatchMax && inflight > 0 && !s.endsInHeartbeat(cursor, n) {
			timer := time.NewTimer(s.cfg.FlushDelay)
			for lingering := true; lingering && inflight > 0; {
				select {
				case <-timer.C:
					lingering = false
				case r := <-results:
					handle(r)
				case <-ctx.Done():
					lingering = false
				}
			}
			timer.Stop()
			if ctx.Err() != nil || inflight == 0 {
				// Stopping, or the link went idle: the top of the loop drains,
				// or rewinds the cursor if the last ack left a gap, and comes
				// back here without a linger.
				continue
			}
			if more, m, _ := s.log.ReadFrom(cursor, s.cfg.BatchMax); m > n {
				frames, n = more, m
			}
		}

		// The batch is the log's own frames, sent as they are or as one LZ4
		// block. A batch under compressMinBytes goes out as it is: a record or
		// two holds no repeat for LZ4 to find (a 22-byte heartbeat encodes to
		// 25 bytes), so the call would only clear its 16 KB hash table and
		// allocate, and the idle cluster's traffic is exactly that — one
		// heartbeat record per batch per replica.
		wire, compressed := frames, false
		if len(frames) >= compressMinBytes {
			if enc, err := s.cfg.Compressor.Compress(frames); err == nil && len(enc) < len(frames) {
				wire, compressed = enc, true
			}
		}
		batch := Batch{From: cursor, Count: n, Compressed: compressed, Data: wire}

		s.mu.Lock()
		s.stats.Batches++
		s.stats.Records += int64(n)
		s.stats.RawBytes += int64(len(frames))
		s.stats.WireBytes += int64(len(wire))
		s.mu.Unlock()
		metricBatches.Inc()
		metricRecords.Add(int64(n))
		metricRawBytes.Add(int64(len(frames)))
		metricWireBytes.Add(int64(len(wire)))

		cursor += uint64(n)
		inflight++
		go func() {
			resp, err := s.net.Call(sendCtx, s.from, s.endpoint, netsim.Message{Payload: batch, Size: len(wire) + 32})
			if err != nil {
				results <- result{err: err}
				return
			}
			results <- result{acked: resp.Payload.(Ack).AppliedLSN}
		}()
	}
}

// endsInHeartbeat reports whether the newest of the n records from cursor is
// a heartbeat, read through the log's frame index.
func (s *Shipper) endsInHeartbeat(cursor uint64, n int) bool {
	t, ok := s.log.TypeAt(cursor + uint64(n) - 1)
	return ok && t == redo.TypeHeartbeat
}

// applierStashMax bounds the reorder stash: beyond this many parked
// batches an early arrival is dropped and the shipper re-ships it.
const applierStashMax = 64

// ServeApplier registers a replication endpoint that replays incoming
// batches into applier with Apply and acknowledges the applied LSN. It
// returns the endpoint for failure injection. Replay runs on the endpoint's
// handler, beside the replica's readers, one batch at a time.
//
// Pipelined shippers put several batches on the wire at once and the
// simulated network preserves no ordering between them, so batch N+1 can
// arrive before batch N. A bounded reorder stash parks such early arrivals
// and replays them the moment the gap fills, instead of rejecting them and
// forcing a rewind round trip.
func ServeApplier(n *netsim.Network, name, region string, applier *Applier) *netsim.Endpoint {
	var (
		stashMu sync.Mutex
		stash   = map[uint64][]redo.Record{} // batch From -> decoded records
	)
	ack := func() (netsim.Message, error) {
		return netsim.Message{Payload: Ack{AppliedLSN: applier.AppliedLSN()}, Size: 16}, nil
	}
	return n.Register(name, region, func(_ context.Context, m netsim.Message) (netsim.Message, error) {
		batch, ok := m.Payload.(Batch)
		if !ok {
			return netsim.Message{}, errors.New("repl: bad batch payload")
		}
		data := batch.Data
		if batch.Compressed {
			var err error
			if data, err = (LZ4{}).Decompress(data); err != nil {
				return netsim.Message{}, err
			}
		}
		recs, err := redo.Unmarshal(data)
		if err != nil {
			return netsim.Message{}, err
		}
		stashMu.Lock()
		defer stashMu.Unlock()
		if batch.From > applier.AppliedLSN()+1 {
			// Early arrival: park it (the ack below reports the current
			// applied LSN, which the shipper treats as "not yet").
			if len(stash) < applierStashMax {
				stash[batch.From] = recs
			}
			return ack()
		}
		if _, err := applier.Apply(recs); err != nil {
			return ack() // overlap raced another apply; shipper rewinds
		}
		// The gap may have filled: replay every stashed batch that is now
		// contiguous (duplicates and overlaps dedupe inside the applier).
		for {
			ready := uint64(0)
			for from := range stash {
				if from <= applier.AppliedLSN()+1 {
					ready = from
					break
				}
			}
			if ready == 0 {
				break
			}
			parked := stash[ready]
			delete(stash, ready)
			if _, err := applier.Apply(parked); err != nil {
				break
			}
		}
		return ack()
	})
}
