package datanode

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"globaldb/internal/clock"
	"globaldb/internal/netsim"
	"globaldb/internal/redo"
	"globaldb/internal/repl"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
	"globaldb/internal/tso"
	"globaldb/internal/wal"
)

// logFrom returns the primary's redo records from LSN from on.
func logFrom(t *testing.T, p *Primary, from uint64) []redo.Record {
	t.Helper()
	frames, _, err := p.Log().ReadFrom(from, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := redo.Unmarshal(frames)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFusedWriteLogsTheSameStreamAsSeparateMessages pins the protocol-order
// constraint: a WriteReq carrying ops and a Then step appends exactly the
// records the separate Write and Pending/Prepare messages append — heap
// records, then the control record (the anchor in a prepare's Value) — so
// replicas and recovery cannot tell the two apart.
func TestFusedWriteLogsTheSameStreamAsSeparateMessages(t *testing.T) {
	r := newRig(t, repl.Async)
	ops := []WriteOp{{Key: []byte("a"), Value: []byte("1")}, {Delete: true, Key: []byte("b")}}
	type step struct {
		name  string
		run   func(txn uint64) error
		wantT redo.Type
	}
	steps := []step{
		{"separate pending", func(txn uint64) error {
			if err := r.client.Write(bg, "dn0", txn, ts.Max, ops); err != nil {
				return err
			}
			return r.client.Pending(bg, "dn0", txn)
		}, redo.TypePendingCommit},
		{"fused pending", func(txn uint64) error {
			return r.client.WriteThen(bg, "dn0", txn, ts.Max, ops, ThenPending, "")
		}, redo.TypePendingCommit},
		{"separate prepare", func(txn uint64) error {
			if err := r.client.Write(bg, "dn0", txn, ts.Max, ops); err != nil {
				return err
			}
			return r.client.Prepare(bg, "dn0", txn, "dn-anchor")
		}, redo.TypePrepare},
		{"fused prepare", func(txn uint64) error {
			return r.client.WriteThen(bg, "dn0", txn, ts.Max, ops, ThenPrepare, "dn-anchor")
		}, redo.TypePrepare},
	}
	for i, st := range steps {
		txn := uint64(i + 1)
		from := r.primary.Log().LastLSN() + 1
		if err := st.run(txn); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		recs := logFrom(t, r.primary, from)
		if len(recs) != 3 || recs[0].Type != redo.TypeHeapUpdate || recs[1].Type != redo.TypeHeapDelete || recs[2].Type != st.wantT {
			t.Fatalf("%s: log = %+v", st.name, recs)
		}
		for _, rec := range recs {
			if rec.Txn != txn {
				t.Fatalf("%s: record for txn %d in txn %d's stream", st.name, rec.Txn, txn)
			}
		}
		if st.wantT == redo.TypePrepare && string(recs[2].Value) != "dn-anchor" {
			t.Fatalf("%s: prepare record anchor = %q", st.name, recs[2].Value)
		}
		want := mvcc.StatePending
		if st.wantT == redo.TypePrepare {
			want = mvcc.StatePrepared
		}
		if got, ok := r.primary.Store().TxnStateOf(mvcc.TxnID(txn)); !ok || got != want {
			t.Fatalf("%s: txn state = %v %v, want %v", st.name, got, ok, want)
		}
		// Release the keys for the next variant.
		if st.wantT == redo.TypePrepare {
			err := r.client.AbortPrepared(bg, "dn0", txn)
			if err != nil {
				t.Fatal(err)
			}
		} else if err := r.client.Abort(bg, "dn0", txn); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFusedWriteConflictLeavesTxnUnmarked: when an op of a fused message
// loses a write-write conflict the Then step does not run — the transaction
// is neither prepared nor in doubt, only the intents staged before the
// conflict are logged — and the coordinator's abort cleans those up.
func TestFusedWriteConflictLeavesTxnUnmarked(t *testing.T) {
	r := newRig(t, repl.Async)
	if err := r.client.Write(bg, "dn0", 1, ts.Max, []WriteOp{{Key: []byte("held"), Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	from := r.primary.Log().LastLSN() + 1
	ops := []WriteOp{{Key: []byte("free"), Value: []byte("y")}, {Key: []byte("held"), Value: []byte("y")}}
	err := r.client.WriteThen(bg, "dn0", 2, ts.Max, ops, ThenPrepare, "dn-anchor")
	if !errors.Is(err, mvcc.ErrWriteConflict) {
		t.Fatalf("fused write over a held key: %v", err)
	}
	if recs := logFrom(t, r.primary, from); len(recs) != 1 || recs[0].Type != redo.TypeHeapUpdate || string(recs[0].Key) != "free" {
		t.Fatalf("log after a failed fused write = %+v, want only the staged intent", recs)
	}
	if st, ok := r.primary.Store().TxnStateOf(2); !ok || st != mvcc.StateActive {
		t.Fatalf("txn 2 state = %v %v, want active (unmarked)", st, ok)
	}
	if txns, _ := r.client.InDoubt(bg, "dn0"); len(txns) != 0 {
		t.Fatalf("a failed prepare is in doubt: %+v", txns)
	}
	if err := r.client.AbortPrepared(bg, "dn0", 2); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Write(bg, "dn0", 3, ts.Max, []WriteOp{{Key: []byte("free"), Value: []byte("z")}}); err != nil {
		t.Fatalf("key staged before the conflict was not released: %v", err)
	}
}

// TestFusedPrepareAckIsDurable: the ack of a fused Write+Prepare is the same
// durability promise a separate Prepare's is — after a crash the participant
// is in doubt with its anchor and still holds the staged intents.
func TestFusedPrepareAckIsDurable(t *testing.T) {
	dir := t.TempDir()
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.SetLink("east", "west", 2*time.Millisecond, 0)
	p := NewPrimary(n, "dn0", "east", 0, repl.Async, 1)
	w, err := p.AttachWAL(wal.Options{Dir: dir, Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(n, "east")
	ops := []WriteOp{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}}
	if err := c.WriteThen(bg, "dn0", 7, ts.Max, ops, ThenPrepare, "dn-anchor"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // crash right after the ack
		t.Fatal(err)
	}
	p.Endpoint().SetDown(true)

	n2 := netsim.New(netsim.Config{TimeScale: 0.2})
	n2.SetLink("east", "west", 2*time.Millisecond, 0)
	p2, closer, err := RecoverPrimary(n2, "dn0", "east", 0,
		wal.Options{Dir: dir, Sync: wal.SyncGroup}, repl.Async, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	c2 := NewClient(n2, "east")
	txns, err := c2.InDoubt(bg, "dn0")
	if err != nil || len(txns) != 1 || txns[0].Txn != 7 || txns[0].Anchor != "dn-anchor" {
		t.Fatalf("in-doubt after recovery = %+v %v, want txn 7 anchored at dn-anchor", txns, err)
	}
	if err := c2.CommitPrepared(bg, "dn0", 7, 900, false); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if v := p2.Store().Versions([]byte(k)); len(v) != 1 || v[0].CommitTS != 900 {
			t.Fatalf("key %s after recovered commit: %v", k, v)
		}
	}
}

// gclockOracle returns an oracle in GClock mode over a node clock that reads
// src through a device of its own — what cluster.Open gives every primary.
func gclockOracle(name string, src clock.Source) *tso.Oracle {
	o := tso.New(name, clock.NewNode(clock.DefaultNodeConfig(), src, clock.NewDevice("east", src)), nil)
	o.SetMode(ts.ModeGClock)
	return o
}

// TestThenCommitLogsTheSameStreamAsSeparateMessages pins Sec. IV-A's order
// for the one-message commit: it appends exactly the records the Write,
// Pending and Commit messages append — heap records, PENDING COMMIT, then
// COMMIT carrying the timestamp the response reports — and leaves the store
// as they leave it, so replicas and recovery cannot tell the two apart.
func TestThenCommitLogsTheSameStreamAsSeparateMessages(t *testing.T) {
	r := newRig(t, repl.Async)
	r.primary.SetOracle(gclockOracle("dn0", clock.Real()))
	ops := []WriteOp{{Key: []byte("a"), Value: []byte("1")}, {Delete: true, Key: []byte("b")}}
	type run struct {
		recs     []redo.Record
		commitTS ts.Timestamp
	}
	commit := func(txn uint64, fn func() ts.Timestamp) run {
		from := r.primary.Log().LastLSN() + 1
		commitTS := fn()
		if _, ok := r.primary.Store().TxnStateOf(mvcc.TxnID(txn)); ok {
			t.Fatalf("txn %d still open after its commit", txn)
		}
		for _, k := range []string{"a", "b"} {
			if v := r.primary.Store().Versions([]byte(k)); len(v) == 0 || v[0].CommitTS != commitTS {
				t.Fatalf("txn %d: key %s versions %v, want newest at %v", txn, k, v, commitTS)
			}
		}
		return run{logFrom(t, r.primary, from), commitTS}
	}
	separate := commit(1, func() ts.Timestamp {
		if err := r.client.Write(bg, "dn0", 1, ts.Max, ops); err != nil {
			t.Fatal(err)
		}
		if err := r.client.Pending(bg, "dn0", 1); err != nil {
			t.Fatal(err)
		}
		commitTS := r.primary.Store().LastCommitTS() + 1000
		if err := r.client.Commit(bg, "dn0", 1, commitTS, false); err != nil {
			t.Fatal(err)
		}
		return commitTS
	})
	fused := commit(2, func() ts.Timestamp {
		resp, err := r.client.WriteCommit(bg, "dn0", 2, ts.Max, ops, false)
		if err != nil || resp.CommitTS == 0 {
			t.Fatalf("ThenCommit under GClock: %+v %v, want a commit timestamp", resp, err)
		}
		return resp.CommitTS
	})
	if fused.commitTS <= separate.commitTS {
		t.Fatalf("ThenCommit issued %v, not above the earlier commit %v", fused.commitTS, separate.commitTS)
	}
	if len(separate.recs) != 4 || len(fused.recs) != 4 {
		t.Fatalf("log: separate %+v, fused %+v, want four records each", separate.recs, fused.recs)
	}
	for i, want := range separate.recs {
		got := fused.recs[i]
		if got.Type != want.Type || got.Txn != 2 || want.Txn != 1 ||
			string(got.Key) != string(want.Key) || string(got.Value) != string(want.Value) {
			t.Fatalf("record %d: fused %+v, separate %+v", i, got, want)
		}
	}
	if last := fused.recs[3]; last.Type != redo.TypeCommit || last.TS != fused.commitTS ||
		fused.recs[2].Type != redo.TypePendingCommit {
		t.Fatalf("fused tail = %+v, want PENDING COMMIT then COMMIT at %v", fused.recs[2:], fused.commitTS)
	}
	// The replica replays it to the same state.
	waitFor(t, "replica replay", func() bool { return r.replica.Applier().AppliedLSN() == r.primary.Log().LastLSN() })
	if v := r.replica.Applier().Store().Versions([]byte("a")); len(v) != 2 || v[0].CommitTS != fused.commitTS {
		t.Fatalf("replica versions of a = %v", v)
	}
}

// TestThenCommitFallsBackToPending: a primary without an oracle, or whose
// oracle is in DUAL or GTM mode, serves ThenCommit as ThenPending — the
// transaction is staged and pending, no timestamp is issued — and the
// coordinator's Commit message finishes it: the centralized mode through the
// same handler.
func TestThenCommitFallsBackToPending(t *testing.T) {
	r := newRig(t, repl.Async)
	oracle := gclockOracle("dn0", clock.Real())
	for i, mode := range []ts.Mode{ts.ModeGClock /* no oracle set */, ts.ModeDUAL, ts.ModeGTM} {
		if i > 0 {
			r.primary.SetOracle(oracle)
		}
		oracle.SetMode(mode)
		txn := uint64(i + 1)
		from := r.primary.Log().LastLSN() + 1
		key := []byte{'k', byte('0' + i)}
		resp, err := r.client.WriteCommit(bg, "dn0", txn, ts.Max, []WriteOp{{Key: key, Value: []byte("v")}}, false)
		if err != nil || resp.CommitTS != 0 {
			t.Fatalf("case %d: ThenCommit = %+v %v, want no timestamp", i, resp, err)
		}
		if st, ok := r.primary.Store().TxnStateOf(mvcc.TxnID(txn)); !ok || st != mvcc.StatePending {
			t.Fatalf("case %d: txn state %v %v, want pending", i, st, ok)
		}
		if recs := logFrom(t, r.primary, from); len(recs) != 2 || recs[1].Type != redo.TypePendingCommit {
			t.Fatalf("case %d: log = %+v, want heap record then PENDING COMMIT", i, recs)
		}
		if err := r.client.Commit(bg, "dn0", txn, ts.Timestamp(1000+i), false); err != nil {
			t.Fatal(err)
		}
		if v := r.primary.Store().Versions(key); len(v) != 1 || v[0].CommitTS != ts.Timestamp(1000+i) {
			t.Fatalf("case %d: versions after the Commit message = %v", i, v)
		}
	}
}

// TestThenCommitConflictLeavesTxnUnmarked: a ThenCommit that loses a
// write-write conflict neither marks nor commits the transaction; only the
// intents staged before the conflict are logged, and the coordinator's abort
// releases them.
func TestThenCommitConflictLeavesTxnUnmarked(t *testing.T) {
	r := newRig(t, repl.Async)
	r.primary.SetOracle(gclockOracle("dn0", clock.Real()))
	if err := r.client.Write(bg, "dn0", 1, ts.Max, []WriteOp{{Key: []byte("held"), Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	from := r.primary.Log().LastLSN() + 1
	watermark := r.primary.Store().LastCommitTS()
	ops := []WriteOp{{Key: []byte("free"), Value: []byte("y")}, {Key: []byte("held"), Value: []byte("y")}}
	resp, err := r.client.WriteCommit(bg, "dn0", 2, ts.Max, ops, false)
	if !errors.Is(err, mvcc.ErrWriteConflict) || resp.CommitTS != 0 {
		t.Fatalf("ThenCommit over a held key: %+v %v", resp, err)
	}
	if recs := logFrom(t, r.primary, from); len(recs) != 1 || recs[0].Type != redo.TypeHeapUpdate || string(recs[0].Key) != "free" {
		t.Fatalf("log after a failed ThenCommit = %+v, want only the staged intent", recs)
	}
	if st, ok := r.primary.Store().TxnStateOf(2); !ok || st != mvcc.StateActive {
		t.Fatalf("txn 2 state = %v %v, want active (unmarked)", st, ok)
	}
	if v := r.primary.Store().Versions([]byte("free")); len(v) != 0 || r.primary.Store().LastCommitTS() != watermark {
		t.Fatalf("a conflicting ThenCommit committed something: %v, watermark %v -> %v", v, watermark, r.primary.Store().LastCommitTS())
	}
	if err := r.client.Abort(bg, "dn0", 2); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Write(bg, "dn0", 3, ts.Max, []WriteOp{{Key: []byte("free"), Value: []byte("z")}}); err != nil {
		t.Fatalf("key staged before the conflict was not released: %v", err)
	}
}

// TestThenCommitAckIsDurable: an acked ThenCommit survives a crash; and a WAL whose tail was cut after the PENDING
// COMMIT record — the crash that today falls between the two messages —
// recovers the transaction pending and unresolved, exactly as a crash after
// separate Write and Pending messages does.
func TestThenCommitAckIsDurable(t *testing.T) {
	ops := []WriteOp{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}}
	// crash runs write against a fresh WAL-backed primary, kills it, cuts
	// tearBytes off the WAL tail and recovers.
	crash := func(t *testing.T, tearBytes int64, write func(t *testing.T, p *Primary, c *Client) ts.Timestamp) (*Primary, ts.Timestamp) {
		dir := t.TempDir()
		n := netsim.New(netsim.Config{TimeScale: 0.2})
		n.AddRegion("east")
		p := NewPrimary(n, "dn0", "east", 0, repl.Async, 1)
		p.SetOracle(gclockOracle("dn0", clock.Real()))
		w, err := p.AttachWAL(wal.Options{Dir: dir, Sync: wal.SyncGroup})
		if err != nil {
			t.Fatal(err)
		}
		commitTS := write(t, p, NewClient(n, "east"))
		if err := w.Close(); err != nil { // crash right after the ack
			t.Fatal(err)
		}
		p.Endpoint().SetDown(true)
		if tearBytes > 0 {
			segs, err := wal.Segments(dir)
			if err != nil || len(segs) != 1 {
				t.Fatalf("segments: %v %v", segs, err)
			}
			path := filepath.Join(dir, segs[0])
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-tearBytes); err != nil {
				t.Fatal(err)
			}
		}
		p2, closer, err := RecoverPrimary(netsim.New(netsim.Config{TimeScale: 0.2}), "dn0", "east", 0,
			wal.Options{Dir: dir, Sync: wal.SyncGroup}, repl.Async, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closer.Close() })
		return p2, commitTS
	}
	thenCommit := func(t *testing.T, _ *Primary, c *Client) ts.Timestamp {
		resp, err := c.WriteCommit(bg, "dn0", 7, ts.Max, ops, false)
		if err != nil || resp.CommitTS == 0 {
			t.Fatalf("ThenCommit: %+v %v", resp, err)
		}
		return resp.CommitTS
	}

	t.Run("acked commit survives", func(t *testing.T) {
		p, commitTS := crash(t, 0, thenCommit)
		for _, op := range ops {
			if v := p.Store().Versions(op.Key); len(v) != 1 || v[0].CommitTS != commitTS || string(v[0].Value) != string(op.Value) {
				t.Fatalf("key %s after recovery: %v, want %q at %v", op.Key, v, op.Value, commitTS)
			}
		}
		if p.Store().LastCommitTS() != commitTS {
			t.Fatalf("recovered watermark %v, want %v", p.Store().LastCommitTS(), commitTS)
		}
	})

	t.Run("tail cut after PENDING COMMIT", func(t *testing.T) {
		// Three bytes off the tail tear the COMMIT record, the last one.
		cut, _ := crash(t, 3, thenCommit)
		today, _ := crash(t, 0, func(t *testing.T, p *Primary, c *Client) ts.Timestamp {
			if err := c.Write(bg, "dn0", 7, ts.Max, ops); err != nil {
				t.Fatal(err)
			}
			if err := c.Pending(bg, "dn0", 7); err != nil {
				t.Fatal(err)
			}
			// Pending's ack promises no durability; wait for the records to be
			// durable so the crash happens after them, not before.
			if err := p.WAL().WaitDurable(bg, p.Log().LastLSN()); err != nil {
				t.Fatal(err)
			}
			return 0
		})
		for name, p := range map[string]*Primary{"cut ThenCommit": cut, "Write+Pending": today} {
			if st, ok := p.Store().TxnStateOf(7); !ok || st != mvcc.StatePending {
				t.Fatalf("%s: txn state %v %v, want pending", name, st, ok)
			}
			if recs := logFrom(t, p, 1); len(recs) != 3 || recs[2].Type != redo.TypePendingCommit {
				t.Fatalf("%s: recovered log %+v, want two heap records and PENDING COMMIT", name, recs)
			}
			for _, op := range ops {
				if v := p.Store().Versions(op.Key); len(v) != 0 {
					t.Fatalf("%s: key %s has committed versions %v", name, op.Key, v)
				}
			}
		}
	})
}

// TestThenCommitWatermarkFloor is the heartbeat hazard, made deterministic
// with a manual clock. A heartbeat timestamp t = Tclock + Terr is logged
// without a commit wait, so it is ahead of true time; the primary's own
// clock, within its bound, trails the heartbeat's. A ThenCommit right then —
// no time passing — must still commit above t (a replica that replayed the
// heartbeat says the shard is complete up to t), and the primary's oracle
// must account for the bumped value so a transition's floor covers it.
func TestThenCommitWatermarkFloor(t *testing.T) {
	src := clock.NewManual(time.Unix(1_700_000_000, 0))
	device := clock.NewDevice("east", src)
	node := func(driftPPM float64) *clock.Node {
		n := clock.NewNode(clock.DefaultNodeConfig(), src, device)
		n.SetDriftPPM(driftPPM)
		return n
	}
	// Both oscillators stay inside the advertised 200 PPM: the CN's runs
	// fast, the primary's slow. 100 ms after the last sync they read
	// true+20µs and true-20µs, each ±80µs.
	hb := tso.New("cn", node(+200), nil)
	hb.SetMode(ts.ModeGClock)
	primaryClock := node(-200)
	oracle := tso.New("dn0", primaryClock, nil)
	oracle.SetMode(ts.ModeGClock)
	src.Advance(100 * time.Millisecond)

	r := newRig(t, repl.Async)
	r.primary.SetOracle(oracle)
	hbTS, _, err := hb.Commit(bg, ts.ModeGClock) // as cluster.Open's heartbeat provider: no commit wait
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.Heartbeat(bg, "dn0", hbTS); err != nil {
		t.Fatal(err)
	}
	reading := primaryClock.Now()
	if lag := hbTS.Sub(reading.Upper()); lag <= 0 || lag >= reading.Err {
		t.Fatalf("rig: heartbeat %v vs primary clock upper %v (err %v): want the primary behind by less than its bound",
			hbTS, reading.Upper(), reading.Err)
	}
	resp, err := r.client.WriteCommit(bg, "dn0", 1, ts.Max, []WriteOp{{Key: []byte("k"), Value: []byte("v")}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CommitTS <= hbTS {
		t.Fatalf("ThenCommit issued %v under the logged heartbeat %v", resp.CommitTS, hbTS)
	}
	if want := resp.CommitTS.Sub(reading.Upper()); resp.FloorBump != want {
		t.Fatalf("FloorBump = %v, want %v", resp.FloorBump, want)
	}
	if st := oracle.ClockState(); st.Upper() < resp.CommitTS {
		t.Fatalf("ClockState %v (upper %v) does not cover the issued %v", st, st.Upper(), resp.CommitTS)
	}
	// Once the clock has passed the watermark it wins and nothing is bumped.
	src.Advance(time.Millisecond)
	resp2, err := r.client.WriteCommit(bg, "dn0", 2, ts.Max, []WriteOp{{Key: []byte("k"), Value: []byte("w")}}, false)
	if err != nil || resp2.CommitTS <= resp.CommitTS || resp2.FloorBump != 0 {
		t.Fatalf("second ThenCommit = %+v %v, want a clock timestamp above %v", resp2, err, resp.CommitTS)
	}
}
