package datanode

import (
	"errors"
	"testing"
	"time"

	"globaldb/internal/netsim"
	"globaldb/internal/redo"
	"globaldb/internal/repl"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
	"globaldb/internal/wal"
)

// logFrom returns the primary's redo records from LSN from on.
func logFrom(t *testing.T, p *Primary, from uint64) []redo.Record {
	t.Helper()
	recs, err := p.Log().ReadFrom(from, 1<<20)
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
	arch, err := p.AttachWALOptions(wal.Options{Dir: dir, Sync: wal.SyncGroup}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(n, "east")
	ops := []WriteOp{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}}
	if err := c.WriteThen(bg, "dn0", 7, ts.Max, ops, ThenPrepare, "dn-anchor"); err != nil {
		t.Fatal(err)
	}
	if err := arch.Kill(); err != nil { // crash right after the ack
		t.Fatal(err)
	}
	p.Endpoint().SetDown(true)

	n2 := netsim.New(netsim.Config{TimeScale: 0.2})
	n2.SetLink("east", "west", 2*time.Millisecond, 0)
	p2, closer, err := RecoverPrimaryOptions(n2, "dn0", "east", 0,
		wal.Options{Dir: dir, Sync: wal.SyncGroup}, repl.Async, 1, 0)
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
