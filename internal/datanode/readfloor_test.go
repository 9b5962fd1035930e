package datanode

import (
	"testing"
	"time"

	"globaldb/internal/clock"
	"globaldb/internal/obs"
	"globaldb/internal/repl"
	"globaldb/internal/ts"
	"globaldb/internal/tso"
)

// TestThenCommitAboveReadFloor, on a manual clock: a read, a scan page and a
// write each raise the primary's read floor to their snapshot, here one
// that leads the primary's clock as a faster CN's Tclock + Terr does, and a
// ThenCommit right after is issued above the floor rather than from the
// clock. That commit is counted in dn_read_floor_bumps_total and its
// FloorBump is the distance. A PREPARE ack returns the floor. The one read of
// a one-read context and a one-write commit raise nothing, nor does ts.Max.
func TestThenCommitAboveReadFloor(t *testing.T) {
	src := clock.NewManual(time.Unix(1_700_000_000, 0))
	primaryClock := clock.NewNode(clock.DefaultNodeConfig(), src, clock.NewDevice("east", src))
	oracle := tso.New("dn0", primaryClock, nil)
	oracle.SetMode(ts.ModeGClock)
	r := newRig(t, repl.Async)
	r.primary.SetOracle(oracle)
	bumps := obs.Default.Counter(MetricReadFloorBumps)
	commit := func(txn uint64, key string) WriteResp {
		t.Helper()
		resp, err := r.client.WriteCommit(bg, "dn0", txn, ts.Max, []WriteOp{{Key: []byte(key), Value: []byte("v")}}, false, 0)
		if err != nil || resp.CommitTS == 0 {
			t.Fatalf("ThenCommit = %+v, %v", resp, err)
		}
		return resp
	}
	ahead := func(d time.Duration) ts.Timestamp { return primaryClock.Now().Upper().Add(d) }

	for i, raise := range []func(snap ts.Timestamp, txn uint64) error{
		func(snap ts.Timestamp, _ uint64) error {
			_, err := r.client.ReadVersion(bg, "dn0", ReadReq{Key: []byte("k"), SnapTS: snap})
			return err
		},
		func(snap ts.Timestamp, _ uint64) error {
			_, err := r.client.ScanPageFrag(bg, "dn0", []byte("a"), []byte("z"), snap, 0, 0, nil, 0)
			return err
		},
		func(snap ts.Timestamp, txn uint64) error {
			return r.client.Write(bg, "dn0", txn, snap, []WriteOp{{Key: []byte("w"), Value: []byte("x")}})
		},
	} {
		snap := ahead(40 * time.Microsecond)
		if err := raise(snap, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
		if got := r.primary.ReadFloor(); got != snap {
			t.Fatalf("request %d: read floor %v, want its snapshot %v", i, got, snap)
		}
		before := bumps.Value()
		clockUpper := primaryClock.Now().Upper()
		resp := commit(uint64(1+i), "k")
		if resp.CommitTS != snap+1 || resp.FloorBump != (snap+1).Sub(clockUpper) {
			t.Fatalf("request %d: ThenCommit = %+v, want %v bumped %v past the clock", i, resp, snap+1, (snap + 1).Sub(clockUpper))
		}
		if got := bumps.Value() - before; got != 1 {
			t.Fatalf("request %d: %d read floor bumps counted, want 1", i, got)
		}
		_ = r.client.Abort(bg, "dn0", uint64(100+i))
		src.Advance(time.Millisecond) // the clock passes the floor again
	}

	// A PREPARE ack carries the floor it was marked under.
	snap := ahead(40 * time.Microsecond)
	resp, err := r.client.WriteStep(bg, "dn0", 200, snap, []WriteOp{{Key: []byte("p"), Value: []byte("v")}}, ThenPrepare, "dn0")
	if err != nil || resp.Floor != snap {
		t.Fatalf("PREPARE ack = %+v, %v; want floor %v", resp, err, snap)
	}

	// What raises nothing: a one-read context's read, a one-write commit's
	// snapshot and ts.Max.
	floor := r.primary.ReadFloor()
	if _, err := r.client.ReadVersion(bg, "dn0", ReadReq{Key: []byte("k"), SnapTS: ahead(time.Second), Once: true}); err != nil {
		t.Fatal(err)
	}
	read, err := r.client.ReadVersion(bg, "dn0", ReadReq{Key: []byte("k"), SnapTS: ts.Max, Once: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.WriteCommit(bg, "dn0", 300, ahead(time.Second), []WriteOp{{Key: []byte("k"), Value: []byte("w")}}, false, read.CommitTS); err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.ReadVersion(bg, "dn0", ReadReq{Key: []byte("k"), SnapTS: ts.Max}); err != nil {
		t.Fatal(err)
	}
	if got := r.primary.ReadFloor(); got != floor {
		t.Fatalf("read floor moved from %v to %v", floor, got)
	}
}
