package coordinator

import (
	"errors"
	"testing"
	"time"

	"globaldb/internal/clock"
	"globaldb/internal/datanode"
	"globaldb/internal/netsim"
	"globaldb/internal/rcp"
	"globaldb/internal/repl"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/table"
	"globaldb/internal/ts"
	"globaldb/internal/tso"
)

// skewRig is one region on a manual clock: a shard primary whose oscillator
// keeps true time, a CN whose oscillator runs fast and a second CN whose
// oscillator runs slow, both at the advertised 200 PPM. 100 ms after the
// last sync the fast CN reads true+20µs, the slow one true-20µs and the
// primary true, each ±80µs. So the commit timestamp the primary's clock
// issues (true+80µs) sits below the fast CN's unwaited snapshot Tclock+Terr
// (true+100µs) and above the slow CN's (true+60µs). Nothing ticks on its
// own: time moves only when the test advances src.
type skewRig struct {
	src     *clock.Manual
	client  *datanode.Client
	primary *datanode.Primary
	cn      *CN // the fast CN
	slow    *CN
	txn     uint64
}

func newSkewRig(t *testing.T) *skewRig {
	t.Helper()
	src := clock.NewManual(time.Unix(1_700_000_000, 0))
	device := clock.NewDevice("east", src)
	oracle := func(name string, driftPPM float64) *tso.Oracle {
		n := clock.NewNode(clock.DefaultNodeConfig(), src, device)
		n.SetDriftPPM(driftPPM)
		o := tso.New(name, n, nil)
		o.SetMode(ts.ModeGClock)
		return o
	}
	net := netsim.New(netsim.Config{TimeScale: 0.02})
	net.AddRegion("east")
	p := datanode.NewPrimary(net, "dn0", "east", 0, repl.Async, 1)
	p.SetOracle(oracle(p.ID(), 0))
	routing := NewRouting(1)
	routing.SetPrimary(0, p.ID())
	client := datanode.NewClient(net, "east")
	cn := func(name string, driftPPM float64) *CN {
		c := New(name, "east", 1, client, oracle(name, driftPPM), routing, table.NewCatalog())
		// A collector that never runs keeps the RCP at zero, so every
		// ReadOnly with a zero staleness bound falls back to the primary.
		c.SetCollector(rcp.NewCollector(rcp.Config{}, client, rcp.Topology{}, nil, 0))
		return c
	}
	r := &skewRig{src: src, client: client, primary: p, cn: cn("cn-fast", +200), slow: cn("cn-slow", -200)}
	src.Advance(100 * time.Millisecond)
	return r
}

// commit writes key=value in one message, the primary issuing the commit
// timestamp from its own clock (a delegated single-shard commit). Nothing
// adopts the timestamp, so the commit is visible at the primary while still
// inside its commit wait. The snapshot ts.Max admits the write whatever is
// already committed.
func (r *skewRig) commit(t *testing.T, key, value string) ts.Timestamp {
	t.Helper()
	r.txn++
	resp, err := r.client.WriteCommit(bg, r.primary.ID(), r.txn, ts.Max,
		[]datanode.WriteOp{{Key: []byte(key), Value: []byte(value)}}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	return resp.CommitTS
}

// run calls fn, which may spin in a GClock wait, while moving the manual
// clock forward in 10µs steps until fn returns, and reports how far the
// clock moved. A call that does not wait returns within the first real
// 100 ms and sees the clock where it was.
func (r *skewRig) run(t *testing.T, fn func() error) time.Duration {
	t.Helper()
	start := r.src.Now()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(100 * time.Millisecond):
	wait:
		for {
			select {
			case err = <-done:
				break wait
			default:
				r.src.Advance(10 * time.Microsecond)
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return r.src.Now().Sub(start)
}

// open starts a query with begin under run.
func (r *skewRig) open(t *testing.T, begin func() (*Txn, error)) *Txn {
	t.Helper()
	var q *Txn
	r.run(t, func() (err error) {
		q, err = begin()
		return err
	})
	return q
}

// get reads k through q under run and returns the value and how far the
// clock had to move before the read returned.
func (r *skewRig) get(t *testing.T, q *Txn, k string) (string, time.Duration) {
	t.Helper()
	var v []byte
	var found bool
	moved := r.run(t, func() (err error) {
		v, found, err = q.Get(bg, 0, []byte(k))
		return err
	})
	if !found {
		t.Fatalf("%s not found", k)
	}
	return string(v), moved
}

// TestReadOnlyPrimaryFallbackSnapshotIsStable is the multi-read hole: a
// read-only query served by the primary reads key k, a one-message commit
// whose timestamp the primary's slower clock issues then lands on k, and the
// same query reads k again. Both reads are at one snapshot, so they must
// agree. The snapshot (Tclock + Terr on the faster clock) is taken without
// the invocation wait and sits above the primary's clock; the first read
// raises the primary's read floor to it, so the late commit lands above it.
// Each read settles the version it returns, so it runs while the clock moves.
func TestReadOnlyPrimaryFallbackSnapshotIsStable(t *testing.T) {
	r := newSkewRig(t)
	first := r.commit(t, "k", "v0")

	q := r.open(t, func() (*Txn, error) { return r.cn.ReadOnly(bg, 0) })
	if q.OnReplicas() {
		t.Fatal("rig: the query reads replicas, want the primary fallback")
	}
	if q.Snapshot() <= first {
		t.Fatalf("rig: snapshot %v does not cover the first commit %v", q.Snapshot(), first)
	}
	if v, _ := r.get(t, q, "k"); v != "v0" {
		t.Fatalf("first read = %q, want v0", v)
	}

	late := r.commit(t, "k", "v1")
	if v, _ := r.get(t, q, "k"); v != "v0" {
		t.Fatalf("second read at snapshot %v = %q, want v0 again: the commit at %v landed under a snapshot already read",
			q.Snapshot(), v, late)
	}
	if late <= q.Snapshot() {
		t.Fatalf("late commit %v at or under the snapshot %v, which the primary had served", late, q.Snapshot())
	}
}

// TestReadOnceSkipsTheWaitAndReadsOnce: a one-read context opens without the
// invocation wait (the manual clock does not have to move), its snapshot is
// the faster clock's Tclock + Terr, so its Get sees every commit already
// made, a version below the clock's lower bound at the snapshot costs its
// Get and Commit no wait either, and the context refuses a second Get and
// any scan with ErrOneRead.
func TestReadOnceSkipsTheWaitAndReadsOnce(t *testing.T) {
	r := newSkewRig(t)
	committed := r.commit(t, "k", "v0")
	r.src.Advance(time.Millisecond)

	start := r.src.Now()
	q := r.openTxn(t)
	if !r.src.Now().Equal(start) {
		t.Fatalf("ReadOnce waited for the clock to move %v", r.src.Now().Sub(start))
	}
	if q.Snapshot() <= committed {
		t.Fatalf("unwaited snapshot %v not above the committed %v", q.Snapshot(), committed)
	}
	v, moved := r.get(t, q, "k")
	if _, _, err := q.Get(bg, 0, []byte("k")); !errors.Is(err, ErrOneRead) {
		t.Fatalf("second Get: err = %v, want ErrOneRead", err)
	}
	moved += r.run(t, func() error { return q.Commit(bg) })
	if v != "v0" || moved != 0 {
		t.Fatalf("Get = %q after the clock moved %v over Get and Commit, want v0 with no wait", v, moved)
	}

	// A scan is refused outright, even before any Get: it may read many times.
	q = r.openTxn(t)
	defer q.Abort(bg)
	cur := q.ScanCursor(bg, 0, ScanSpec{Start: []byte("a"), End: []byte("z")})
	defer cur.Close()
	if cur.NextBatch(bg) || !errors.Is(cur.Err(), ErrOneRead) {
		t.Fatalf("scan on a one-read context: err = %v, want ErrOneRead", cur.Err())
	}
	for _, c := range q.ScanCursors(bg, 1, ScanSpec{}) {
		if c.NextBatch(bg) || !errors.Is(c.Err(), ErrOneRead) {
			t.Fatalf("ScanCursors on a one-read context: err = %v, want ErrOneRead", c.Err())
		}
	}
}

// TestReadOnceOrdersReadsAcrossCNs is real-time order between two one-read
// contexts while a commit is visible at the primary but still inside its
// commit wait. The fast CN's snapshot covers the commit, so its read returns
// it; a read that starts afterwards on the slow CN must return it too, even
// though that CN's unwaited snapshot would sit below the commit's timestamp.
// The fast read holds it off: its Commit waits until its clock has passed
// the timestamp of the version it returned.
func TestReadOnceOrdersReadsAcrossCNs(t *testing.T) {
	r := newSkewRig(t)
	r.commit(t, "k", "v0")
	r.src.Advance(time.Millisecond)

	late := r.commit(t, "k", "v1")
	if s := r.slow.oracle.Clock().Now().Upper(); s >= late {
		t.Fatalf("rig: the slow CN's snapshot %v already covers the commit at %v", s, late)
	}

	fast := r.openOn(t, r.cn)
	v, moved := r.get(t, fast, "k")
	if v != "v1" {
		t.Fatalf("fast CN at snapshot %v read %q, want v1 committed at %v", fast.Snapshot(), v, late)
	}
	if moved += r.run(t, func() error { return fast.Commit(bg) }); moved == 0 {
		t.Fatal("the fast read returned a version inside its commit wait without waiting")
	}

	slow := r.openOn(t, r.slow)
	defer slow.Abort(bg)
	if v, _ := r.get(t, slow, "k"); v != "v1" {
		t.Fatalf("slow CN at snapshot %v read %q after the fast CN returned v1 committed at %v", slow.Snapshot(), v, late)
	}
}

// TestWriteOnceChecksTheVersionItRead is the lost update an unwaited snapshot
// would let through. The fast CN's one-write context opens without the
// invocation wait and reads k. A commit whose timestamp the primary's slower
// clock issues below that snapshot then lands on k. The context's write must
// fail with a write-write conflict: the snapshot check alone admits it, since
// the late version sits under the snapshot. A fresh context reads the late
// version and commits above it, with one commit wait; one that writes nothing
// ends its read as a one-read context does.
func TestWriteOnceChecksTheVersionItRead(t *testing.T) {
	r := newSkewRig(t)
	r.commit(t, "k", "v0")
	r.src.Advance(time.Millisecond)

	start := r.src.Now()
	tx, err := r.cn.ReadOnce(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.src.Now().Equal(start) {
		t.Fatalf("WriteOnce waited for the clock to move %v", r.src.Now().Sub(start))
	}
	if v, found, err := tx.Get(bg, 0, []byte("k")); err != nil || !found || string(v) != "v0" {
		t.Fatalf("Get = %q %v %v, want v0", v, found, err)
	}
	late := r.commit(t, "k", "v1")
	if late > tx.Snapshot() {
		t.Fatalf("rig: the late commit %v is above the fast snapshot %v", late, tx.Snapshot())
	}
	if err := tx.Put(bg, 0, []byte("k"), []byte("v0+1")); err != nil {
		t.Fatal(err)
	}
	// Under run: a commit that got through would wait for the clock.
	r.run(t, func() error { err = tx.Commit(bg); return nil })
	if !errors.Is(err, mvcc.ErrWriteConflict) {
		t.Fatalf("write after a version read below the late commit %v: err = %v, want a write-write conflict", late, err)
	}

	tx = r.openTxn(t)
	if v, found, err := tx.Get(bg, 0, []byte("k")); err != nil || !found || string(v) != "v1" {
		t.Fatalf("Get = %q %v %v, want v1", v, found, err)
	}
	if _, _, err := tx.Get(bg, 0, []byte("k")); !errors.Is(err, ErrOneRead) {
		t.Fatalf("second Get: err = %v, want ErrOneRead", err)
	}
	if err := tx.Put(bg, 0, []byte("k"), []byte("v1+1")); err != nil {
		t.Fatal(err)
	}
	if moved := r.run(t, func() error { return tx.Commit(bg) }); moved == 0 {
		t.Fatal("the commit returned without its commit wait")
	}
	if tx.CommitTS() <= late {
		t.Fatalf("commit timestamp %v not above the version read, %v", tx.CommitTS(), late)
	}

	// Nothing written: the read of a version inside its commit wait waits it
	// out at Commit.
	inWait := r.commit(t, "k", "v2")
	tx = r.openTxn(t)
	if v, _, err := tx.Get(bg, 0, []byte("k")); err != nil || string(v) != "v2" {
		t.Fatalf("Get = %q %v, want v2 committed at %v", v, err, inWait)
	}
	if moved := r.run(t, func() error { return tx.Commit(bg) }); moved == 0 {
		t.Fatalf("a read of the version at %v, inside its commit wait, ended without waiting", inWait)
	}

	// Scans, flushes and a write that no read vouches for are refused.
	tx = r.openTxn(t)
	cur := tx.ScanCursor(bg, 0, ScanSpec{Start: []byte("a"), End: []byte("z")})
	defer cur.Close()
	if cur.NextBatch(bg) || !errors.Is(cur.Err(), ErrOneRead) {
		t.Fatalf("scan on a one-write context: err = %v, want ErrOneRead", cur.Err())
	}
	if err := tx.Put(bg, 0, []byte("blind"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(bg); !errors.Is(err, ErrOneRead) {
		t.Fatalf("a write with no read: err = %v, want ErrOneRead", err)
	}
}

// openTxn opens a one-read context on the fast CN.
func (r *skewRig) openTxn(t *testing.T) *Txn { return r.openOn(t, r.cn) }

// openOn opens a one-read context on cn under run.
func (r *skewRig) openOn(t *testing.T, cn *CN) *Txn {
	t.Helper()
	var tx *Txn
	r.run(t, func() (err error) {
		tx, err = cn.ReadOnce(bg)
		return err
	})
	return tx
}
