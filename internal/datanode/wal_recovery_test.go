package datanode

import (
	"fmt"
	"testing"
	"time"

	"globaldb/internal/netsim"
	"globaldb/internal/repl"
	"globaldb/internal/ts"
	"globaldb/internal/wal"
)

// runTxns pushes n committed single-shard transactions through the client.
func runTxns(t *testing.T, c *Client, node string, n int, firstTxn uint64, firstTS ts.Timestamp) {
	t.Helper()
	for i := 0; i < n; i++ {
		txn := firstTxn + uint64(i)
		ops := []WriteOp{
			{Key: []byte(fmt.Sprintf("key-%03d", i%40)), Value: []byte(fmt.Sprintf("v-%d", txn))},
			{Key: []byte(fmt.Sprintf("key-%03d", (i+7)%40)), Value: []byte(fmt.Sprintf("w-%d", txn))},
		}
		if err := c.Write(bg, node, txn, ts.Max, ops); err != nil {
			t.Fatalf("txn %d write: %v", txn, err)
		}
		if err := c.Pending(bg, node, txn); err != nil {
			t.Fatalf("txn %d pending: %v", txn, err)
		}
		if err := c.Commit(bg, node, txn, firstTS+ts.Timestamp(i), false); err != nil {
			t.Fatalf("txn %d commit: %v", txn, err)
		}
	}
}

func TestPrimaryCrashRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.SetLink("east", "west", 10*time.Millisecond, 0)
	p := NewPrimary(n, "dn0", "east", 0, repl.Async, 1)
	w, err := p.AttachWAL(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(n, "east")
	runTxns(t, c, "dn0", 50, 1, 1000)
	before := p.Store().LastCommitTS()
	if err := w.Close(); err != nil { // "crash"
		t.Fatal(err)
	}
	p.Endpoint().SetDown(true) // the crashed node stops answering

	// Recover into a new node on a fresh network.
	n2 := netsim.New(netsim.Config{TimeScale: 0.2})
	n2.SetLink("east", "west", 10*time.Millisecond, 0)
	p2, closer2, err := RecoverPrimary(n2, "dn0", "east", 0, wal.Options{Dir: dir}, repl.Async, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closer2.Close()
	if got := p2.Store().LastCommitTS(); got != before {
		t.Fatalf("recovered watermark %v, want %v", got, before)
	}
	if p2.Log().LastLSN() != p.Log().LastLSN() {
		t.Fatalf("recovered log LSN %d, want %d", p2.Log().LastLSN(), p.Log().LastLSN())
	}
	// Reads see the pre-crash data.
	c2 := NewClient(n2, "east")
	v, found, err := c2.Read(bg, "dn0", []byte("key-000"), ts.Max, 0)
	if err != nil || !found {
		t.Fatalf("read after recovery: %q %v %v", v, found, err)
	}
	// The recovered node accepts new transactions with continuing LSNs.
	runTxns(t, c2, "dn0", 5, 100, 2000)
	if p2.Store().LastCommitTS() != 2004 {
		t.Fatalf("watermark after new txns = %v", p2.Store().LastCommitTS())
	}
}

func TestRecoveredPrimaryServesReplicas(t *testing.T) {
	dir := t.TempDir()
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.SetLink("east", "west", 10*time.Millisecond, 0)
	p := NewPrimary(n, "dn0", "east", 0, repl.Async, 1)
	w, err := p.AttachWAL(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(n, "east")
	runTxns(t, c, "dn0", 20, 1, 500)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover on a fresh network and attach a brand-new replica: the
	// re-seeded log must ship the full history from LSN 1.
	n2 := netsim.New(netsim.Config{TimeScale: 0.2})
	n2.SetLink("east", "west", 10*time.Millisecond, 0)
	p2, closer2, err := RecoverPrimary(n2, "dn0", "east", 0, wal.Options{Dir: dir}, repl.Async, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closer2.Close()
	rep := NewReplica(n2, "dn0r0", "west", 0)
	sh := NewShipperForTest(n2, p2, rep)
	defer sh.Stop()

	waitFor(t, "replica catch-up from recovered log", func() bool {
		return rep.Applier().MaxCommitTS() >= 519
	})
	c2 := NewClient(n2, "west")
	v, found, err := c2.Read(bg, "dn0r0", []byte("key-000"), ts.Max, 0)
	if err != nil || !found {
		t.Fatalf("replica read: %q %v %v", v, found, err)
	}
}

// TestWALHoldsEveryRecordUnderLoad: after a run of commits, the WAL holds
// every record the log appended.
func TestWALHoldsEveryRecordUnderLoad(t *testing.T) {
	dir := t.TempDir()
	n := netsim.New(netsim.Config{TimeScale: 0.2})
	n.SetLink("east", "west", 10*time.Millisecond, 0)
	p := NewPrimary(n, "dn0", "east", 0, repl.Async, 1)
	w, err := p.AttachWAL(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(n, "east")
	runTxns(t, c, "dn0", 200, 1, 100)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Every appended record is in the WAL.
	n2 := netsim.New(netsim.Config{TimeScale: 0.2})
	n2.SetLink("east", "west", 10*time.Millisecond, 0)
	p2, closer2, err := RecoverPrimary(n2, "dn0", "east", 0, wal.Options{Dir: dir}, repl.Async, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closer2.Close()
	if p2.Log().LastLSN() != p.Log().LastLSN() {
		t.Fatalf("durable LSN %d, want %d", p2.Log().LastLSN(), p.Log().LastLSN())
	}
}
