package cluster

import (
	"fmt"
	"strconv"
	"testing"

	"globaldb/internal/coordinator"
)

// openFloorRig opens a zero-RTT two-shard cluster, so that a commit lands
// well within the clock error bound of the read it races.
func openFloorRig(t *testing.T) *Cluster {
	t.Helper()
	cfg := OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 2
	return open(t, cfg)
}

// acctKey is account i of shard; every account starts at 100.
func acctKey(shard, i int) []byte { return []byte(fmt.Sprintf("acct-%d-%02d", shard, i)) }

const accounts = 10

func seedAccounts(t *testing.T, cn *coordinator.CN) {
	t.Helper()
	tx, err := cn.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 2; shard++ {
		for i := 0; i < accounts; i++ {
			if err := tx.Put(bg, shard, acctKey(shard, i), []byte("100")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(bg); err != nil {
		t.Fatal(err)
	}
	cn.Quiesce() // phase two is done everywhere: no prepared intent is left
}

// sumPages adds up one shard's accounts a page at a time, one row in the
// first page, calling between after every page.
func sumPages(t *testing.T, tx *coordinator.Txn, shard int, between func()) int {
	t.Helper()
	cur := tx.ScanCursor(bg, shard, coordinator.ScanSpec{
		Start: acctKey(shard, 0), End: acctKey(shard, accounts), PageSize: 1, Prefetch: -1})
	defer cur.Close()
	sum := 0
	for cur.NextBatch(bg) {
		for _, kv := range cur.Batch() {
			v, err := strconv.Atoi(string(kv.Value))
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		between()
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestSumStaysConstantWhileATrailingPrimaryCommits: a SUM over two shards'
// accounts, read a page at a time at a snapshot taken without the invocation
// wait, stays at the seeded total while shard 0's primary, whose clock trails
// by the error bound, commits transfers between its pages. Each transfer
// moves money from the account the first page read to the last account, so
// a transfer that landed under the snapshot would show in a later page. Its
// timestamp comes from the trailing clock, below the reader's snapshot,
// unless the primary issues it above the read floor the first page raised.
func TestSumStaysConstantWhileATrailingPrimaryCommits(t *testing.T) {
	c := openFloorRig(t)
	bound := c.cfg.Clock.SyncRTT
	c.Primaries()[0].Oracle().Clock().SetFaultSkew(-bound)
	reader, writer := c.CN(c.Regions()[0]), c.CN(c.Regions()[1])
	seedAccounts(t, writer)
	first, last := 100, 100
	for round := 0; round < 20; round++ {
		tx, err := reader.Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		transfers := 0
		sum := sumPages(t, tx, 0, func() {
			if transfers == 2 {
				return
			}
			transfers++
			first, last = first-1, last+1
			w, err := writer.Begin(bg)
			if err != nil {
				t.Fatal(err)
			}
			_ = w.Put(bg, 0, acctKey(0, 0), []byte(strconv.Itoa(first)))
			_ = w.Put(bg, 0, acctKey(0, accounts-1), []byte(strconv.Itoa(last)))
			if err := w.Commit(bg); err != nil {
				t.Fatal(err)
			}
		})
		sum += sumPages(t, tx, 1, func() {})
		if err := tx.Commit(bg); err != nil {
			t.Fatal(err)
		}
		if want := 2 * accounts * 100; sum != want {
			t.Fatalf("round %d: SUM at snapshot %v = %d, want %d: a transfer committed by the trailing primary landed under a snapshot it had served",
				round, tx.Snapshot(), sum, want)
		}
	}
}

// TestTwoPhaseCommitLandsAboveAServedSnapshot: a CN whose clock leads by the
// error bound reads an account on shard 0, and then a CN whose clock trails
// by the bound commits a transaction over both shards. The two-phase commit's
// timestamp comes from the trailing clock, below the reader's snapshot,
// unless it is issued above the read floor shard 0's PREPARE ack returned. So
// it must land above the snapshot, and the reader's second read must still
// see the balance its first one did.
func TestTwoPhaseCommitLandsAboveAServedSnapshot(t *testing.T) {
	c := openFloorRig(t)
	bound := c.cfg.Clock.SyncRTT
	reader, writer := c.CN(c.Regions()[0]), c.CN(c.Regions()[1])
	reader.Oracle().Clock().SetFaultSkew(bound)
	writer.Oracle().Clock().SetFaultSkew(-bound)
	seedAccounts(t, writer)
	for round := 0; round < 20; round++ {
		r, err := reader.Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		before, _, err := r.Get(bg, 0, acctKey(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		w, err := writer.Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		val := []byte(strconv.Itoa(200 + round))
		for shard := 0; shard < 2; shard++ {
			if err := w.Put(bg, shard, acctKey(shard, 0), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Commit(bg); err != nil {
			t.Fatal(err)
		}
		writer.Quiesce() // the next round writes these keys again
		if w.CommitTS() <= r.Snapshot() {
			t.Fatalf("round %d: the 2PC commit at %v landed at or under snapshot %v, which shard 0 had served",
				round, w.CommitTS(), r.Snapshot())
		}
		after, _, err := r.Get(bg, 0, acctKey(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != string(before) {
			t.Fatalf("round %d: a second read at snapshot %v returned %q after %q", round, r.Snapshot(), after, before)
		}
		if err := r.Commit(bg); err != nil {
			t.Fatal(err)
		}
	}
}
