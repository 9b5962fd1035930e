package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globaldb/internal/coordinator"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
	"globaldb/internal/wal"
)

// openGC opens a cluster whose GC loop runs every interval (RestartGCEvery).
func openGC(t *testing.T, cfg Config, every time.Duration) *Cluster {
	t.Helper()
	c := open(t, cfg)
	c.RestartGCEvery(every)
	return c
}

func TestPruneOnceBoundsVersionChains(t *testing.T) {
	c := open(t, smallCfg())
	c.StopGC() // the rounds are this test's to run
	cn := c.CN("xian")
	// Hammer one key with updates.
	var lastSnap = c.Collector.RCP()
	k := key(0, 1)
	for i := 0; i < 50; i++ {
		txn, err := cn.Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Put(bg, 0, k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(bg); err != nil {
			t.Fatal(err)
		}
		lastSnap = txn.Snapshot()
	}
	before := len(c.Primaries()[0].Store().Versions(k))
	if before < 40 {
		t.Fatalf("expected a long version chain, got %d", before)
	}
	// Two GC rounds with RCP advancement in between: the first records the
	// watermark, the second prunes.
	waitRCP(t, c, lastSnap)
	c.PruneOnce()
	time.Sleep(10 * time.Millisecond)
	removed := c.PruneOnce()
	if removed == 0 {
		t.Fatal("GC removed nothing")
	}
	after := len(c.Primaries()[0].Store().Versions(k))
	if after >= before {
		t.Fatalf("chain did not shrink: %d -> %d", before, after)
	}
	// Fresh reads still see the newest value.
	txn, _ := cn.Begin(bg)
	v, found, err := txn.Get(bg, 0, k)
	if err != nil || !found || v[0] != 49 {
		t.Fatalf("read after GC: %v %v %v", v, found, err)
	}
	txn.Commit(bg)
	// ROR reads at the current RCP still work.
	ro, err := cn.ReadOnly(bg, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ro.Get(bg, 0, k); err != nil {
		t.Fatal(err)
	}
}

// TestPruneOnceSetsRedoRetainedGauges: a round publishes what each shard's
// log holds after its truncation, in records and in frame bytes.
func TestPruneOnceSetsRedoRetainedGauges(t *testing.T) {
	c := open(t, smallCfg())
	c.StopGC()
	c.Collector.Stop() // no heartbeat appends between the round and the check
	c.PruneOnce()
	for shard, p := range c.Primaries() {
		recs, bytes := redoRetainedGauge(shard).Value(), redoRetainedBytesGauge(shard).Value()
		if recs != int64(p.Log().Retained()) || bytes != int64(p.Log().RetainedBytes()) {
			t.Fatalf("shard %d: gauges %d records, %d bytes; log holds %d records, %d bytes",
				shard, recs, bytes, p.Log().Retained(), p.Log().RetainedBytes())
		}
		if recs > 0 && bytes < 10*recs {
			t.Fatalf("shard %d: %d bytes for %d records", shard, bytes, recs)
		}
	}
}

func TestStartGCLoop(t *testing.T) {
	c := openGC(t, smallCfg(), 5*time.Millisecond)
	cn := c.CN("xian")
	k := key(1, 2)
	var lastSnap = c.Collector.RCP()
	for i := 0; i < 30; i++ {
		txn, _ := cn.Begin(bg)
		txn.Put(bg, 1, k, []byte{byte(i)})
		if err := txn.Commit(bg); err != nil {
			t.Fatal(err)
		}
		lastSnap = txn.Snapshot()
	}
	waitRCP(t, c, lastSnap)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := len(c.Primaries()[1].Store().Versions(k)); n < 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("GC loop never pruned; chain still %d", len(c.Primaries()[1].Store().Versions(k)))
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.StopGC()
	c.StopGC() // idempotent
}

// putAll commits value under every key of one shard in a single transaction
// and returns its commit timestamp.
func putAll(t *testing.T, cn *coordinator.CN, shard int, keys [][]byte, value string) ts.Timestamp {
	t.Helper()
	txn, err := cn.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := txn.Put(bg, shard, k, []byte(value)); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(bg); err != nil {
		t.Fatal(err)
	}
	return txn.CommitTS()
}

// TestGCCursorUnderTxnAcrossRounds: a cursor opened by a read-write
// transaction keeps returning the rows of the transaction's snapshot however
// many GC rounds pass between its pages, because the transaction pins the
// watermark — the RCP alone would have let every round prune them.
func TestGCCursorUnderTxnAcrossRounds(t *testing.T) {
	c := open(t, smallCfg())
	c.StopGC() // rounds are run by hand, between pages
	cn := c.CN("xian")
	const shard, rows = 0, 2000
	keys := make([][]byte, rows)
	for i := range keys {
		keys[i] = key(shard, i)
	}
	putAll(t, cn, shard, keys, "at-snapshot")

	reader, err := cn.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	cur := reader.ScanCursor(bg, shard, coordinator.ScanSpec{
		Start: key(shard, 0), End: key(shard, rows), PageSize: 16, Prefetch: -1})
	defer cur.Close()
	seen := 0
	drainPage := func() bool {
		if !cur.NextBatch(bg) {
			return false
		}
		for _, kv := range cur.Batch() {
			if string(kv.Value) != "at-snapshot" {
				t.Fatalf("row %q reads %q after %d rows: not the cursor's snapshot", kv.Key, kv.Value, seen)
			}
			seen++
		}
		return true
	}
	if !drainPage() {
		t.Fatalf("first page: %v", cur.Err())
	}
	for round := 1; round <= 3; round++ {
		waitRCP(t, c, putAll(t, cn, shard, keys, fmt.Sprintf("overwrite-%d", round)))
		c.PruneOnce()
		if c.gc.prevRCP <= reader.Snapshot() {
			t.Fatalf("round %d: RCP %v has not passed the reader's snapshot %v; the test proves nothing", round, c.gc.prevRCP, reader.Snapshot())
		}
		if !drainPage() {
			t.Fatalf("page after round %d: %v", round, cur.Err())
		}
	}
	for drainPage() {
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != rows {
		t.Fatalf("cursor returned %d rows, want %d", seen, rows)
	}
	store := c.Primaries()[shard].Store()
	if n := len(store.Versions(keys[0])); n != 4 {
		t.Fatalf("pinned chain holds %d versions, want the snapshot's and three overwrites", n)
	}
	// Released, the pin lets the next round collect everything below the RCP.
	if err := reader.Commit(bg); err != nil {
		t.Fatal(err)
	}
	if removed := c.PruneOnce(); removed == 0 {
		t.Fatal("nothing pruned after the reader finished")
	}
	if n := len(store.Versions(keys[0])); n != 1 {
		t.Fatalf("chain holds %d versions after the pin was released, want 1", n)
	}
}

// TestGCTxnKeepsSnapshotAcrossRounds: with GC running every millisecond a
// read-write transaction keeps reading its snapshot while other writers
// overwrite the key twenty times, and the key's history is collected once it
// finishes.
func TestGCTxnKeepsSnapshotAcrossRounds(t *testing.T) {
	c := openGC(t, smallCfg(), time.Millisecond)
	cn := c.CN("xian")
	const shard = 1
	k := [][]byte{key(shard, 9)}
	putAll(t, cn, shard, k, "v0")
	reader, err := cn.Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	var last ts.Timestamp
	for i := 1; i <= 20; i++ {
		last = putAll(t, c.CN("langzhong"), shard, k, fmt.Sprintf("v%d", i))
		v, found, err := reader.Get(bg, shard, k[0])
		if err != nil || !found || string(v) != "v0" {
			t.Fatalf("after overwrite %d the held transaction reads (%q,%v,%v), want v0", i, v, found, err)
		}
	}
	waitRCP(t, c, last)
	time.Sleep(5 * time.Millisecond) // several rounds with the RCP past every overwrite
	if v, found, err := reader.Get(bg, shard, k[0]); err != nil || !found || string(v) != "v0" {
		t.Fatalf("held transaction reads (%q,%v,%v) after the RCP passed it, want v0", v, found, err)
	}
	store := c.Primaries()[shard].Store()
	if n := len(store.Versions(k[0])); n != 21 {
		t.Fatalf("chain holds %d versions under the pin, want 21", n)
	}
	if err := reader.Commit(bg); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(store.Versions(k[0])) > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("chain still %d deep after the transaction finished", len(store.Versions(k[0])))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGCRefusesQueryOlderThanHorizon: a read-only query cannot pin the
// watermark, so one that outlives the horizon is refused by the stores, on
// replicas and primaries, point reads and scans alike — it is never handed
// the newer row — and the refusal is not held against the node.
func TestGCRefusesQueryOlderThanHorizon(t *testing.T) {
	c := open(t, smallCfg())
	c.StopGC()
	cn := c.CN("xian")
	const shard = 2
	k := key(shard, 3)
	waitRCP(t, c, putAll(t, cn, shard, [][]byte{k}, "old"))
	onReplicas, err := cn.ReadOnly(bg, coordinator.AnyStaleness)
	if err != nil {
		t.Fatal(err)
	}
	if !onReplicas.OnReplicas() {
		t.Fatal("query did not open at the RCP")
	}
	onPrimaries, err := cn.ReadOnly(bg, 0) // a zero bound forces fresh primaries
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*coordinator.ROTxn{onReplicas, onPrimaries} {
		if v, found, err := q.Get(bg, shard, k); err != nil || !found || string(v) != "old" {
			t.Fatalf("query (replicas=%v) before GC reads (%q,%v,%v)", q.OnReplicas(), v, found, err)
		}
	}
	putAll(t, cn, shard, [][]byte{k}, "newer")
	waitRCP(t, c, putAll(t, cn, shard, [][]byte{k}, "newest"))
	c.PruneOnce() // notes the RCP
	if removed := c.PruneOnce(); removed == 0 {
		t.Fatal("GC removed nothing")
	}
	for _, q := range []*coordinator.ROTxn{onReplicas, onPrimaries} {
		if v, found, err := q.Get(bg, shard, k); !errors.Is(err, mvcc.ErrSnapshotTooOld) {
			t.Fatalf("query (replicas=%v) older than the horizon reads (%q,%v,%v), want ErrSnapshotTooOld", q.OnReplicas(), v, found, err)
		}
		cur := q.ScanCursor(bg, shard, coordinator.ScanSpec{Start: key(shard, 0), End: key(shard, 9)})
		for cur.NextBatch(bg) {
			t.Fatalf("scan older than the horizon returned %q", cur.Batch()[0].Value)
		}
		if err := cur.Err(); !errors.Is(err, mvcc.ErrSnapshotTooOld) {
			t.Fatalf("scan (replicas=%v) older than the horizon: %v, want ErrSnapshotTooOld", q.OnReplicas(), err)
		}
		cur.Close()
	}
	fresh, err := cn.ReadOnly(bg, coordinator.AnyStaleness)
	if err != nil {
		t.Fatal(err)
	}
	if v, found, err := fresh.Get(bg, shard, k); err != nil || !found || string(v) != "newest" {
		t.Fatalf("fresh query reads (%q,%v,%v)", v, found, err)
	}
	if st := cn.Stats(); st.ReplicaReads == 0 {
		t.Fatalf("no read was served by a replica: %+v", st)
	}
	for _, rep := range c.Replicas(shard) {
		if cand, ok := cn.Tracker().Node(rep.ID()); !ok || !cand.Healthy {
			t.Fatalf("replica %s marked unhealthy by a snapshot-too-old answer", rep.ID())
		}
	}
}

// TestGCBankSumAtRCP: transfers between accounts on every shard, most of them
// two-phase commits, run against queries that sum every balance at the RCP
// while GC prunes and truncates every two milliseconds. A sum is either the
// invariant total or a refusal; the redo logs end up truncated, every
// replica still catches up (nothing a shipper needed was dropped), and every
// shard's WAL holds its whole stream.
func TestGCBankSumAtRCP(t *testing.T) {
	cfg := smallCfg()
	cfg.WALDir = t.TempDir()
	c := openGC(t, cfg, 2*time.Millisecond)
	const perShard, initial = 4, 100
	type account struct {
		shard int
		key   []byte
	}
	var accounts []account
	setup, err := c.CN("xian").Begin(bg)
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < c.Shards(); shard++ {
		for i := 0; i < perShard; i++ {
			a := account{shard, key(shard, i)}
			accounts = append(accounts, a)
			if err := setup.Put(bg, a.shard, a.key, []byte(strconv.Itoa(initial))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := setup.Commit(bg); err != nil {
		t.Fatal(err)
	}
	waitRCP(t, c, setup.CommitTS())
	total := initial * len(accounts)

	balance := func(get func(shard int, key []byte) ([]byte, bool, error), a account) (int, error) {
		v, found, err := get(a.shard, a.key)
		if err != nil {
			return 0, err
		}
		if !found {
			return 0, fmt.Errorf("account %q missing", a.key)
		}
		return strconv.Atoi(string(v))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var transfers, sums, refused atomic.Int64
	for w, region := range c.Regions() {
		wg.Add(1)
		go func(w int, cn *coordinator.CN) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				from, to := accounts[rng.Intn(len(accounts))], accounts[rng.Intn(len(accounts))]
				if bytes.Equal(from.key, to.key) {
					continue
				}
				txn, err := cn.Begin(bg)
				if err != nil {
					t.Error(err)
					return
				}
				get := func(shard int, key []byte) ([]byte, bool, error) { return txn.Get(bg, shard, key) }
				fb, err1 := balance(get, from)
				tb, err2 := balance(get, to)
				if err1 != nil || err2 != nil {
					t.Errorf("transfer read: %v %v", err1, err2)
					txn.Abort(bg)
					return
				}
				amount := rng.Intn(10)
				txn.Put(bg, from.shard, from.key, []byte(strconv.Itoa(fb-amount)))
				txn.Put(bg, to.shard, to.key, []byte(strconv.Itoa(tb+amount)))
				switch err := txn.Commit(bg); {
				case err == nil:
					transfers.Add(1)
				case errors.Is(err, mvcc.ErrWriteConflict): // another writer won; try again
				default:
					t.Errorf("transfer commit: %v", err)
					return
				}
			}
		}(w, c.CN(region))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cn := c.CN("dongguan")
		for {
			select {
			case <-stop:
				return
			default:
			}
			q, err := cn.ReadOnly(bg, coordinator.AnyStaleness)
			if err != nil {
				t.Error(err)
				return
			}
			sum := 0
			for _, a := range accounts {
				b, err := balance(func(shard int, key []byte) ([]byte, bool, error) { return q.Get(bg, shard, key) }, a)
				if errors.Is(err, mvcc.ErrSnapshotTooOld) {
					sum = -1
					break
				}
				if err != nil {
					t.Errorf("sum read: %v", err)
					return
				}
				sum += b
			}
			switch sum {
			case -1:
				refused.Add(1)
			case total:
				sums.Add(1)
			default:
				t.Errorf("SUM(bal) at RCP %v = %d, want %d", q.Snapshot(), sum, total)
				return
			}
		}
	}()
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	t.Logf("%d transfers, %d consistent sums, %d sums refused as too old", transfers.Load(), sums.Load(), refused.Load())
	if transfers.Load() == 0 || sums.Load() == 0 {
		t.Fatalf("%d transfers and %d sums completed: the test exercised nothing", transfers.Load(), sums.Load())
	}
	var pruned int64
	for shard, p := range c.Primaries() {
		pruned += p.Store().Stats().Pruned
		last := p.Log().LastLSN()
		waitFor(t, fmt.Sprintf("shard %d truncation", shard), func() bool { return p.Log().Retained() < int(last) })
		for _, rep := range c.Replicas(shard) {
			waitFor(t, rep.ID()+" catch-up", func() bool { return rep.Applier().AppliedLSN() >= last })
		}
	}
	if pruned == 0 {
		t.Fatal("GC pruned nothing on any primary")
	}
	// Closing the writers ends the run: each shard's WAL must hold its whole
	// stream, the records truncated from the log included.
	c.Close()
	for shard, p := range c.Primaries() {
		recs, err := wal.Recover(filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", shard)))
		if err != nil {
			t.Fatal(err)
		}
		if n := uint64(len(recs)); n != p.Log().LastLSN() || n > 0 && recs[n-1].LSN != n {
			t.Fatalf("shard %d: WAL holds %d records, the log appended %d", shard, n, p.Log().LastLSN())
		}
	}
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGCPinIsReleasedOrExpires: Commit and Abort release a transaction's hold
// on the watermark, the oldest of several holds is the one that counts, and a
// transaction abandoned without either stops holding it after
// coordinator.MaxSnapshotHold instead of stopping GC for good.
func TestGCPinIsReleasedOrExpires(t *testing.T) {
	c := open(t, smallCfg())
	cn := c.CN("xian")
	pinned := func(at time.Time) ts.Timestamp {
		snap, ok := cn.OldestActiveSnapshot(at)
		if !ok {
			return 0
		}
		return snap
	}
	if got := pinned(time.Now()); got != 0 {
		t.Fatalf("idle CN pins %v", got)
	}
	first, _ := cn.Begin(bg)
	second, _ := cn.Begin(bg)
	if got := pinned(time.Now()); got != first.Snapshot() {
		t.Fatalf("pinned %v, want the older transaction's %v", got, first.Snapshot())
	}
	if err := first.Commit(bg); err != nil {
		t.Fatal(err)
	}
	if got := pinned(time.Now()); got != second.Snapshot() {
		t.Fatalf("after the older commit pinned %v, want %v", got, second.Snapshot())
	}
	if err := second.Abort(bg); err != nil {
		t.Fatal(err)
	}
	if got := pinned(time.Now()); got != 0 {
		t.Fatalf("after abort still pinned at %v", got)
	}
	abandoned, _ := cn.Begin(bg)
	if got := pinned(time.Now().Add(coordinator.MaxSnapshotHold - time.Second)); got != abandoned.Snapshot() {
		t.Fatalf("within the hold pinned %v, want %v", got, abandoned.Snapshot())
	}
	if got := pinned(time.Now().Add(coordinator.MaxSnapshotHold + time.Second)); got != 0 {
		t.Fatalf("past the hold still pinned at %v", got)
	}
}
