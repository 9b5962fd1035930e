package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"globaldb/internal/coordinator"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
)

// TestReplicasConvergeToPrimary: concurrent single-shard and two-phase
// transfers, about a tenth of them rolled back after their writes reached the
// primaries, replay on every replica through the real shipping path. Once
// the coordinators are quiet and every shipper is acked, each replica answers
// every key at its own replayed watermark exactly as its primary does at that
// timestamp, and holds no intent the primary does not.
func TestReplicasConvergeToPrimary(t *testing.T) {
	cfg := OneRegion(0)
	cfg.Shards = 4
	cfg.ReplicasPerShard = 2
	c := open(t, cfg)

	const perShard, initial = 6, 100
	type account struct {
		shard int
		key   []byte
	}
	var accounts []account
	setup, err := c.CN("node1").Begin(bg)
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
	allKeys := append([]account(nil), accounts...) // plus each worker's note keys

	// stage flushes a transaction's buffered writes for shard to its primary
	// as intents, so that rolling it back leaves heap records and an ABORT in
	// the redo stream rather than nothing at all.
	stage := func(txn *coordinator.Txn, shard int) error {
		cur := txn.ScanCursor(bg, shard, coordinator.ScanSpec{Start: []byte{0}, End: []byte{1}, Prefetch: -1})
		defer cur.Close()
		return cur.Err()
	}

	const workersPerCN, transfersPerWorker = 2, 60
	var (
		wg                           sync.WaitGroup
		mu                           sync.Mutex
		committed, aborted, conflict int
	)
	for ci, cn := range c.CNs() {
		for w := 0; w < workersPerCN; w++ {
			id := ci*workersPerCN + w
			notes := make([]account, c.Shards())
			for shard := range notes {
				notes[shard] = account{shard, key(shard, 1000+id)}
				allKeys = append(allKeys, notes[shard])
			}
			wg.Add(1)
			go func(cn *coordinator.CN, rng *rand.Rand, notes []account) {
				defer wg.Done()
				for i := 0; i < transfersPerWorker; i++ {
					from := accounts[rng.Intn(len(accounts))]
					to := accounts[rng.Intn(len(accounts))]
					if rng.Intn(2) == 0 { // single-shard transfer
						to = accounts[from.shard*perShard+rng.Intn(perShard)]
					}
					if bytes.Equal(from.key, to.key) {
						continue
					}
					txn, err := cn.Begin(bg)
					if err != nil {
						t.Error(err)
						return
					}
					fv, _, err1 := txn.Get(bg, from.shard, from.key)
					tv, _, err2 := txn.Get(bg, to.shard, to.key)
					if err1 != nil || err2 != nil {
						t.Errorf("transfer read: %v %v", err1, err2)
						txn.Abort(bg)
						return
					}
					fb, _ := strconv.Atoi(string(fv))
					tb, _ := strconv.Atoi(string(tv))
					amount := rng.Intn(10)
					txn.Put(bg, from.shard, from.key, []byte(strconv.Itoa(fb-amount)))
					txn.Put(bg, to.shard, to.key, []byte(strconv.Itoa(tb+amount)))
					// A note key per worker and shard is rewritten or deleted,
					// so replay sees deletes and re-inserts too.
					note := notes[from.shard]
					if rng.Intn(4) == 0 {
						txn.Delete(bg, note.shard, note.key)
					} else {
						txn.Put(bg, note.shard, note.key, []byte(fmt.Sprint("moved ", amount)))
					}
					if rng.Intn(10) == 0 {
						err1, err2 := stage(txn, from.shard), stage(txn, to.shard)
						txn.Abort(bg)
						mu.Lock()
						if err1 != nil || err2 != nil {
							conflict++
						} else {
							aborted++
						}
						mu.Unlock()
						continue
					}
					err = txn.Commit(bg)
					mu.Lock()
					switch {
					case err == nil:
						committed++
					case errors.Is(err, mvcc.ErrWriteConflict):
						conflict++
					default:
						t.Errorf("transfer commit: %v", err)
					}
					mu.Unlock()
				}
			}(cn, rand.New(rand.NewSource(int64(id))), notes)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("%d transfers committed, %d rolled back after staging, %d lost a write conflict", committed, aborted, conflict)
	if committed == 0 || aborted == 0 {
		t.Fatalf("%d committed and %d rolled back: the test exercised nothing", committed, aborted)
	}

	// Quiesce: phase two of every 2PC has landed, and every shipper has been
	// acked through the end of its primary's log as it stands now.
	for _, cn := range c.CNs() {
		cn.Quiesce()
	}
	for shard, p := range c.Primaries() {
		last := p.Log().LastLSN()
		for _, sh := range p.Repl().Shippers() {
			waitFor(t, fmt.Sprintf("shard %d shipper ack of LSN %d", shard, last), func() bool { return sh.AckedLSN() >= last })
		}
	}

	sum := 0
	for shard, p := range c.Primaries() {
		for _, rep := range c.Replicas(shard) {
			at := rep.Applier().MaxCommitTS()
			for _, k := range allKeys {
				if k.shard != shard {
					continue
				}
				want, wantOK, err := p.Store().Get(bg, k.key, at, 0)
				if err != nil {
					t.Fatalf("primary %s get %q at %v: %v", p.ID(), k.key, at, err)
				}
				got, gotOK, err := rep.Applier().Store().Get(bg, k.key, at, 0)
				if err != nil {
					t.Fatalf("replica %s get %q at %v: %v", rep.ID(), k.key, at, err)
				}
				if gotOK != wantOK || !bytes.Equal(got, want) {
					t.Fatalf("replica %s at %v: %q = %q,%v; primary has %q,%v", rep.ID(), at, k.key, got, gotOK, want, wantOK)
				}
			}
			if got, want := rep.Applier().Store().Stats().ActiveTxns, p.Store().Stats().ActiveTxns; got != want {
				t.Fatalf("replica %s holds intents of %d transactions, its primary %d", rep.ID(), got, want)
			}
		}
		for _, a := range accounts {
			if a.shard != shard {
				continue
			}
			v, _, err := p.Store().Get(bg, a.key, ts.Max, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := strconv.Atoi(string(v))
			sum += b
		}
	}
	if want := initial * len(accounts); sum != want {
		t.Fatalf("sum of balances = %d, want %d", sum, want)
	}
}
