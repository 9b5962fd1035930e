package mvcc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"globaldb/internal/ts"
)

// modelVersion is one committed value in the oracle.
type modelVersion struct {
	commitTS ts.Timestamp
	value    []byte
	deleted  bool
}

// model is a sequential oracle for a Store driven with non-overlapping
// transactions: committed versions per key, in commit order.
type model struct {
	versions map[string][]modelVersion // append order = commit order
}

func newModel() *model { return &model{versions: make(map[string][]modelVersion)} }

func (m *model) commit(writes map[string][]byte, deletes map[string]bool, commitTS ts.Timestamp) {
	for k, v := range writes {
		m.versions[k] = append(m.versions[k], modelVersion{commitTS: commitTS, value: v})
	}
	for k := range deletes {
		m.versions[k] = append(m.versions[k], modelVersion{commitTS: commitTS, deleted: true})
	}
}

func (m *model) read(key string, snap ts.Timestamp) ([]byte, bool) {
	var best *modelVersion
	for i := range m.versions[key] {
		v := &m.versions[key][i]
		if v.commitTS <= snap && (best == nil || v.commitTS > best.commitTS) {
			best = v
		}
	}
	if best == nil || best.deleted {
		return nil, false
	}
	return best.value, true
}

// TestStoreMatchesSequentialModel drives a Store with a long random
// sequence of serial transactions (writes, deletes, commits, aborts) and
// random Prune calls, and cross-checks every read at randomly chosen
// historical snapshots against the oracle, which never forgets a version: a
// read at or above the highest prune watermark must agree with it, and a read
// below must be refused, not answered.
func TestStoreMatchesSequentialModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := NewStore()
			oracle := newModel()
			ctx := context.Background()

			var floor ts.Timestamp // highest watermark pruned at
			check := func(where, key string, snap ts.Timestamp) {
				t.Helper()
				got, found, err := store.Get(ctx, []byte(key), snap, 0)
				if snap < floor {
					if !errors.Is(err, ErrSnapshotTooOld) {
						t.Fatalf("%s key %s snap %v below floor %v: (%q,%v,%v), want ErrSnapshotTooOld",
							where, key, snap, floor, got, found, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("%s get: %v", where, err)
				}
				want, wantFound := oracle.read(key, snap)
				if found != wantFound || !bytes.Equal(got, want) {
					t.Fatalf("%s key %s snap %v floor %v: store (%q,%v) vs model (%q,%v)",
						where, key, snap, floor, got, found, want, wantFound)
				}
			}

			var commitTimes []ts.Timestamp
			nextTS := ts.Timestamp(100)
			for txn := TxnID(1); txn <= 300; txn++ {
				writes := map[string][]byte{}
				deletes := map[string]bool{}
				nOps := 1 + rng.Intn(5)
				for i := 0; i < nOps; i++ {
					key := fmt.Sprintf("k%02d", rng.Intn(30))
					if rng.Intn(5) == 0 {
						// Deleting a key that exists at the current tip.
						if _, ok := oracle.read(key, ts.Max); ok {
							if err := store.Delete(txn, []byte(key), ts.Max); err != nil {
								t.Fatalf("delete: %v", err)
							}
							delete(writes, key)
							deletes[key] = true
							continue
						}
					}
					val := []byte(fmt.Sprintf("v-%d-%d", txn, i))
					if err := store.Put(txn, []byte(key), val, ts.Max); err != nil {
						t.Fatalf("put: %v", err)
					}
					delete(deletes, key)
					writes[key] = val
				}
				if rng.Intn(8) == 0 {
					if err := store.Abort(txn); err != nil {
						t.Fatalf("abort: %v", err)
					}
					continue
				}
				nextTS += ts.Timestamp(1 + rng.Intn(4))
				if err := store.Commit(txn, nextTS); err != nil {
					t.Fatalf("commit: %v", err)
				}
				oracle.commit(writes, deletes, nextTS)
				commitTimes = append(commitTimes, nextTS)

				// Now and then prune at a past commit time — sometimes one
				// below the floor, which must change nothing.
				if rng.Intn(12) == 0 {
					w := commitTimes[rng.Intn(len(commitTimes))] - ts.Timestamp(rng.Intn(2))
					store.Prune(w)
					floor = max(floor, w)
				}

				// Cross-check reads at the tip and at a random historical
				// snapshot (including between commits).
				snaps := []ts.Timestamp{nextTS, ts.Max, floor}
				if len(commitTimes) > 1 {
					base := commitTimes[rng.Intn(len(commitTimes))]
					snaps = append(snaps, base, base-1)
				}
				for _, snap := range snaps {
					check(fmt.Sprintf("txn %d", txn), fmt.Sprintf("k%02d", rng.Intn(30)), snap)
				}
			}

			// Full sweep at several snapshots.
			for _, snap := range []ts.Timestamp{commitTimes[len(commitTimes)/3], floor, commitTimes[len(commitTimes)-1], ts.Max} {
				for i := 0; i < 30; i++ {
					check("sweep", fmt.Sprintf("k%02d", i), snap)
				}
			}
			if floor == 0 || store.Stats().Pruned == 0 {
				t.Fatalf("the run pruned nothing (floor %v): the model was not exercised against Prune", floor)
			}
			// The maintained version count is the one a walk finds.
			var walked int64
			for _, k := range store.Keys() {
				walked += int64(len(store.Versions(k)))
			}
			if got := store.Stats().Versions; got != walked {
				t.Fatalf("Stats.Versions = %d, a walk counts %d", got, walked)
			}
		})
	}
}

// TestScanMatchesModel cross-checks range scans against the oracle.
func TestScanMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	store := NewStore()
	oracle := newModel()
	ctx := context.Background()
	nextTS := ts.Timestamp(10)
	for txn := TxnID(1); txn <= 100; txn++ {
		writes := map[string][]byte{}
		for i := 0; i < 1+rng.Intn(4); i++ {
			key := fmt.Sprintf("k%02d", rng.Intn(40))
			val := []byte(fmt.Sprintf("v%d", txn))
			if err := store.Put(txn, []byte(key), val, ts.Max); err != nil {
				t.Fatal(err)
			}
			writes[key] = val
		}
		nextTS += 2
		if err := store.Commit(txn, nextTS); err != nil {
			t.Fatal(err)
		}
		oracle.commit(writes, nil, nextTS)
	}
	for trial := 0; trial < 50; trial++ {
		lo := rng.Intn(40)
		hi := lo + rng.Intn(40-lo) + 1
		snap := ts.Timestamp(10 + rng.Intn(220))
		start := []byte(fmt.Sprintf("k%02d", lo))
		end := []byte(fmt.Sprintf("k%02d", hi))
		got, err := store.Scan(ctx, start, end, snap, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var want []KV
		for i := lo; i < hi; i++ {
			key := fmt.Sprintf("k%02d", i)
			if v, ok := oracle.read(key, snap); ok {
				want = append(want, KV{Key: []byte(key), Value: v})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("scan [%s,%s) @%v: %d rows, want %d", start, end, snap, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("scan row %d: (%q,%q) vs (%q,%q)", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
}

// TestWriteConflictRules checks first-committer-wins behaviour explicitly:
// a writer with a snapshot below an existing committed version must fail,
// as must a writer colliding with a foreign intent.
func TestWriteConflictRules(t *testing.T) {
	store := NewStore()
	if err := store.Put(1, []byte("k"), []byte("v1"), ts.Max); err != nil {
		t.Fatal(err)
	}
	// Foreign intent conflict.
	if err := store.Put(2, []byte("k"), []byte("v2"), ts.Max); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("intent conflict: %v", err)
	}
	if err := store.Commit(1, 100); err != nil {
		t.Fatal(err)
	}
	// Snapshot-stale write conflict.
	if err := store.Put(3, []byte("k"), []byte("v3"), 50); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale snapshot: %v", err)
	}
	// Fresh snapshot succeeds.
	if err := store.Put(4, []byte("k"), []byte("v4"), 100); err != nil {
		t.Fatal(err)
	}
	if err := store.Commit(4, 200); err != nil {
		t.Fatal(err)
	}
}
