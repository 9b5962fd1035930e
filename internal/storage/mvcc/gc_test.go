package mvcc

import (
	"errors"
	"flag"
	"fmt"
	"sync"
	"testing"

	"globaldb/internal/ts"
)

// TestReadersDoNotRaceInstallOrPrune is the regression test for chains
// edited in place under readers that hold their slice header: one goroutine
// applies versions out of timestamp order (and prunes), another reads the
// same key. Under -race the parent's ApplyCommitted (a copy() shifting the
// live array) is reported here; without -race a reader could see a version
// twice or not at all.
func TestReadersDoNotRaceInstallOrPrune(t *testing.T) {
	s := NewStore()
	key := []byte("hot")
	s.ApplyCommitted(key, []byte("v0"), false, 1)
	const rounds = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			base := ts.Timestamp(10 + i*10)
			// Newest first, then two older ones: each of the latter inserts
			// below an element a reader's header may cover.
			s.ApplyCommitted(key, []byte("c"), false, base+6)
			s.ApplyCommitted(key, []byte("a"), false, base+2)
			s.ApplyCommitted(key, []byte("b"), false, base+4)
			if i%64 == 63 {
				s.Prune(base - 300)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*3; i++ {
			v, found, err := s.Get(bg, key, ts.Max, 0)
			if err != nil || !found || len(v) == 0 {
				t.Errorf("read %d: (%q,%v,%v)", i, v, found, err)
				return
			}
		}
	}()
	wg.Wait()
	vs := s.Versions(key)
	for i := 1; i < len(vs); i++ {
		if vs[i-1].CommitTS < vs[i].CommitTS {
			t.Fatalf("Versions must be newest first: %v before %v", vs[i-1].CommitTS, vs[i].CommitTS)
		}
	}
}

// commitBytesAtDepth reports the bytes one Put+Commit on a single key
// allocates while the key's chain holds between depth and 2*depth versions.
// Every depth commits a Prune cuts the chain back to depth; the copy it makes
// is one version's worth of bytes per commit at any depth, so it is left in
// the count rather than paid for with a stopped timer's two ReadMemStats.
func commitBytesAtDepth(depth int) int64 {
	res := testing.Benchmark(func(b *testing.B) {
		s := NewStore()
		key, val := []byte("district"), make([]byte, 96)
		next := ts.Timestamp(1)
		for ; next <= ts.Timestamp(depth); next++ {
			s.ApplyCommitted(key, val, false, next)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Put(TxnID(i+1), key, val, ts.Max); err != nil {
				b.Fatal(err)
			}
			if err := s.Commit(TxnID(i+1), next); err != nil {
				b.Fatal(err)
			}
			next++
			if i%depth == depth-1 {
				s.Prune(next - ts.Timestamp(depth))
			}
		}
	})
	return res.AllocedBytesPerOp()
}

// TestCommitAllocIndependentOfDepth is the deterministic gate behind "run
// flat": what a commit allocates must not grow with the history of the key
// it writes. With the chain re-allocated and copied on every install the
// deep case read ~160 KB against ~0.6 KB.
func TestCommitAllocIndependentOfDepth(t *testing.T) {
	// A fixed iteration count — four cut-backs of the deep chain — makes the
	// figure repeat exactly and the test take milliseconds, not the second
	// per call testing.Benchmark would otherwise fill.
	benchtime := flag.Lookup("test.benchtime")
	defer flag.Set(benchtime.Name, benchtime.Value.String())
	if err := flag.Set(benchtime.Name, "16384x"); err != nil {
		t.Fatal(err)
	}
	shallow, deep := commitBytesAtDepth(16), commitBytesAtDepth(4096)
	t.Logf("bytes allocated per commit: %d at depth 16, %d at depth 4096", shallow, deep)
	if deep > 2*shallow || shallow > 2*deep {
		t.Fatalf("a commit allocates %d B on a 16-deep chain and %d B on a 4096-deep one: install cost depends on history", shallow, deep)
	}
}

// listed is the number of entries Prune would visit.
func listed(s *Store) int {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	return len(s.deep) + len(s.tombs)
}

// TestPruneVisitsOnlyKeysWithGarbage pins the queue discipline: a chain is
// queued when it reaches two versions or gets a tombstone — whether by Commit
// or by ApplyCommitted — stays queued while it holds garbage above the
// watermark, and costs Prune nothing otherwise.
func TestPruneVisitsOnlyKeysWithGarbage(t *testing.T) {
	s := NewStore()
	for i := 0; i < 100; i++ {
		s.ApplyCommitted([]byte(fmt.Sprintf("cold%03d", i)), []byte("v"), false, 10)
	}
	queued := func() int { return listed(s) }
	if n := queued(); n != 0 {
		t.Fatalf("%d single-version keys queued", n)
	}
	s.ApplyCommitted([]byte("cold000"), []byte("v2"), false, 20) // second version
	mustPut(t, s, 1, "cold001", "v2", ts.Max)
	mustPut(t, s, 1, "cold002", "v2", ts.Max)
	if err := s.Commit(1, 30); err != nil {
		t.Fatal(err)
	}
	s.ApplyCommitted([]byte("cold000"), []byte("v3"), false, 40) // already queued
	if n := queued(); n != 3 {
		t.Fatalf("queued %d keys, want 3", n)
	}
	// Watermark 25: cold000 loses v@10, keeps 20 and 40 and stays queued;
	// cold001/2 have nothing at or below it but the first version.
	if removed := s.Prune(25); removed != 1 {
		t.Fatalf("Prune(25) removed %d, want 1", removed)
	}
	if n := queued(); n != 3 {
		t.Fatalf("after Prune(25) queued %d, want 3 (garbage above the watermark)", n)
	}
	if removed := s.Prune(50); removed != 3 {
		t.Fatalf("Prune(50) removed %d, want 3", removed)
	}
	if n := queued(); n != 0 {
		t.Fatalf("after Prune(50) queued %d, want 0", n)
	}
	st := s.Stats()
	if st.Versions != 100 || st.Pruned != 4 || st.Keys != 100 {
		t.Fatalf("stats %+v, want 100 versions on 100 keys, 4 pruned", st)
	}
}

// TestPruneUnlinksTombstones: a deleted key costs nothing once the deletion
// is below the watermark, a snapshot that could still see the row is refused
// rather than told "not found", and a stale writer cannot slip under the
// vanished tombstone.
func TestPruneUnlinksTombstones(t *testing.T) {
	s := NewStore()
	s.ApplyCommitted([]byte("k"), []byte("v"), false, 10)
	mustPut(t, s, 1, "keep", "v", ts.Max)
	if err := s.Delete(1, []byte("k"), ts.Max); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1, 20); err != nil {
		t.Fatal(err)
	}
	if removed := s.Prune(15); removed != 0 {
		t.Fatalf("Prune below the tombstone removed %d", removed)
	}
	if v, ok := get(t, s, "k", 15); !ok || v != "v" {
		t.Fatalf("read under the tombstone: %q,%v", v, ok)
	}
	if removed := s.Prune(30); removed != 2 {
		t.Fatalf("Prune above the tombstone removed %d, want the row and the tombstone", removed)
	}
	if st := s.Stats(); st.Keys != 1 || st.Versions != 1 || listed(s) != 0 {
		t.Fatalf("after unlinking: %+v with %d chains still listed, want 1 key with 1 version and none", st, listed(s))
	}
	if _, ok := get(t, s, "k", 30); ok {
		t.Fatal("deleted key visible at the watermark")
	}
	if _, _, err := s.Get(bg, []byte("k"), 15, 0); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("read at 15 after Prune(30): %v, want ErrSnapshotTooOld", err)
	}
	if _, err := s.Scan(bg, nil, nil, 15, 0, 0); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("scan at 15 after Prune(30): %v, want ErrSnapshotTooOld", err)
	}
	// At the parent's snapshot 15 this write would have met the tombstone at
	// 20 and failed with a conflict; it must not succeed now.
	if err := s.Put(2, []byte("k"), []byte("lost-update"), 15); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("stale write after the tombstone was unlinked: %v, want ErrSnapshotTooOld", err)
	}
	if st := s.Stats(); st.Keys != 1 {
		t.Fatalf("the refused write left a chain behind: %+v", st)
	}
	// The key is writable again at a live snapshot, and a tombstone with an
	// intent on it is not unlinked from under the writer.
	mustPut(t, s, 3, "k", "reborn", 40)
	if err := s.Commit(3, 50); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(4, []byte("k"), 60); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(4, 70); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, 5, "k", "again", 80)
	s.Prune(90)
	if err := s.Commit(5, 100); err != nil {
		t.Fatal(err)
	}
	if v, ok := get(t, s, "k", 100); !ok || v != "again" {
		t.Fatalf("write across a prune of its key's tombstone: %q,%v", v, ok)
	}
}

// TestCloneCarriesFloorAndQueue: a store seeded from a clone refuses what its
// source refuses and prunes what its source would have.
func TestCloneCarriesFloorAndQueue(t *testing.T) {
	s := NewStore()
	for v := 1; v <= 5; v++ {
		s.ApplyCommitted([]byte("k"), []byte{byte(v)}, false, ts.Timestamp(v*10))
	}
	s.Prune(25)
	c := s.Clone()
	if _, _, err := c.Get(bg, []byte("k"), 15, 0); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("clone read below its source's floor: %v", err)
	}
	if got, want := c.Stats().Versions, s.Stats().Versions; got != want {
		t.Fatalf("clone holds %d versions, source %d", got, want)
	}
	if removed := c.Prune(45); removed != 2 {
		t.Fatalf("clone Prune(45) removed %d, want 2", removed)
	}
}
