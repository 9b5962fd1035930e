package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"globaldb/internal/redo"
	"globaldb/internal/repl"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
)

// genRecords builds a contiguous stream of n records starting at LSN 1,
// alternating heap writes and commits.
func genRecords(n int, seed int64) []redo.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]redo.Record, 0, n)
	lsn := uint64(1)
	txn := uint64(0)
	commit := ts.Timestamp(10)
	for len(recs) < n {
		txn++
		writes := 1 + rng.Intn(3)
		for i := 0; i < writes && len(recs) < n; i++ {
			recs = append(recs, redo.Record{
				LSN: lsn, Type: redo.TypeHeapInsert, Txn: txn,
				Key:   []byte(fmt.Sprintf("key-%04d", rng.Intn(500))),
				Value: []byte(fmt.Sprintf("val-%d-%d", txn, i)),
			})
			lsn++
		}
		if len(recs) < n {
			commit += ts.Timestamp(1 + rng.Intn(3))
			recs = append(recs, redo.Record{LSN: lsn, Type: redo.TypeCommit, Txn: txn, TS: commit})
			lsn++
		}
	}
	return recs
}

func TestWriterAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recs := genRecords(100, 1)
	if err := w.Append(redo.Marshal(recs[:40])); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(redo.Marshal(recs[40:])); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].LSN != recs[i].LSN || got[i].Type != recs[i].Type ||
			!bytes.Equal(got[i].Key, recs[i].Key) || !bytes.Equal(got[i].Value, recs[i].Value) {
			t.Fatalf("record %d differs: %v vs %v", i, got[i], recs[i])
		}
	}
}

func TestWriterRejectsGaps(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := genRecords(10, 2)
	if err := w.Append(redo.Marshal(recs[:5])); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(redo.Marshal(recs[6:])); !errors.Is(err, ErrGap) {
		t.Fatalf("gap append: %v", err)
	}
	// Internal discontinuity is also rejected.
	bad := []redo.Record{recs[5], recs[7]}
	if err := w.Append(redo.Marshal(bad)); !errors.Is(err, ErrGap) {
		t.Fatalf("discontinuous append: %v", err)
	}
}

func TestWriterClosedRejectsAppend(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := w.Append(redo.Marshal(genRecords(1, 3))); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestWriterSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	recs := genRecords(200, 4)
	for i := 0; i < len(recs); i += 10 {
		end := i + 10
		if end > len(recs) {
			end = len(recs)
		}
		if err := w.Append(redo.Marshal(recs[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation, got segments %v", segs)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("recovered %d, want %d", len(got), len(recs))
	}
}

func TestReopenContinuesStream(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(60, 5)
	w, err := Open(Options{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(redo.Marshal(recs[:30])); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, err := Open(Options{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if w2.NextLSN() != 31 {
		t.Fatalf("NextLSN = %d, want 31", w2.NextLSN())
	}
	if err := w2.Append(redo.Marshal(recs[30:])); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 {
		t.Fatalf("recovered %d, want 60", len(got))
	}
}

// lastSegment returns the path of the newest segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := Segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	return filepath.Join(dir, segs[len(segs)-1])
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recs := genRecords(50, 6)
	if err := w.Append(redo.Marshal(recs)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Chop bytes off the tail, simulating a crash mid-write.
	path := lastSegment(t, dir)
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 49 {
		t.Fatalf("recovered %d, want 49 (last record torn)", len(got))
	}
	// The torn tail is physically gone: a reopened writer continues
	// cleanly and recovery sees the new records.
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if w2.NextLSN() != 50 {
		t.Fatalf("NextLSN = %d, want 50", w2.NextLSN())
	}
	if err := w2.Append(redo.Marshal([]redo.Record{{LSN: 50, Type: redo.TypeHeartbeat, TS: 999}})); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	got2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 50 || got2[49].TS != 999 {
		t.Fatalf("after repair: %d records", len(got2))
	}
}

func TestRecoverStopsAtCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recs := genRecords(20, 7)
	if err := w.Append(redo.Marshal(recs)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Flip a byte in the middle of the file: CRC catches it and recovery
	// keeps only the prefix.
	path := lastSegment(t, dir)
	buf, _ := os.ReadFile(path)
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= 20 {
		t.Fatalf("recovered %d records, want a strict prefix", len(got))
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

func TestRecoverEmptyAndMissingDir(t *testing.T) {
	got, err := Recover(t.TempDir())
	if err != nil || len(got) != 0 {
		t.Fatalf("empty dir: %v %v", got, err)
	}
	got, err = Recover(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing dir: %v %v", got, err)
	}
}

func TestRecoverIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-zzz.log"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(redo.Marshal(genRecords(5, 8))); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := Recover(dir)
	if err != nil || len(got) != 5 {
		t.Fatalf("recover: %d %v", len(got), err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncEveryBatch, SyncNever} {
		dir := t.TempDir()
		w, err := Open(Options{Dir: dir, Sync: policy})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(redo.Marshal(genRecords(10, 9))); err != nil {
			t.Fatal(err)
		}
		st := w.GroupStats()
		if st.Appended != 10 {
			t.Fatalf("appended = %d", st.Appended)
		}
		if policy == SyncEveryBatch && st.Fsyncs == 0 {
			t.Fatal("SyncEveryBatch must fsync")
		}
		if policy == SyncNever && st.Fsyncs != 0 {
			t.Fatal("SyncNever must not fsync on append")
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
}

// TestCrashRecoveryRebuildsStore replays a recovered WAL through the
// replica applier — the primary crash-recovery path — and checks that the
// rebuilt store matches a store that applied the stream directly.
func TestCrashRecoveryRebuildsStore(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	recs := genRecords(300, 10)
	for i := 0; i < len(recs); i += 17 {
		end := i + 17
		if end > len(recs) {
			end = len(recs)
		}
		if err := w.Append(redo.Marshal(recs[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	w.Close() // "crash" after everything is durable

	recovered, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	direct := repl.NewApplier(mvcc.NewStore())
	if _, err := direct.Apply(recs); err != nil {
		t.Fatal(err)
	}
	rebuilt := repl.NewApplier(mvcc.NewStore())
	if _, err := rebuilt.Apply(recovered); err != nil {
		t.Fatal(err)
	}
	if direct.MaxCommitTS() != rebuilt.MaxCommitTS() {
		t.Fatalf("watermarks differ: %v vs %v", direct.MaxCommitTS(), rebuilt.MaxCommitTS())
	}
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		a := direct.Store().Versions(key)
		b := rebuilt.Store().Versions(key)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d versions", key, len(a), len(b))
		}
		for j := range a {
			if a[j].CommitTS != b[j].CommitTS || !bytes.Equal(a[j].Value, b[j].Value) {
				t.Fatalf("%s version %d differs", key, j)
			}
		}
	}
}

// TestRecoverPrefixProperty: recovery after truncating the file at ANY byte
// offset yields a valid prefix of the original stream (never garbage, never
// out of order).
func TestRecoverPrefixProperty(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recs := genRecords(40, 11)
	if err := w.Append(redo.Marshal(recs)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	path := lastSegment(t, dir)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(cut uint16) bool {
		n := int(cut) % (len(full) + 1)
		scratch := t.TempDir()
		p := filepath.Join(scratch, segmentName(1))
		if err := os.WriteFile(p, full[:n], 0o644); err != nil {
			return false
		}
		got, err := Recover(scratch)
		if err != nil {
			return false
		}
		if len(got) > len(recs) {
			return false
		}
		for i, r := range got {
			if r.LSN != recs[i].LSN || !bytes.Equal(r.Key, recs[i].Key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
