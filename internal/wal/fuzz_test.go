package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"globaldb/internal/redo"
)

// fuzzSegBytes is the rotation threshold of FuzzRecover's streams: small, so
// that 40 records span several segments.
const fuzzSegBytes = 256

// FuzzRecover runs Recover over two kinds of damaged directory. First, seg
// taken whole as the only segment file, which may hold anything. Second, a
// valid multi-segment stream that a crash cut at byte cut (the segments
// after the cut are gone) and in which one bit, at bit offset flip, is
// flipped (past the end: none). In both, Recover must not panic, must
// return contiguous LSNs, must leave the files so that a second Recover
// returns the same records, and a writer reopened on them must continue at
// the last LSN plus one with nothing of the damaged stream resurfacing
// after what it appends. Of the written stream, Recover must return
// exactly the records whose frames lie wholly before the first damaged
// byte. The seed corpus in testdata/fuzz/FuzzRecover starts from a shard
// primary's WAL; TestRecoverPrefixProperty covers clean cuts of one
// segment.
func FuzzRecover(f *testing.F) {
	recs := genRecords(40, 5)
	src := f.TempDir()
	w, err := Open(Options{Dir: src, SegmentBytes: fuzzSegBytes, Sync: SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	for i := range recs {
		if err := w.Append(redo.Marshal(recs[i : i+1])); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	names, err := Segments(src)
	if err != nil || len(names) < 3 {
		f.Fatalf("segments: %v %v", names, err)
	}
	// stream concatenates the segments; segStart[i] is where segment i
	// begins in it and frameEnds the end of every frame.
	var stream []byte
	segStart := make([]int, len(names)+1)
	var frameEnds []int
	for i, name := range names {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			f.Fatal(err)
		}
		segStart[i] = len(stream)
		stream = append(stream, data...)
		for rest := data; len(rest) > 0; {
			if _, rest, err = redo.DecodeRecord(rest); err != nil {
				f.Fatal(err)
			}
			frameEnds = append(frameEnds, len(stream)-len(rest))
		}
	}
	segStart[len(names)] = len(stream)
	if len(frameEnds) != len(recs) {
		f.Fatalf("%d frames for %d records", len(frameEnds), len(recs))
	}
	noFlip := uint32(8 * len(stream))

	f.Add([]byte{}, uint32(len(stream)), noFlip)
	f.Add(stream[:segStart[1]], uint32(segStart[1]), uint32(8*segStart[1]+3))
	f.Add(stream[:20], uint32(len(stream)-3), uint32(8*segStart[2]+9))
	f.Fuzz(func(t *testing.T, seg []byte, cut, flip uint32) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		got := recoverTwice(t, dir)
		for i := 1; i < len(got); i++ {
			if got[i].LSN != got[i-1].LSN+1 {
				t.Fatalf("LSN %d follows %d", got[i].LSN, got[i-1].LSN)
			}
		}
		checkReopen(t, dir, got)

		n := int(cut % uint32(len(stream)+1))
		bit := int(flip % (noFlip + 1))
		damaged := append([]byte(nil), stream[:n]...)
		intact := n
		if bit/8 < n {
			damaged[bit/8] ^= 1 << (bit % 8)
			intact = bit / 8
		}
		dir = t.TempDir()
		for i, name := range names {
			if segStart[i] >= n {
				break
			}
			data := damaged[segStart[i]:min(segStart[i+1], n)]
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got = recoverTwice(t, dir)
		want := 0
		for want < len(frameEnds) && frameEnds[want] <= intact {
			want++
		}
		if len(got) != want {
			t.Fatalf("recovered %d records, want the %d wholly before byte %d", len(got), want, intact)
		}
		sameRecords(t, got, recs[:want])
		checkReopen(t, dir, got)
	})
}

// recoverTwice recovers dir, then recovers it again and requires the same
// records: the first pass must have left no damage for the second to cut.
func recoverTwice(t *testing.T, dir string) []redo.Record {
	t.Helper()
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, again, got)
	return got
}

// checkReopen opens a writer on a recovered dir, which must continue at the
// LSN after got's last, appends a fresh stream longer than any FuzzRecover
// writes, and requires recovery to return got followed by exactly that
// stream.
func checkReopen(t *testing.T, dir string, got []redo.Record) {
	t.Helper()
	next := uint64(1)
	if len(got) > 0 {
		next = got[len(got)-1].LSN + 1
	}
	w, err := Open(Options{Dir: dir, SegmentBytes: fuzzSegBytes, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if w.NextLSN() != next {
		w.Close()
		t.Fatalf("reopened writer continues at %d, want %d", w.NextLSN(), next)
	}
	fresh := genRecords(45, 6)
	for i := range fresh {
		fresh[i].LSN = next + uint64(i)
		fresh[i].Value = []byte(fmt.Sprintf("fresh-%d", i))
		if err := w.Append(redo.Marshal(fresh[i : i+1])); err != nil {
			w.Close()
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	all, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, all, append(append([]redo.Record(nil), got...), fresh...))
}

func sameRecords(t *testing.T, got, want []redo.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.LSN != w.LSN || g.Type != w.Type || g.Txn != w.Txn || g.TS != w.TS ||
			!bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Value, w.Value) {
			t.Fatalf("record %d is %v, want %v", i, g, w)
		}
	}
}
