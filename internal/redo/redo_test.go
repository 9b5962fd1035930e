package redo

import (
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"globaldb/internal/ts"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{LSN: 1, Type: TypeHeapInsert, Txn: 42, TS: 0, Key: []byte("k"), Value: []byte("v")},
		{LSN: 2, Type: TypeCommit, Txn: 42, TS: ts.Timestamp(1e18)},
		{LSN: 3, Type: TypePendingCommit, Txn: 42},
		{LSN: 4, Type: TypeHeapDelete, Txn: 7, Key: []byte("gone")},
		{LSN: 5, Type: TypeHeartbeat, TS: 12345},
		{LSN: 6, Type: TypeDDL, TS: 99, Key: []byte("tbl"), Value: []byte("create")},
	}
	buf := Marshal(recs)
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, recs)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(lsn, txn uint64, tsv int64, typ uint8, key, value []byte) bool {
		r := Record{LSN: lsn, Type: Type(typ%11 + 1), Txn: txn, TS: ts.Timestamp(tsv)}
		if len(key) > 0 {
			r.Key = key
		}
		if len(value) > 0 {
			r.Value = value
		}
		got, rest, err := DecodeRecord(AppendRecord(nil, r))
		return err == nil && len(rest) == 0 && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMarshalGoldenFrame pins the frame layout byte for byte: replicas, the
// WAL on disk and recovery all read what this encoder writes.
func TestMarshalGoldenFrame(t *testing.T) {
	recs := []Record{
		{LSN: 1, Type: TypeHeapInsert, Txn: 7, TS: 0, Key: []byte("k1"), Value: []byte("v1")},
		{LSN: 300, Type: TypeCommit, Txn: 1 << 40, TS: -5},
		{LSN: 301, Type: TypeHeapUpdate, Txn: 9, TS: 1234567890123, Key: []byte("order/0042"), Value: []byte("hello redo")},
	}
	const want = "0a000000d98eb8e401010700026b310276310c00000085dc53b505ac02808080808020" +
		"090000200000004c23e7e402ad02099693d89fee470a6f726465722f303034320a68656c6c6f207265646f"
	if got := hex.EncodeToString(Marshal(recs)); got != want {
		t.Fatalf("frames changed:\n got %s\nwant %s", got, want)
	}
}

// TestMarshalSizesOnce: Marshal computes the exact stream length up front,
// so a batch costs one allocation however many records it holds.
func TestMarshalSizesOnce(t *testing.T) {
	f := func(lsn, txn uint64, tsv int64, key, value []byte) bool {
		recs := []Record{
			{LSN: lsn, Type: TypeHeapUpdate, Txn: txn, TS: ts.Timestamp(tsv), Key: key, Value: value},
			{LSN: lsn + 1, Type: TypeCommit, Txn: txn, TS: ts.Timestamp(-tsv)},
		}
		buf := Marshal(recs)
		return len(buf) == cap(buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, Record{LSN: uint64(i + 1), Type: TypeHeapUpdate, Txn: 42,
			Key: []byte(fmt.Sprintf("stock/%04d", i)), Value: make([]byte, 120)})
	}
	if n := testing.AllocsPerRun(100, func() { _ = Marshal(recs) }); n != 1 {
		t.Fatalf("Marshal of a 10-record batch made %v allocations, want 1", n)
	}
}

func TestDecodeCorruption(t *testing.T) {
	r := Record{LSN: 9, Type: TypeCommit, Txn: 1, TS: 100, Key: []byte("key"), Value: []byte("value")}
	buf := AppendRecord(nil, r)
	// Flip every byte one at a time: decode must fail or return the
	// original record (a flip in padding-free frames always breaks CRC).
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xFF
		got, _, err := DecodeRecord(mut)
		if err == nil && reflect.DeepEqual(got, r) {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	// Truncations must fail cleanly.
	for i := 0; i < len(buf); i++ {
		if _, _, err := DecodeRecord(buf[:i]); err == nil {
			t.Fatalf("truncation at %d went undetected", i)
		}
	}
}

// appendOne appends r alone and returns its LSN.
func appendOne(l *Log, r Record) uint64 {
	lsn, _ := l.AppendBatch([]Record{r})
	return lsn
}

// readRecs decodes the view l.ReadFrom(from, max) returns, requiring the
// count it reports to match the frames in it.
func readRecs(t testing.TB, l *Log, from uint64, max int) []Record {
	t.Helper()
	frames, n, err := l.ReadFrom(from, max)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Unmarshal(frames)
	if err != nil || len(recs) != n {
		t.Fatalf("ReadFrom(%d, %d): %d frames decode to %d records, %v", from, max, n, len(recs), err)
	}
	return recs
}

func TestLogAppendAndRead(t *testing.T) {
	l := NewLog()
	if l.LastLSN() != 0 {
		t.Fatalf("empty log LastLSN = %d", l.LastLSN())
	}
	for i := 0; i < 10; i++ {
		lsn := appendOne(l, Record{Type: TypeHeartbeat, TS: ts.Timestamp(i)})
		if lsn != uint64(i+1) {
			t.Fatalf("LSN %d, want %d", lsn, i+1)
		}
	}
	recs := readRecs(t, l, 1, 0)
	if len(recs) != 10 {
		t.Fatalf("ReadFrom(1): %d recs", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.TS != ts.Timestamp(i) {
			t.Fatalf("rec %d is %v", i, r)
		}
	}
	recs = readRecs(t, l, 5, 3)
	if len(recs) != 3 || recs[0].LSN != 5 {
		t.Fatalf("bounded read: %v", recs)
	}
	if frames, n, err := l.ReadFrom(11, 0); frames != nil || n != 0 || err != nil {
		t.Fatalf("read past end: %d frames, %v", n, err)
	}
	if got, want := l.RetainedBytes(), len(Marshal(readRecs(t, l, 1, 0))); got != want {
		t.Fatalf("RetainedBytes = %d, want %d", got, want)
	}
}

// TestLogAppendBatch: a batch gets contiguous LSNs, and the view it returns
// is exactly those records' frames.
func TestLogAppendBatch(t *testing.T) {
	l := NewLog()
	batch := []Record{{Type: TypeHeapInsert, Key: []byte("a")}, {Type: TypeHeapInsert}, {Type: TypeCommit, TS: 9}}
	last, frames := l.AppendBatch(batch)
	if last != 3 {
		t.Fatalf("last LSN = %d", last)
	}
	for i := range batch {
		batch[i].LSN = uint64(i + 1)
	}
	if want := Marshal(batch); string(frames) != string(want) || cap(frames) != len(frames) {
		t.Fatalf("batch frames %x (cap %d), want %x", frames, cap(frames), want)
	}
	if last, frames := l.AppendBatch(nil); last != 3 || frames != nil {
		t.Fatal("empty batch must not advance LSN")
	}
	recs := readRecs(t, l, 1, 0)
	if len(recs) != 3 || recs[2].LSN != 3 {
		t.Fatalf("batch read: %v", recs)
	}
}

// TestLogTypeAt: a retained record's type comes from its frame header,
// without an allocation, and an LSN the log does not hold has none.
func TestLogTypeAt(t *testing.T) {
	l := NewLog()
	l.AppendBatch([]Record{{Type: TypeHeapInsert, Key: []byte("a")}, {Type: TypeCommit, TS: 9}, {Type: TypeHeartbeat, TS: 10}})
	for lsn, want := range map[uint64]Type{1: TypeHeapInsert, 2: TypeCommit, 3: TypeHeartbeat} {
		if got, ok := l.TypeAt(lsn); !ok || got != want {
			t.Fatalf("TypeAt(%d) = %v %v, want %v", lsn, got, ok, want)
		}
	}
	l.Truncate(3)
	for _, lsn := range []uint64{0, 2, 4} {
		if _, ok := l.TypeAt(lsn); ok {
			t.Fatalf("TypeAt(%d) answered for an LSN the log does not hold", lsn)
		}
	}
	if got, _ := l.TypeAt(3); got != TypeHeartbeat {
		t.Fatalf("TypeAt(3) after truncation = %v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { l.TypeAt(3) }); allocs != 0 {
		t.Fatalf("TypeAt allocates %v times", allocs)
	}
}

func TestLogTruncate(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		appendOne(l, Record{Type: TypeHeartbeat})
	}
	l.Truncate(5)
	if _, _, err := l.ReadFrom(4, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read of truncated LSN: %v", err)
	}
	recs := readRecs(t, l, 5, 0)
	if len(recs) != 6 || recs[0].LSN != 5 || l.Retained() != 6 {
		t.Fatalf("read after truncate: %d recs, %d retained", len(recs), l.Retained())
	}
	// Truncating backwards or past the end must be safe.
	l.Truncate(2)
	l.Truncate(100)
	if l.LastLSN() != 10 || l.Retained() != 0 || l.RetainedBytes() != 0 {
		t.Fatalf("after truncating everything: LastLSN %d, %d records in %d bytes retained",
			l.LastLSN(), l.Retained(), l.RetainedBytes())
	}
	if lsn := appendOne(l, Record{Type: TypeHeartbeat}); lsn != 11 {
		t.Fatalf("append after truncate: LSN %d", lsn)
	}
	if recs := readRecs(t, l, 11, 0); len(recs) != 1 || recs[0].LSN != 11 {
		t.Fatalf("read after truncating everything: %v", recs)
	}
}

// TestLogViewsStayValid: a view the log hands out keeps its bytes while the
// log grows through several reallocations and is truncated below, into and
// above the view's LSNs, and appending to a view cannot reach the log.
func TestLogViewsStayValid(t *testing.T) {
	l := NewLog()
	for i := 0; i < 4; i++ {
		appendOne(l, Record{Type: TypeHeapUpdate, Txn: 1, Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v")})
	}
	_, batch := l.AppendBatch([]Record{{Type: TypePendingCommit, Txn: 1}, {Type: TypeCommit, Txn: 1, TS: 7}})
	read, n, err := l.ReadFrom(3, 2)
	if err != nil || n != 2 {
		t.Fatalf("ReadFrom(3, 2): %d frames, %v", n, err)
	}
	views := [][]byte{batch, read}
	want := make([][]byte, len(views))
	for i, v := range views {
		want[i] = append([]byte(nil), v...)
	}
	check := func(when string) {
		t.Helper()
		for i, v := range views {
			if string(v) != string(want[i]) || cap(v) != len(v) {
				t.Fatalf("%s: view %d is %x (cap %d), want %x", when, i, v, cap(v), want[i])
			}
		}
	}
	if grown := append(read, 0xff); &grown[0] == &read[0] {
		t.Fatal("appending to a view wrote into the log")
	}
	readRecs(t, l, 5, 0) // the frames after the view still decode
	check("after appending to a view")

	reallocs := 0
	for i := 0; reallocs < 5; i++ {
		before := cap(l.buf)
		appendOne(l, Record{Type: TypeHeapUpdate, Txn: 2, Key: []byte(fmt.Sprintf("grow-%d", i)), Value: make([]byte, 64)})
		if cap(l.buf) != before {
			reallocs++
		}
	}
	check("after the log grew")
	for _, before := range []uint64{2, 4, 6, 8, l.LastLSN() + 1} {
		l.Truncate(before)
		check(fmt.Sprintf("after Truncate(%d)", before))
	}
}

// TestLogViewsUnderConcurrentTruncate: a reader holding views checks them
// while an appender appends and truncates behind it (run with -race).
func TestLogViewsUnderConcurrentTruncate(t *testing.T) {
	l := NewLog()
	const total = 3000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= total; i++ {
			appendOne(l, Record{Type: TypeHeapUpdate, Txn: uint64(i), Key: []byte(fmt.Sprintf("k%d", i)), Value: make([]byte, i%97)})
			if i%50 == 0 {
				l.Truncate(uint64(i - 40))
			}
		}
	}()
	type held struct {
		view, copy []byte
		from       uint64
	}
	var views []held
	next := uint64(1)
	for next <= total {
		frames, n, err := l.ReadFrom(next, 16)
		if errors.Is(err, ErrTruncated) {
			next = l.LastLSN() - uint64(l.Retained()) + 1
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			ch := l.NotifyAppend()
			if _, n, _ := l.ReadFrom(next, 16); n == 0 {
				<-ch
			}
			continue
		}
		recs, err := Unmarshal(frames)
		if err != nil || len(recs) != n || recs[0].LSN != next || cap(frames) != len(frames) {
			t.Fatalf("view at %d: %d frames, %d records, %v", next, n, len(recs), err)
		}
		views = append(views, held{frames, append([]byte(nil), frames...), next})
		next += uint64(n)
	}
	<-done
	for _, h := range views {
		if string(h.view) != string(h.copy) {
			t.Fatalf("view from LSN %d changed", h.from)
		}
	}
}

func TestLogNotifyAppend(t *testing.T) {
	l := NewLog()
	ch := l.NotifyAppend()
	select {
	case <-ch:
		t.Fatal("notified before append")
	default:
	}
	appendOne(l, Record{Type: TypeHeartbeat})
	select {
	case <-ch:
	default:
		t.Fatal("append did not notify")
	}
}

func TestLogConcurrentAppendersAndTailer(t *testing.T) {
	l := NewLog()
	const appenders = 8
	const each = 500
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				appendOne(l, Record{Type: TypeHeapInsert, Txn: uint64(a), Key: []byte(fmt.Sprintf("%d-%d", a, i))})
			}
		}(a)
	}
	// Tail concurrently until all records observed.
	seen := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := uint64(1)
		for seen < appenders*each {
			frames, n, err := l.ReadFrom(next, 64)
			if err != nil {
				t.Error(err)
				return
			}
			if n == 0 {
				ch := l.NotifyAppend()
				if _, n, _ := l.ReadFrom(next, 64); n == 0 {
					<-ch
				}
				continue
			}
			recs, err := Unmarshal(frames)
			if err != nil || len(recs) != n {
				t.Errorf("%d frames decode to %d records: %v", n, len(recs), err)
				return
			}
			for _, r := range recs {
				if r.LSN != next {
					t.Errorf("gap: got LSN %d want %d", r.LSN, next)
					return
				}
				next++
				seen++
			}
		}
	}()
	wg.Wait()
	<-done
	if seen != appenders*each {
		t.Fatalf("tailer saw %d records", seen)
	}
}

func BenchmarkAppendRecord(b *testing.B) {
	r := Record{LSN: 1, Type: TypeHeapUpdate, Txn: 99, TS: 1 << 60, Key: make([]byte, 24), Value: make([]byte, 128)}
	buf := make([]byte, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendRecord(buf[:0], r)
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	r := Record{LSN: 1, Type: TypeHeapUpdate, Txn: 99, TS: 1 << 60, Key: make([]byte, 24), Value: make([]byte, 128)}
	buf := AppendRecord(nil, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRecord(buf); err != nil {
			b.Fatal(err)
		}
	}
}
