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

func TestLogAppendAndRead(t *testing.T) {
	l := NewLog()
	if l.LastLSN() != 0 {
		t.Fatalf("empty log LastLSN = %d", l.LastLSN())
	}
	for i := 0; i < 10; i++ {
		lsn := l.Append(Record{Type: TypeHeartbeat, TS: ts.Timestamp(i)})
		if lsn != uint64(i+1) {
			t.Fatalf("LSN %d, want %d", lsn, i+1)
		}
	}
	recs, err := l.ReadFrom(1, 0)
	if err != nil || len(recs) != 10 {
		t.Fatalf("ReadFrom(1): %d recs, %v", len(recs), err)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("rec %d has LSN %d", i, r.LSN)
		}
	}
	recs, _ = l.ReadFrom(5, 3)
	if len(recs) != 3 || recs[0].LSN != 5 {
		t.Fatalf("bounded read: %v", recs)
	}
	recs, _ = l.ReadFrom(11, 0)
	if recs != nil {
		t.Fatalf("read past end: %v", recs)
	}
}

func TestLogAppendBatch(t *testing.T) {
	l := NewLog()
	batch := []Record{{Type: TypeHeapInsert}, {Type: TypeHeapInsert}, {Type: TypeCommit}}
	last := l.AppendBatch(batch)
	if last != 3 {
		t.Fatalf("last LSN = %d", last)
	}
	if l.AppendBatch(nil) != 3 {
		t.Fatal("empty batch must not advance LSN")
	}
	recs, _ := l.ReadFrom(1, 0)
	if len(recs) != 3 || recs[2].LSN != 3 {
		t.Fatalf("batch read: %v", recs)
	}
}

func TestLogTruncate(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: TypeHeartbeat})
	}
	l.Truncate(5)
	if _, err := l.ReadFrom(4, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read of truncated LSN: %v", err)
	}
	recs, err := l.ReadFrom(5, 0)
	if err != nil || len(recs) != 6 || recs[0].LSN != 5 {
		t.Fatalf("read after truncate: %d recs err %v", len(recs), err)
	}
	// Truncating backwards or past the end must be safe.
	l.Truncate(2)
	l.Truncate(100)
	if l.LastLSN() != 10 {
		t.Fatalf("LastLSN after truncate = %d", l.LastLSN())
	}
	if lsn := l.Append(Record{Type: TypeHeartbeat}); lsn != 11 {
		t.Fatalf("append after truncate: LSN %d", lsn)
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
	l.Append(Record{Type: TypeHeartbeat})
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
				l.Append(Record{Type: TypeHeapInsert, Txn: uint64(a), Key: []byte(fmt.Sprintf("%d-%d", a, i))})
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
			recs, err := l.ReadFrom(next, 64)
			if err != nil {
				t.Error(err)
				return
			}
			if len(recs) == 0 {
				ch := l.NotifyAppend()
				if recs, _ := l.ReadFrom(next, 64); len(recs) == 0 {
					<-ch
				}
				continue
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
