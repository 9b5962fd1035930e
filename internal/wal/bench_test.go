package wal

import (
	"context"
	"testing"
	"time"

	"globaldb/internal/redo"
)

func BenchmarkAppendSyncEveryBatch(b *testing.B) {
	benchAppend(b, SyncEveryBatch)
}

func BenchmarkAppendSyncNever(b *testing.B) {
	benchAppend(b, SyncNever)
}

func benchAppend(b *testing.B, policy SyncPolicy) {
	w, err := Open(Options{Dir: b.TempDir(), Sync: policy})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	recs := genRecords(64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.AppendAssign(recs); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs)) * 48)
}

// benchFsyncDelay models a real device's sync cost; tmpfs fsync is nearly
// free, which would hide the contention group commit removes.
const benchFsyncDelay = 100 * time.Microsecond

// BenchmarkAppendGroupCommit: N concurrent committers, each append+wait-
// durable per commit, under the group-commit policy. Compare against
// BenchmarkAppendPerCommitFsync (SyncEveryBatch, the fsync-per-commit
// baseline) at the same parallelism.
func BenchmarkAppendGroupCommit(b *testing.B) {
	benchConcurrentCommit(b, SyncGroup)
}

func BenchmarkAppendPerCommitFsync(b *testing.B) {
	benchConcurrentCommit(b, SyncEveryBatch)
}

func benchConcurrentCommit(b *testing.B, policy SyncPolicy) {
	w, err := Open(Options{Dir: b.TempDir(), Sync: policy, FsyncDelay: benchFsyncDelay})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	ctx := context.Background()
	b.SetParallelism(4) // 4 × GOMAXPROCS committer goroutines
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		recs := []redo.Record{
			{Type: redo.TypeHeapInsert, Key: []byte("bench-key"), Value: []byte("bench-value")},
			{Type: redo.TypeCommit, TS: 1},
		}
		for pb.Next() {
			lsn, err := w.AppendAssign(recs)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.WaitDurable(ctx, lsn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := w.GroupStats()
	if n := st.Appended / 2; n > 0 {
		b.ReportMetric(float64(st.Fsyncs)/float64(n), "fsyncs/commit")
	}
}

func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncNever, SegmentBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Append(redo.Marshal(genRecords(100000, 2))); err != nil {
		b.Fatal(err)
	}
	w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := Recover(dir)
		if err != nil || len(recs) != 100000 {
			b.Fatalf("%d %v", len(recs), err)
		}
	}
}
