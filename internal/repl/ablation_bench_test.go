package repl

import (
	"fmt"
	"math/rand"
	"testing"

	"globaldb/internal/redo"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/ts"
)

// buildWorkload produces an interleaved redo stream of committed
// transactions over a keyspace, shaped like TPC-C traffic.
func buildWorkload(txns, writesPerTxn, keyspace int) []redo.Record {
	rng := rand.New(rand.NewSource(7))
	log := redo.NewLog()
	var commitTS ts.Timestamp = 1
	for txn := uint64(1); txn <= uint64(txns); txn++ {
		var recs []redo.Record
		for i := 0; i < writesPerTxn; i++ {
			k := []byte(fmt.Sprintf("key-%06d", rng.Intn(keyspace)))
			v := make([]byte, 96)
			rng.Read(v)
			recs = append(recs, redo.Record{Type: redo.TypeHeapUpdate, Txn: txn, Key: k, Value: v})
		}
		recs = append(recs, redo.Record{Type: redo.TypePendingCommit, Txn: txn})
		commitTS++
		recs = append(recs, redo.Record{Type: redo.TypeCommit, Txn: txn, TS: commitTS})
		log.AppendBatch(recs)
	}
	recs, _ := logRecords(log, 1, 0)
	return recs
}

// BenchmarkReplay times redo replay through Applier.Apply, the one path
// replicas, WAL recovery and the benchmark's repl.apply_ns_per_record probe
// share. The stream is fed in 5-record batches, about what the cluster
// ships (one to six records per batch), and in one batch.
func BenchmarkReplay(b *testing.B) {
	recs := buildWorkload(500, 12, 4096)
	for _, batch := range []int{5, len(recs)} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.SetBytes(recBytes(recs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := NewApplier(mvcc.NewStore())
				b.StartTimer()
				for j := 0; j < len(recs); j += batch {
					if _, err := a.Apply(recs[j:min(j+batch, len(recs))]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
		})
	}
}

func recBytes(recs []redo.Record) int64 {
	var n int64
	for _, r := range recs {
		n += int64(16 + len(r.Key) + len(r.Value))
	}
	return n
}

// redoBatches are the compression benchmarks' inputs: a 5-record batch,
// about what the cluster ships (one to six records per batch), and the
// redo of 64 transactions of 12 writes each in one batch.
func redoBatches() map[string][]byte {
	recs := buildWorkload(64, 12, 512)
	return map[string][]byte{
		"records=5":                          redo.Marshal(recs[:5]),
		fmt.Sprintf("records=%d", len(recs)): redo.Marshal(recs),
	}
}

// BenchmarkCompressRedoBatch measures the compression ablation: how much a
// redo batch shrinks and at what CPU cost, per shipper (each replica's
// shipper compresses its own copy).
func BenchmarkCompressRedoBatch(b *testing.B) {
	for size, raw := range redoBatches() {
		for _, comp := range []Compressor{Noop{}, LZ4{}} {
			b.Run(size+"/"+comp.Name(), func(b *testing.B) {
				b.SetBytes(int64(len(raw)))
				b.ReportAllocs()
				var wire []byte
				for i := 0; i < b.N; i++ {
					var err error
					wire, err = comp.Compress(raw)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(raw))/float64(len(wire)), "compression-ratio")
			})
		}
	}
}

// BenchmarkDecompressRedoBatch measures the replica side, which decodes
// every compressed batch once per replica.
func BenchmarkDecompressRedoBatch(b *testing.B) {
	for size, raw := range redoBatches() {
		wire, _ := LZ4{}.Compress(raw)
		b.Run(size+"/lz4", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (LZ4{}).Decompress(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
