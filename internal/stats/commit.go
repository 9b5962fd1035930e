package stats

import (
	"fmt"
	"time"

	"globaldb/internal/obs"
	"globaldb/internal/repl"
	"globaldb/internal/wal"
)

// Commit-path metric names on obs.Default (the CN side; the WAL and
// replication layers define their own wal_* / repl_* names). Together they
// describe the write path this repo optimizes: group-commit fsync
// coalescing, batched redo shipping, and pipelined 2PC.
const (
	// MetricCommitLatency is end-to-end CN commit latency (seconds).
	MetricCommitLatency = "cn_commit_seconds"
	// MetricPrepareLatency is 2PC phase-one fan-out latency.
	MetricPrepareLatency = "cn_2pc_prepare_seconds"
	// MetricDecideLatency is the decision-durability step: the synchronous
	// anchor commit that gates the client ack.
	MetricDecideLatency = "cn_2pc_decide_seconds"
	// MetricOneMessageCommits counts single-shard commits finished in the
	// one message that carried their writes: the shard primary, in GClock
	// mode, issued the commit timestamp from its own clock. Single-shard
	// commits outside this count took a second message (GTM/DUAL mode).
	MetricOneMessageCommits = "cn_commit_one_message_total"
	// MetricOneWriteStatements counts commits on the one-write path: an
	// autocommit point UPDATE or DELETE that read in a one-read context
	// (CN.ReadOnce) under GClock, and wrote, its commit checked against the
	// version it read. A point
	// SELECT, or an UPDATE that matched no row, commits nothing and is not
	// counted. Every one is in the one-message count too.
	MetricOneWriteStatements = "cn_one_write_statements_total"
	// MetricAsyncResolves counts commits whose phase two completed in the
	// background after the client was acked.
	MetricAsyncResolves = "cn_2pc_async_resolves_total"
	// MetricResolveFailures counts background resolutions that exhausted
	// retries (participants stay prepared until recovery resolves them).
	MetricResolveFailures = "cn_2pc_resolve_failures_total"
)

// CommitPathSnapshot is a point-in-time read of every write-path instrument:
// CN commit latency, 2PC phase timing, WAL group-commit effectiveness, and
// redo-shipping volume. Snapshots subtract (Sub) so callers can report the
// activity of one statement, one benchmark run, or one REPL session on the
// shared registry.
type CommitPathSnapshot struct {
	// Commits and latency quantiles from the CN commit histogram.
	Commits                          int64
	CommitP50, CommitP95, CommitMean time.Duration

	// OneMessageCommits is how many of Commits were single-shard commits
	// the primary finished in one message (GClock mode).
	OneMessageCommits int64

	// 2PC phase counters.
	AsyncResolves   int64
	ResolveFailures int64

	// WAL group commit.
	Fsyncs         int64
	GroupCommits   int64
	GroupedCommits int64
	FsyncsSaved    int64

	// Redo shipping.
	ReplBatches      int64
	ReplRecords      int64
	ReplSendFailures int64
}

// ReadCommitPath snapshots the commit-path instruments from a registry
// (normally obs.Default).
func ReadCommitPath(reg *obs.Registry) CommitPathSnapshot {
	h := reg.Histogram(MetricCommitLatency).Snapshot()
	return CommitPathSnapshot{
		Commits:           h.Count,
		CommitP50:         h.P50(),
		CommitP95:         h.P95(),
		CommitMean:        h.Mean(),
		OneMessageCommits: reg.Counter(MetricOneMessageCommits).Value(),
		AsyncResolves:     reg.Counter(MetricAsyncResolves).Value(),
		ResolveFailures:   reg.Counter(MetricResolveFailures).Value(),
		Fsyncs:            reg.Counter(wal.MetricFsyncs).Value(),
		GroupCommits:      reg.Counter(wal.MetricGroupCommits).Value(),
		GroupedCommits:    reg.Counter(wal.MetricGroupedCommits).Value(),
		FsyncsSaved:       reg.Counter(wal.MetricFsyncsSaved).Value(),
		ReplBatches:       reg.Counter(repl.MetricBatches).Value(),
		ReplRecords:       reg.Counter(repl.MetricRecords).Value(),
		ReplSendFailures:  reg.Counter(repl.MetricSendFailures).Value(),
	}
}

// Sub returns the counter-wise difference s - o. The latency quantiles are
// carried over from s (quantiles do not subtract; for interval quantiles use
// obs.HistSnapshot.Sub on the raw histogram).
func (s CommitPathSnapshot) Sub(o CommitPathSnapshot) CommitPathSnapshot {
	out := s
	out.Commits -= o.Commits
	out.OneMessageCommits -= o.OneMessageCommits
	out.AsyncResolves -= o.AsyncResolves
	out.ResolveFailures -= o.ResolveFailures
	out.Fsyncs -= o.Fsyncs
	out.GroupCommits -= o.GroupCommits
	out.GroupedCommits -= o.GroupedCommits
	out.FsyncsSaved -= o.FsyncsSaved
	out.ReplBatches -= o.ReplBatches
	out.ReplRecords -= o.ReplRecords
	out.ReplSendFailures -= o.ReplSendFailures
	return out
}

// FsyncsPerCommit is the headline group-commit ratio (<1 means coalescing
// is winning); zero commits reports zero.
func (s CommitPathSnapshot) FsyncsPerCommit() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Fsyncs) / float64(s.Commits)
}

// Format renders the snapshot as indented human-readable lines, one block
// per write-path layer, for the CLI stats surfaces.
func (s CommitPathSnapshot) Format() []string {
	lines := []string{
		fmt.Sprintf("commits: n=%d one-message=%d p50=%v p95=%v mean=%v",
			s.Commits, s.OneMessageCommits, s.CommitP50.Round(time.Microsecond),
			s.CommitP95.Round(time.Microsecond), s.CommitMean.Round(time.Microsecond)),
		fmt.Sprintf("2pc:     async-resolved=%d resolve-failures=%d",
			s.AsyncResolves, s.ResolveFailures),
		fmt.Sprintf("wal:     fsyncs=%d (%.2f/commit) groups=%d grouped-commits=%d fsyncs-saved=%d",
			s.Fsyncs, s.FsyncsPerCommit(), s.GroupCommits, s.GroupedCommits, s.FsyncsSaved),
		fmt.Sprintf("repl:    batches=%d records=%d send-failures=%d",
			s.ReplBatches, s.ReplRecords, s.ReplSendFailures),
	}
	return lines
}
