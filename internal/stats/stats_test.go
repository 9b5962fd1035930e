package stats

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"globaldb/internal/obs"
)

// The commit-latency quantiles ReadCommitPath reports come from the obs
// histogram registered under MetricCommitLatency; these tests drive that
// histogram the way the commit path does.

func TestHistogramEmpty(t *testing.T) {
	s := ReadCommitPath(obs.NewRegistry())
	if s.Commits != 0 || s.CommitP50 != 0 || s.CommitP95 != 0 || s.CommitMean != 0 {
		t.Fatalf("empty commit histogram must report zeros: %+v", s)
	}
	if s.FsyncsPerCommit() != 0 {
		t.Fatalf("fsyncs/commit = %v with no commits", s.FsyncsPerCommit())
	}
}

func TestHistogramMerge(t *testing.T) {
	// Two coordinators, each with its own registry, fold their commit
	// histograms into one cluster-wide view.
	a, b := obs.NewRegistry(), obs.NewRegistry()
	a.Histogram(MetricCommitLatency).Observe(time.Millisecond)
	b.Histogram(MetricCommitLatency).Observe(3 * time.Millisecond)
	m := a.Histogram(MetricCommitLatency).Snapshot().Add(b.Histogram(MetricCommitLatency).Snapshot())
	if m.Count != 2 {
		t.Fatalf("count = %d", m.Count)
	}
	if m.Mean() != 2*time.Millisecond {
		t.Fatalf("mean = %v", m.Mean())
	}
	if got, one := m.P95(), b.Histogram(MetricCommitLatency).Snapshot().P95(); got != one {
		t.Fatalf("merged p95 = %v, want the 3ms sample's bucket %v", got, one)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram(MetricCommitLatency)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(rng.Intn(1000)) * time.Microsecond)
				if i%100 == 0 {
					_ = ReadCommitPath(reg).CommitP95
				}
			}
		}(w)
	}
	wg.Wait()
	if got := ReadCommitPath(reg).Commits; got != 8000 {
		t.Fatalf("commits = %d", got)
	}
}
