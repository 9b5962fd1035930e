package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"globaldb/internal/obs"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is set by a handful of outliers.
const minBeyond = 10

// tailPercentiles are tried from the top; the first one the sample supports
// is reported as the tail.
var tailPercentiles = []float64{95, 90, 75, 50}

// pickTail returns the highest of tailPercentiles that has at least
// minBeyond samples beyond it in a sample of n, or 50 when none has.
func pickTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile is the exact nearest-rank percentile of a sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median of an unsorted sample (the mean of the middle pair when even).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the spread
// this tool prints is the one the acceptance rule uses.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		frac := pos - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}

// latencySummary is the per-class latency report of one run.
type latencySummary struct {
	n      int
	p50    float64 // ms
	tail   float64 // ms, at tailPct
	tailPc float64
}

func (l latencySummary) String() string {
	return fmt.Sprintf("n=%d p50=%.3fms p%.0f=%.3fms", l.n, l.p50, l.tailPc, l.tail)
}

// summarize reports a latency class over the whole run: the exact median
// and the highest tail percentile the sample supports, over every
// successful operation. Periodic stalls, collections and reroutes are the
// tail a p95 exists to catch, so nothing is smoothed away.
func summarize(samples []sample, c class) latencySummary {
	var ms []float64
	for _, s := range samples {
		if s.class == c && s.ok {
			ms = append(ms, float64(s.dur)/float64(time.Millisecond))
		}
	}
	sort.Float64s(ms)
	pc := pickTail(len(ms))
	return latencySummary{n: len(ms), p50: percentile(ms, 50), tail: percentile(ms, pc), tailPc: pc}
}

// histMeanMs is the exact mean of a histogram interval in milliseconds (the
// buckets are octaves, so a quantile read from them would take the same few
// values on every run).
func histMeanMs(h obs.HistSnapshot) float64 {
	if h.Count <= 0 {
		return 0
	}
	return float64(h.SumNanos) / float64(h.Count) / 1e6
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
