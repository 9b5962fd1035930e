package main

import (
	"math"
	"testing"
	"time"

	"globaldb/internal/obs"
)

func TestPickTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {3, 50}, {0, 50},
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
}

func TestPercentileIsExactNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 100: 100, 1: 1, 0.5: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 10, 4, 3, 9, 2, 8, 6, 5}
	q1, q3 := quartiles(vals)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := median(vals); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got, want := spreadShare(vals), 5.5/5.5; got != want {
		t.Errorf("spreadShare = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
	if q1, q3 := quartiles([]float64{10, 12, 11}); q1 != 10 || q3 != 12 {
		t.Errorf("quartiles of three = %v, %v, want 10, 12", q1, q3)
	}
}

func TestSummarizeIsExactOverTheWholeRun(t *testing.T) {
	// 2000 writes at 1 ms, then a stall: 200 writes at 50 ms. A tenth of the
	// run stalled must show in the p95 and not in the median.
	var samples []sample
	for i := 0; i < 2200; i++ {
		d := time.Millisecond
		if i >= 2000 {
			d = 50 * time.Millisecond
		}
		samples = append(samples, sample{at: time.Duration(i) * time.Millisecond, dur: d, class: classWrite, ok: true})
	}
	samples = append(samples, sample{at: time.Second, dur: time.Hour, class: classWrite, ok: false}) // failed: no latency
	got := summarize(samples, classWrite)
	if got.n != 2200 || got.p50 != 1 || got.tail != 50 || got.tailPc != 95 {
		t.Errorf("summary = %+v, want n=2200 p50=1 p95=50", got)
	}
	if got := perSecond(samples, classWrite); len(got) != 3 || got[0] != 1000 || got[2] != 200 {
		t.Errorf("perSecond = %v, want [1000 1000 200]", got)
	}
	// A class with few samples reports a lower percentile and says which.
	if got := summarize(samples[:60], classWrite); got.tailPc != 75 || got.n != 60 {
		t.Errorf("60 samples reported p%v over n=%d, want p75 over 60", got.tailPc, got.n)
	}
	if got := summarize(samples, classRead); got.n != 0 || got.p50 != 0 {
		t.Errorf("empty class = %+v", got)
	}
}

func TestHistogramIntervalDelta(t *testing.T) {
	var h obs.Histogram
	h.Observe(100 * time.Millisecond) // before the interval
	before := h.Snapshot()
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	d := h.Snapshot().Sub(before)
	if d.Count != 2 {
		t.Fatalf("interval count = %d, want 2", d.Count)
	}
	if got := histMeanMs(d); got != 3 {
		t.Errorf("interval mean = %v ms, want 3 (the earlier 100 ms sample must not leak in)", got)
	}
	if got := histMeanMs(obs.HistSnapshot{}); got != 0 {
		t.Errorf("empty interval mean = %v, want 0", got)
	}
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Errorf("ratio: division by zero must give 0")
	}
}

func TestSelfTimesTelescopeAndNeverGoNegative(t *testing.T) {
	rungs := map[string]float64{"server": 200, "gsql": 120, "globaldb": 100, "coordinator": 90, "datanode": 95, "mvcc": 10}
	self := selfTimes(rungs)
	want := map[string]float64{"server": 80, "gsql": 20, "globaldb": 10, "coordinator": 0, "datanode": 85, "mvcc": 10}
	sum := 0.0
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], w)
		}
		if self[layer] < 0 {
			t.Errorf("self[%s] is negative", layer)
		}
		sum += self[layer]
	}
	// Clamping the one inverted pair (coordinator below datanode by 5)
	// moves the sum off the top rung by exactly that much.
	if math.Abs(sum-rungs["server"]-5) > 1e-9 {
		t.Errorf("self times sum to %v, want top rung 200 plus the clamped 5", sum)
	}
}
