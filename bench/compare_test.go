package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdictAppliesBoundAndSpread(t *testing.T) {
	lower := specMetric{Name: "write_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "write_ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady, steady, "ok"},
		{"5% slower is inside the bound", lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{"20% slower regressed", lower, steady, []float64{120, 121, 119, 120, 120}, "regressed"},
		{"20% faster is not a regression", lower, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{"throughput down 20% regressed", higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{"throughput up 20% is fine", higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"spread wider than the bound is unresolved, not unchanged", lower, steady, []float64{70, 130, 100, 85, 115}, "unresolved"},
		{"from nothing to something is a change", lower, []float64{0, 0, 0}, []float64{3, 3, 3}, "regressed"},
		{"from nothing to something, higher being better", higher, []float64{0, 0, 0}, []float64{3, 3, 3}, "ok"},
		{"nothing on both sides", lower, []float64{0, 0, 0}, []float64{0, 0, 0}, "ok"},
	} {
		if got, _, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestLadderReconciliationFlagsAGap(t *testing.T) {
	vals := map[string]map[string][]float64{"tpcc_geo": {}}
	for _, stmt := range ladderStatements {
		vals["tpcc_geo"]["ladder.top_us."+stmt] = []float64{600}
		for _, layer := range ladderLayers {
			vals["tpcc_geo"][layer+".self_us."+stmt] = []float64{100}
		}
	}
	var out bytes.Buffer
	if ladderReconciles(&out, "A", vals) {
		t.Errorf("a ladder whose self times sum to its top rung was flagged:\n%s", out.String())
	}
	// One clamped inversion pushes a statement's sum 20% over its top rung.
	vals["tpcc_geo"]["datanode.self_us.point_get"] = []float64{220}
	out.Reset()
	if !ladderReconciles(&out, "A", vals) {
		t.Error("a ladder 20% off its top rung was not flagged")
	}
	if !strings.Contains(out.String(), "point_get") || !strings.Contains(out.String(), "DOES NOT RECONCILE") {
		t.Errorf("the report does not name the statement:\n%s", out.String())
	}
}
