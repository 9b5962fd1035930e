package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec mirrors BENCHMARK.json, the one place the metric lists and the
// regression bounds live.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// specPath is where -compare finds the bounds: the benchmark runs from the
// root of a checkout.
const specPath = "BENCHMARK.json"

// ladderTolerance is how far a statement's self times may sum away from its
// top rung before the ladder is flagged as not reconciling.
const ladderTolerance = 0.15

// verdict applies one metric's bound to two sets of runs. worse is the
// change of the median in the metric's bad direction as a share of A's
// median; spread is the wider of the two sets' interquartile spreads.
func verdict(m specMetric, a, b []float64) (verdict string, worse, spread float64) {
	ma, mb := median(a), median(b)
	switch {
	case ma != 0:
		worse = (mb - ma) / math.Abs(ma)
	case mb != 0:
		// From nothing to something has no share of A to be measured in; it
		// is a change, never "ok" by default.
		worse = math.Inf(int(math.Copysign(1, mb)))
	}
	if m.Better == "higher" {
		worse = -worse
	}
	spread = math.Max(spreadShare(a), spreadShare(b))
	switch {
	case worse > m.Bound && worse > spread:
		return "regressed", worse, spread
	case spread > m.Bound:
		return "unresolved", worse, spread
	default:
		return "ok", worse, spread
	}
}

// valuesOf collects one metric's values per workload from the untraced (or
// traced) results of a file.
func valuesOf(runs []labelled, trace bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Trace != trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// compareFiles prints one row per end-to-end metric and workload, then the
// ladder reconciliation of every traced run set. It reports whether
// anything regressed or failed to reconcile.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readLabelled(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLabelled(pathB)
	if err != nil {
		return false, err
	}
	if len(a) == 0 || len(b) == 0 {
		return false, fmt.Errorf("%s or %s holds no runs", pathA, pathB)
	}
	bad := false
	for _, runs := range [][]labelled{a, b} {
		for _, r := range runs {
			if r.Seconds != a[0].Seconds {
				return false, fmt.Errorf("%s seed %d measured for %vs, other runs for %vs: runs of different length do not compare",
					r.Workload, r.Seed, r.Seconds, a[0].Seconds)
			}
			if !r.Result.Correct || r.Result.Failed > 0 {
				fmt.Fprintf(out, "FAILED RUN  %s seed %d: correct=%v failed=%d of %d\n",
					r.Workload, r.Seed, r.Result.Correct, r.Result.Failed, r.Result.Attempted)
				bad = true
			}
		}
	}
	va, vb := valuesOf(a, false), valuesOf(b, false)
	fmt.Fprintf(out, "%-16s %-18s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "worse", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := va[w.Name][m.Name], vb[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(out, "%-16s %-18s missing from one side\n", w.Name, m.Name)
				bad = true
				continue
			}
			v, worse, spread := verdict(m, xa, xb)
			if v == "regressed" {
				bad = true
			}
			fmt.Fprintf(out, "%-16s %-18s %12.5g %12.5g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, median(xa), median(xb), 100*worse, 100*spread, 100*m.Bound, v)
		}
	}
	for i, runs := range [][]labelled{a, b} {
		if ladderReconciles(out, "AB"[i:i+1], valuesOf(runs, true)) {
			bad = true
		}
	}
	return bad, nil
}

// ladderReconciles checks, for every statement of every traced workload,
// that the layers' self times add up to the top rung within the tolerance;
// it reports whether any did not.
func ladderReconciles(out io.Writer, side string, vals map[string]map[string][]float64) bool {
	bad := false
	workloads := make([]string, 0, len(vals))
	for w := range vals {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		for _, stmt := range ladderStatements {
			top := median(vals[w]["ladder.top_us."+stmt])
			sum := 0.0
			for _, layer := range ladderLayers {
				sum += median(vals[w][layer+".self_us."+stmt])
			}
			if top == 0 {
				continue
			}
			state := "reconciles"
			if math.Abs(sum/top-1) > ladderTolerance {
				state, bad = "DOES NOT RECONCILE", true
			}
			fmt.Fprintf(out, "ladder %s %-16s %-14s self times sum to %9.1f us, top rung %9.1f us (%.2f)  %s\n",
				side, w, stmt, sum, top, sum/top, state)
		}
	}
	return bad
}
