package main

import (
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecIsWellFormed holds BENCHMARK.json to the limits its consumers
// enforce before a single run.
func TestSpecIsWellFormed(t *testing.T) {
	spec := loadSpec(t)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("%d workloads", len(spec.Workloads))
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is malformed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if workloadByName(w.Name) == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Errorf("%d workloads listed, %d implemented", len(spec.Workloads), len(workloads()))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}

// checkMetrics asserts a result carries exactly the listed metrics, each
// once (a JSON object cannot hold a name twice), finite and with its unit.
func checkMetrics(t *testing.T, res result, want []specMetric, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", m.Name, got.Value)
		case nonZero && got.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, got.Value)
		}
	}
	if len(res.Metrics) != len(want) {
		listed := map[string]bool{}
		for _, m := range want {
			listed[m.Name] = true
		}
		for name := range res.Metrics {
			if !listed[name] {
				t.Errorf("metric %s is emitted but not listed in %s", name, specPath)
			}
		}
	}
}

// TestSmoke runs all four workloads at a tiny scale, untraced and traced
// (the traced pass includes the ladder and the micro probes), and holds the
// output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			o := options{workload: w.Name, seed: 1, seconds: 0.5, outDir: t.TempDir(), workDir: t.TempDir(),
				scale: 0.05, report: io.Discard, setupRepeats: 2}
			res, err := run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.EndToEnd, true)

			o.trace, o.seconds = true, 1
			res, err = run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.PerLayer, false)
			for _, f := range []string{"ladder-spans.json", "trace-" + w.Name + ".json"} {
				if st, err := os.Stat(filepath.Join(o.outDir, f)); err != nil || st.Size() < 3 {
					t.Errorf("span file %s: %v", f, err)
				}
			}
		})
	}
}
