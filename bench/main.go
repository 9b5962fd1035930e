// Command bench is the GlobalDB benchmark: four closed-loop workloads
// against in-process clusters, driven through public entry points only.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics, measured with span
// recording off. With --trace 1 it reports the per-layer metrics: counter
// deltas around the same workload, the layer ladder, the micro probes and
// the tracing overhead, and writes the span files under --out. The last
// line of standard output is one JSON object; a failed correctness check
// makes the exit code non-zero. See README.md for every definition.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func workloads() []workload {
	return []workload{&tpccWorkload{}, &sqlWorkload{}, &freshWorkload{}, &scanWorkload{}}
}

func workloadByName(name string) workload {
	for _, w := range workloads() {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// options are the command's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	workDir  string
	scale    scale
	report   io.Writer
	// setupRepeats is how many times the cluster is set up for setup_s.
	setupRepeats int
	// strictTail refuses a run too short for a 95th percentile instead of
	// reporting a lower one under that name; only the smoke test's
	// half-second runs leave it off.
	strictTail bool
}

func main() { os.Exit(realMain()) }

// realMain returns the exit code: 0 for a correct run, 1 for an incorrect
// one (or a regression under -compare), 2 when no result could be produced.
func realMain() int {
	var (
		o       options
		trace   int
		appendF string
		compare bool
	)
	flag.StringVar(&o.workload, "workload", "", "tpcc_geo, sql_front_local, fresh_reads_geo or scan_geo")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, ladder and span files")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "out"), "directory for span files")
	flag.StringVar(&appendF, "append", "", "also append the result, labelled with workload and seed, to this file (input of -compare)")
	flag.BoolVar(&compare, "compare", false, "compare two files written by --append: bench -compare A.json B.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			return fail("usage: bench -compare A.json B.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail("%v", err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	if workloadByName(o.workload) == nil {
		return fail("unknown --workload %q", o.workload)
	}
	o.trace = trace != 0
	o.scale = 1
	o.strictTail = true
	o.report = os.Stdout
	o.setupRepeats = setupRepeats
	o.workDir = filepath.Join(".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(o.workDir)
	res, err := run(context.Background(), o)
	if err != nil {
		return fail("%s: %v", o.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail("%v", err)
	}
	if appendF != "" {
		if err := appendResult(appendF, o, res); err != nil {
			return fail("%v", err)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	return 2
}

// run executes one benchmark run and returns its result; an error means the
// run could not be carried out at all (no result line is printed).
func run(ctx context.Context, o options) (result, error) {
	w := workloadByName(o.workload)
	w.generate(o.seed, o.scale)
	if o.trace {
		return runLayers(ctx, o, w)
	}
	return runEndToEnd(ctx, o, w)
}

// printMetrics writes the metrics by name with their units, sorted.
func printMetrics(out io.Writer, title string, m map[string]metricValue) {
	fmt.Fprintf(out, "%s\n", title)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-44s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// labelled is one line of an --append file.
type labelled struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Seconds is the one run parameter that changes what is measured;
	// -compare refuses sets in which it differs.
	Seconds float64 `json:"seconds"`
	Trace   bool    `json:"trace"`
	Result  result  `json:"result"`
}

func appendResult(path string, o options, res result) error {
	b, err := json.Marshal(labelled{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(string(b) + "\n"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readLabelled(path string) ([]labelled, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []labelled
	for n, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var l labelled
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n+1, err)
		}
		out = append(out, l)
	}
	return out, nil
}
