// Command perfbench is the repository benchmark. It runs one of three
// in-process workloads for a fixed time, checks every output the
// program produces, and prints one JSON result line on standard output.
//
//	perfbench --workload paper-grid --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics declared in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a
// separate traced run (timing wrappers on the program's public seams
// plus a replay of the workload's inputs through the entry points that
// have none). Before printing, the result is validated against the
// metric list declared in BENCHMARK.json; a mismatch exits non-zero.
// A human-readable breakdown goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for the traced run's span file
	nproc    int    // workers and clients per workload
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
		seed    = fs.Int64("seed", 1, "workload seed; every random input derives from it")
		seconds = fs.Int("seconds", 10, "measured seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
		root    = fs.String("root", ".", "repository root holding BENCHMARK.json")
		out     = fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newBench, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (%s)\n", *name, strings.Join(workloadNames(), "|"))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1\n")
		return 2
	}
	decl, err := loadDeclared(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		out: *out, nproc: runtime.GOMAXPROCS(0),
	}
	var res *result
	if cfg.trace {
		res, err = measureTraced(cfg, newBench, stderr)
	} else {
		res, err = measureEndToEnd(cfg, newBench, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := decl.check(res, cfg.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: output self-check failed: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// declared is the metric list BENCHMARK.json declares.
type declared struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclared(path string) (*declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading metric declarations: %w", err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end or per_layer metrics", path)
	}
	return &d, nil
}

// check validates a result against the declarations: every declared
// metric of the mode appears, with its declared unit and a finite
// value, and nothing undeclared appears. Metric names are map keys, so
// each appears at most once by construction; the JSON encoder keeps it
// that way on the wire.
func (d *declared) check(res *result, traced bool) error {
	want := d.EndToEnd
	if traced {
		want = d.PerLayer
	}
	var errs []error
	if res.Attempted < 1 {
		errs = append(errs, fmt.Errorf("attempted is %d, want >= 1", res.Attempted))
	}
	if res.Failed < 0 || res.Failed > res.Attempted {
		errs = append(errs, fmt.Errorf("failed is %d of %d attempted", res.Failed, res.Attempted))
	}
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("declared metric %q missing", m.Name))
		case got.Unit != m.Unit:
			errs = append(errs, fmt.Errorf("metric %q has unit %q, declared %q", m.Name, got.Unit, m.Unit))
		case !finite(got.Value):
			errs = append(errs, fmt.Errorf("metric %q is not finite: %v", m.Name, got.Value))
		}
	}
	for name := range res.Metrics {
		if !seen[name] {
			errs = append(errs, fmt.Errorf("metric %q is not declared for this mode", name))
		}
	}
	return errors.Join(errs...)
}
