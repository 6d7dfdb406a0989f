package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// bench is one workload. A bench value is built per set-up, so a run
// that sets up several times builds several values.
type bench interface {
	// setup builds a fresh, ready-to-measure state: engines, servers
	// and every design-time analysis the timed phase needs. tr is nil
	// for an untraced run; a traced set-up installs timing wrappers on
	// the program's public seams.
	setup(tr *tracer) error
	// loop runs operations until the deadline, recording each in ops.
	// It may be called again to extend a run; state carries over.
	loop(until time.Time, ops *opLog)
	// simMetrics reports the simulated (host-independent) end-to-end
	// metrics: sim_overhead_pct.* and sim_response_p99_ms.
	simMetrics() map[string]float64
	// replay drives the workload's inputs through the entry points that
	// have no seam, recording into tr. Traced runs only.
	replay(tr *tracer) error
	// report writes the workload's breakdown for humans.
	report(w io.Writer)
	close()
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(cfg config) bench{
	"paper-grid":       newPaperGrid,
	"multitask-bursty": newMultitask,
	"serve-mixed":      newServeMixed,
}

const (
	// An untraced run sets up at least minSetups times, and more until
	// the set-ups took setupBudget in total (at most maxSetups);
	// setup_s is their median. A shared host's speed can swing by a
	// fifth from one second to the next, so the set-ups span a few
	// seconds, not one (on a shared 2-vCPU VM this cut the run-to-run
	// deviation of setup_s by a third on serve-mixed and by half on
	// multitask-bursty).
	minSetups   = 5
	maxSetups   = 1000
	setupBudget = 3 * time.Second
	// warmup runs the loop untimed first, so heap growth and cold
	// host caches do not land in the first window.
	warmup = time.Second
	// window is the span of one measurement window when the workload
	// marks no rounds of its own.
	window = time.Second
	// minSamples keeps twenty samples beyond the 90th percentile: a run
	// measures past --seconds until it has this many operations.
	minSamples = 200
	// maxExtension bounds that extension so a run ends well inside
	// three minutes even on a slow host.
	maxExtension = 100 * time.Second
)

// sample is one timed operation, or one simulation credited to an
// approach (its instances and host time).
type sample struct {
	class     string
	ms        float64
	end       time.Time
	instances int
	memMB     float64 // Go runtime memory held when the operation ended
}

// opLog collects the operations of one measured phase. It is safe for
// concurrent use by the workload's clients.
type opLog struct {
	mu       sync.Mutex
	start    time.Time
	samples  []sample
	credits  []sample    // class is the approach
	marks    []time.Time // round boundaries, when the workload has rounds
	failed   int
	failures []string
	mem      []metrics.Sample
}

func newOpLog() *opLog {
	return &opLog{start: time.Now(), mem: []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}}
}

// heldMB is the memory the Go runtime holds from the OS (mapped and not
// released): the process's resident memory as the runtime sees it.
// The caller holds l.mu.
func (l *opLog) heldMB() float64 {
	metrics.Read(l.mem)
	return float64(l.mem[0].Value.Uint64()-l.mem[1].Value.Uint64()) / (1 << 20)
}

// record logs one operation; a non-nil err counts it as failed.
func (l *opLog) record(class string, d time.Duration, err error) {
	s := sample{class, float64(d) / float64(time.Millisecond), time.Now(), 0, 0}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.memMB = l.heldMB()
	l.samples = append(l.samples, s)
	if err != nil {
		l.failed++
		if len(l.failures) < 5 {
			l.failures = append(l.failures, fmt.Sprintf("%s: %v", class, err))
		}
	}
}

// credit records a simulation of instances under approach that took
// d of host time, for instances_per_s.
func (l *opLog) credit(approach string, instances int, d time.Duration) {
	s := sample{approach, float64(d) / float64(time.Millisecond), time.Now(), instances, 0}
	l.mu.Lock()
	l.credits = append(l.credits, s)
	l.mu.Unlock()
}

// fail counts a failed check that is not tied to one timed operation
// (an ordering check over several of them).
func (l *opLog) fail(what string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// mark ends a round: with marks, the windows are the rounds.
func (l *opLog) mark() {
	l.mu.Lock()
	l.marks = append(l.marks, time.Now())
	l.mu.Unlock()
}

func (l *opLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples)
}

// latencies returns the sorted latencies of one class ("" for all).
func (l *opLog) latencies(class string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sortedMS(l.samples, class)
}

func sortedMS(samples []sample, class string) []float64 {
	var out []float64
	for _, s := range samples {
		if class == "" || s.class == class {
			out = append(out, s.ms)
		}
	}
	sort.Float64s(out)
	return out
}

func (l *opLog) classes() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for _, s := range l.samples {
		if !seen[s.class] {
			seen[s.class] = true
			out = append(out, s.class)
		}
	}
	sort.Strings(out)
	return out
}

// win is a measurement window and the operations that ended in it.
type win struct {
	dur              time.Duration
	samples, credits []sample
}

// windows splits the log into the workload's rounds, or into
// one-second windows when it marks none; a trailing partial window is
// dropped.
func (l *opLog) windows() []win {
	l.mu.Lock()
	defer l.mu.Unlock()
	bounds := append([]time.Time{l.start}, l.marks...)
	if len(l.marks) == 0 && len(l.samples) > 0 {
		last := l.samples[len(l.samples)-1].end
		for t := l.start.Add(window); !t.After(last); t = t.Add(window) {
			bounds = append(bounds, t)
		}
	}
	var out []win
	i, j := 0, 0
	for b := 1; b < len(bounds); b++ {
		w := win{dur: bounds[b].Sub(bounds[b-1])}
		for i < len(l.samples) && !l.samples[i].end.After(bounds[b]) {
			w.samples = append(w.samples, l.samples[i])
			i++
		}
		for j < len(l.credits) && !l.credits[j].end.After(bounds[b]) {
			w.credits = append(w.credits, l.credits[j])
			j++
		}
		out = append(out, w)
	}
	return out
}

// windowMedian is the median over windows of f, skipping windows where
// f has nothing to measure (NaN).
func windowMedian(ws []win, f func(win) float64) float64 {
	var v []float64
	for _, w := range ws {
		if x := f(w); !math.IsNaN(x) {
			v = append(v, x)
		}
	}
	return median(v)
}

// instancesPerSecond is a window's simulated instances of approach per
// host second of the operations that simulated them.
func instancesPerSecond(w win, approach string) float64 {
	var n int
	var ms float64
	for _, s := range w.credits {
		if s.class == approach {
			n += s.instances
			ms += s.ms
		}
	}
	if ms == 0 {
		return math.NaN()
	}
	return float64(n) / (ms / 1000)
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond is how many samples lie strictly above the nearest-rank
// q-quantile's rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// measure warms b up, then runs its loop for the configured seconds,
// extending the run until the log holds minSamples operations. The
// warm-up's operations are checked like any other and returned.
func measure(b bench, seconds time.Duration, ops *opLog) (warm *opLog, err error) {
	warm = newOpLog()
	b.loop(time.Now().Add(warmup), warm)
	ops.start = time.Now()
	b.loop(ops.start.Add(seconds), ops)
	for ops.count() < minSamples {
		if time.Since(ops.start) > seconds+maxExtension {
			return warm, fmt.Errorf("only %d operations in %v; need %d for a 90th percentile",
				ops.count(), time.Since(ops.start).Round(time.Millisecond), minSamples)
		}
		b.loop(time.Now().Add(time.Second), ops)
	}
	return warm, nil
}

// tailGroup is how many consecutive operations one 90th-percentile
// estimate covers: ten samples lie beyond it.
const tailGroup = 100

// hostMetrics derives the host metrics. Rates, the median latency and
// the memory peak are medians over the measurement windows, so a burst
// of interference from outside the process (or one badly timed garbage
// collection) moves them only when it spans half the run. The tail is
// the median over groups of tailGroup consecutive operations of each
// group's 90th percentile, for the same reason: on a shared two-vCPU
// host a whole-run 99th percentile is set by stalls from outside the
// process and did not repeat across runs (it is printed instead).
func hostMetrics(ops *opLog, m map[string]metric) error {
	ops.mu.Lock()
	var p90s []float64
	for i := 0; i+tailGroup <= len(ops.samples); i += tailGroup {
		p90s = append(p90s, quantile(sortedMS(ops.samples[i:i+tailGroup], ""), 0.9))
	}
	ops.mu.Unlock()
	if len(p90s) == 0 {
		return fmt.Errorf("%d operations make no group of %d for a 90th percentile", ops.count(), tailGroup)
	}
	ws := ops.windows()
	m["ops_per_s"] = metric{windowMedian(ws, func(w win) float64 {
		return float64(len(w.samples)) / w.dur.Seconds()
	}), "1/s"}
	m["latency_p50_ms"] = metric{windowMedian(ws, func(w win) float64 {
		return quantile(sortedMS(w.samples, ""), 0.5)
	}), "ms"}
	m["latency_p90_ms"] = metric{median(p90s), "ms"}
	m["peak_mem_mb"] = metric{windowMedian(ws, func(w win) float64 {
		peak := math.NaN()
		for _, s := range w.samples {
			if !(s.memMB <= peak) {
				peak = s.memMB
			}
		}
		return peak
	}), "MB"}
	for _, ap := range []string{"hybrid", "run-time"} {
		m["instances_per_s."+ap] = metric{windowMedian(ws, func(w win) float64 {
			return instancesPerSecond(w, ap)
		}), "1/s"}
	}
	return nil
}

// reportLatencies prints each class's sample count and percentiles; a
// percentile is printed only with ten samples beyond it.
func reportLatencies(w io.Writer, ops *opLog) {
	fmt.Fprintf(w, "operations: %d (%d failed)\n", ops.count(), ops.failed)
	for _, c := range append([]string{""}, ops.classes()...) {
		lat := ops.latencies(c)
		name := c
		if name == "" {
			name = "all"
		}
		line := fmt.Sprintf("  %-22s n=%-6d p50=%.3fms", name, len(lat), quantile(lat, 0.5))
		for _, q := range []float64{0.9, 0.99} {
			if k := beyond(len(lat), q); k >= 10 {
				line += fmt.Sprintf(" p%g=%.3fms (%d beyond)", q*100, quantile(lat, q), k)
			}
		}
		fmt.Fprintln(w, line)
	}
	line := "  ops/s per window:"
	for _, win := range ops.windows() {
		line += fmt.Sprintf(" %.0f", float64(len(win.samples))/win.dur.Seconds())
	}
	fmt.Fprintln(w, line)
	for _, f := range ops.failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
}

// measureEndToEnd is an untraced run: several set-ups (setup_s is
// their median), then a warm-up and the timed loop on the last one.
func measureEndToEnd(cfg config, newBench func(config) bench, stderr io.Writer) (*result, error) {
	var setupS []float64
	var b bench
	var total time.Duration
	for i := 0; i < maxSetups && (i < minSetups || total < setupBudget); i++ {
		if b != nil {
			b.close()
		}
		// Every set-up starts from a collected heap, so the previous
		// one's garbage does not land in its time.
		runtime.GC()
		b = newBench(cfg)
		t0 := time.Now()
		if err := b.setup(nil); err != nil {
			b.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		total += d
		setupS = append(setupS, d.Seconds())
	}
	defer b.close()
	setupRSS := peakRSSMB()
	ops := newOpLog()
	warm, err := measure(b, time.Duration(cfg.seconds)*time.Second, ops)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "peak RSS after set-ups %.1f MB, after the loop %.1f MB\n", setupRSS, peakRSSMB())
	m := map[string]metric{"setup_s": {median(setupS), "s"}}
	if err := hostMetrics(ops, m); err != nil {
		return nil, err
	}
	sm := b.simMetrics()
	for name, v := range sm {
		unit := "%"
		if name == "sim_response_p99_ms" {
			unit = "ms"
		}
		m[name] = metric{v, unit}
	}
	fmt.Fprintf(stderr, "== %s seed=%d nproc=%d set-ups=%v\n", cfg.workload, cfg.seed, cfg.nproc, setupS)
	// Simulated metrics are exact: diff this line across runs of one seed.
	fmt.Fprintf(stderr, "simulated: overhead hybrid %v%%, run-time %v%%, response p99 %vms\n",
		sm["sim_overhead_pct.hybrid"], sm["sim_overhead_pct.run-time"], sm["sim_response_p99_ms"])
	reportLatencies(stderr, ops)
	for _, f := range warm.failures {
		fmt.Fprintf(stderr, "  warm-up failure: %s\n", f)
	}
	b.report(stderr)
	failed := ops.failed + warm.failed
	return &result{
		Correct:   failed == 0,
		Attempted: ops.count() + warm.count(),
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// measureTraced is a traced run: an untraced loop for half the time,
// then a separately set-up traced loop for the other half, then the
// replay of the workload's inputs through the entry points without
// seams. The per-layer metrics come from the traced half and the
// replay; the tracing overhead is the traced minus the untraced median
// operation latency.
func measureTraced(cfg config, newBench func(config) bench, stderr io.Writer) (*result, error) {
	half := time.Duration(cfg.seconds) * time.Second / 2
	phase := func(tr *tracer) (*opLog, bench, error) {
		b := newBench(cfg)
		if err := b.setup(tr); err != nil {
			b.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		ops := newOpLog()
		b.loop(ops.start.Add(half), ops)
		return ops, b, nil
	}
	plain, b, err := phase(nil)
	if err != nil {
		return nil, err
	}
	b.close()
	tr := newTracer()
	traced, b, err := phase(tr)
	if err != nil {
		return nil, err
	}
	defer b.close()
	tr.endLoop(traced.count())
	if err := b.replay(tr); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	p50 := func(l *opLog) float64 { return quantile(l.latencies(""), 0.5) }
	overhead := 100 * (p50(traced) - p50(plain)) / p50(plain)

	fmt.Fprintf(stderr, "== %s seed=%d nproc=%d traced run\n", cfg.workload, cfg.seed, cfg.nproc)
	fmt.Fprintln(stderr, "untraced half:")
	reportLatencies(stderr, plain)
	fmt.Fprintln(stderr, "traced half:")
	reportLatencies(stderr, traced)
	fmt.Fprintf(stderr, "tracing overhead: median operation latency %+.1f%% (traced %.3fms vs untraced %.3fms)\n",
		overhead, p50(traced), p50(plain))
	tr.writeSelfTimes(stderr)
	b.report(stderr)
	path, err := tr.writeSpans(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "spans: %s\n", path)

	m := tr.perLayer()
	m["trace.overhead_pct"] = metric{overhead, "%"}
	failed := plain.failed + traced.failed + tr.failed()
	for _, f := range tr.failures() {
		fmt.Fprintf(stderr, "  failure: %s\n", f)
	}
	return &result{
		Correct:   failed == 0,
		Attempted: plain.count() + traced.count(),
		Failed:    failed,
		Metrics:   m,
	}, nil
}
