// Package experiments defines one reproducible experiment per table and
// figure of the paper's evaluation (§7), plus the ablations listed in
// DESIGN.md. Each experiment returns both structured data and a
// rendered table/series so the command-line harness and the benchmark
// suite print exactly the rows the paper reports.
//
// All experiments are deterministic under a fixed seed.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/prefetch"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/schedule"
	"drhwsched/internal/sim"
	"drhwsched/internal/stats"
	"drhwsched/internal/workload"

	"math/rand"
)

// Table1Row is one application of the paper's Table 1, paper versus
// measured.
type Table1Row struct {
	App              string
	Subtasks         int
	PaperIdealMS     float64
	MeasuredIdealMS  float64
	PaperOverheadPct float64
	MeasuredOverhead float64
	PaperPrefetchPct float64
	MeasuredPrefetch float64
}

// Table1 reproduces Table 1: for each multimedia application, the ideal
// execution time, the overhead when every subtask is loaded on demand,
// and the overhead under an optimal prefetch, with nothing reusable.
func Table1() ([]Table1Row, *stats.Table, error) {
	p := platform.Default(4)
	var rows []Table1Row
	tab := stats.NewTable("Set of Task", "Sub-tasks", "Ideal ex time",
		"Overhead (paper)", "Overhead (measured)", "Prefetch (paper)", "Prefetch (measured)")
	for _, app := range workload.Multimedia() {
		m, err := workload.MeasureApp(app, p)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Table1Row{
			App:              app.Paper.Name,
			Subtasks:         app.Paper.Subtasks,
			PaperIdealMS:     app.Paper.IdealMS,
			MeasuredIdealMS:  m.IdealMS,
			PaperOverheadPct: app.Paper.OverheadPct,
			MeasuredOverhead: m.OnDemandPct,
			PaperPrefetchPct: app.Paper.PrefetchPct,
			MeasuredPrefetch: m.PrefetchPct,
		})
		tab.AddRow(app.Paper.Name,
			fmt.Sprintf("%d", app.Paper.Subtasks),
			fmt.Sprintf("%.0f ms", m.IdealMS),
			fmt.Sprintf("+%.0f%%", app.Paper.OverheadPct),
			fmt.Sprintf("+%.1f%%", m.OnDemandPct),
			fmt.Sprintf("+%.0f%%", app.Paper.PrefetchPct),
			fmt.Sprintf("+%.1f%%", m.PrefetchPct))
	}
	return rows, tab, nil
}

// FigureOptions tune the simulation-backed figures.
type FigureOptions struct {
	// Iterations per simulation; zero means the paper's 1000.
	Iterations int
	Seed       int64
	// Engine runs the simulations concurrently with memoized
	// design-time analyses. Nil means the shared package-default
	// engine, whose cache persists for the process lifetime so later
	// experiments hit the analyses earlier ones cached; pass an
	// explicit engine to isolate a campaign (e.g. to observe
	// cold-cache behaviour).
	Engine *engine.Engine
}

func (o FigureOptions) iterations() int {
	if o.Iterations <= 0 {
		return 1000
	}
	return o.Iterations
}

// defaultEngine serves every FigureOptions without an explicit Engine,
// so zero-value callers still share one analysis cache across figures
// and ablations (Figures 6 and 7 revisit the same analyses).
var defaultEngine = sync.OnceValue(func() *engine.Engine {
	return engine.New(engine.Config{})
})

func (o FigureOptions) engine() *engine.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return defaultEngine()
}

// lineRuns appends one run per line at x. Lines are
// workload.Approaches wire names; each selects its simulator approach
// through workload.ParseApproach.
func lineRuns(runs []engine.Run, x int, lines []string, mix []sim.TaskMix, p platform.Platform, opt FigureOptions) ([]engine.Run, error) {
	for _, line := range lines {
		approach, err := workload.ParseApproach(line)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		runs = append(runs, engine.Run{
			X: x, Line: line, Mix: mix, Platform: p,
			Options: sim.Options{
				Approach:   approach,
				Iterations: opt.iterations(),
				Seed:       opt.Seed,
			},
		})
	}
	return runs, nil
}

// mixOf converts workload apps to a simulator mix.
func mixOf(apps []workload.App) []sim.TaskMix {
	mix := make([]sim.TaskMix, len(apps))
	for i, a := range apps {
		mix[i] = sim.TaskMix{Task: a.Task, ScenarioWeights: a.ScenarioWeights}
	}
	return mix
}

// sweep runs every approach of the registry — the series of Figures 6
// and 7: the paper's three heuristics plus the two scalar baselines
// quoted in the text — over a tile range and fills a series with the
// reconfiguration overhead percentages. The grid cells are independent
// simulations, so they fan out over the engine's worker pool; the three
// reuse-aware lines at one tile count share a single cached design-time
// analysis per (task, scenario).
func sweep(mix []sim.TaskMix, tiles []int, opt FigureOptions) (*stats.Series, error) {
	var runs []engine.Run
	for _, n := range tiles {
		var err error
		if runs, err = lineRuns(runs, n, workload.Approaches(), mix, platform.Default(n), opt); err != nil {
			return nil, err
		}
	}
	s, _, err := opt.engine().Sweep("tiles", runs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return s, nil
}

// Figure6 reproduces Figure 6: the multimedia mix of Table 1 running
// with dynamic behaviour, overhead versus the number of DRHW tiles
// (8–16) for the run-time heuristic, run-time + inter-task, and the
// hybrid heuristic; the no-prefetch (≈23 %) and design-time-prefetch
// (≈7 %) baselines from the text are included as extra lines.
func Figure6(opt FigureOptions) (*stats.Series, error) {
	tiles := []int{8, 9, 10, 11, 12, 13, 14, 15, 16}
	return sweep(mixOf(workload.Multimedia()), tiles, opt)
}

// Figure7 reproduces Figure 7: the Pocket GL 3D renderer, overhead
// versus tiles (5–10) for the same heuristics; the text quotes 71 %
// without prefetch and 25 % with design-time prefetch.
func Figure7(opt FigureOptions) (*stats.Series, error) {
	pgl := workload.PocketGL()
	tiles := []int{5, 6, 7, 8, 9, 10}
	return sweep([]sim.TaskMix{{Task: pgl.Task}}, tiles, opt)
}

// ScalingRow is one row of the §4 scalability experiment: the measured
// CPU time of the run-time [7] heuristic versus the hybrid run-time
// phase on an N-subtask graph.
type ScalingRow struct {
	Subtasks      int
	RunTimeCost   time.Duration
	HybridCost    time.Duration
	RunTimeFactor float64 // cost relative to the smallest size
	HybridFactor  float64
}

// SchedulerScaling reproduces the paper's §4 scalability claim: the
// run-time heuristic's cost grows superlinearly with the graph size
// (the paper saw a 192× time increase for a 32× size increase), while
// the hybrid run-time phase only walks precomputed orders. Costs are
// measured on this machine with a monotonic clock.
func SchedulerScaling(sizes []int, seed int64) ([]ScalingRow, *stats.Table, error) {
	if len(sizes) == 0 {
		sizes = []int{14, 28, 56, 112, 224, 448}
	}
	rng := rand.New(rand.NewSource(seed))
	p := platform.Default(8)
	var rows []ScalingRow
	tab := stats.NewTable("Subtasks", "run-time cost", "hybrid run-time cost", "run-time ×", "hybrid ×")
	for _, n := range sizes {
		g := graph.Generate(rng, graph.GenSpec{
			Name: fmt.Sprintf("scale-%d", n), Subtasks: n, MaxWidth: 4,
			MinExec: model.MS(1), MaxExec: model.MS(12), EdgeProb: 0.1,
		})
		s, err := assign.List(g, p, assign.Options{})
		if err != nil {
			return nil, nil, err
		}
		loads := s.AllLoads()
		st, err := s.Static(p)
		if err != nil {
			return nil, nil, err
		}

		// MaxPasses: -1 measures the pure list schedule — the paper's
		// N·log(N) heuristic without this implementation's optional
		// improvement pass — one decision on the stored schedule's
		// static part and one reused scratch, as the simulator runs it
		// (the static part is built once per stored schedule; the
		// simulator's decision table is not consulted, so every call
		// is the heuristic itself). Each size gets one untimed call
		// first: it sizes the scratch and pays cold caches, a one-off
		// that would otherwise dominate the smallest sizes.
		var sc prefetch.Scratch
		rtCost, err := minCost(func() error {
			_, err := (prefetch.List{MaxPasses: -1}).ScheduleScratch(s, st, loads, schedule.Instance{}, &sc)
			return err
		})
		if err != nil {
			return nil, nil, err
		}

		a, err := core.Analyze(s, p, core.Options{Scheduler: prefetch.List{MaxPasses: 1}, AddAllDelayed: true})
		if err != nil {
			return nil, nil, err
		}
		// The run-time phase's decision work is O(N).
		hyCost, _ := minCost(func() error { a.Plan(nil); return nil })

		rows = append(rows, ScalingRow{Subtasks: n, RunTimeCost: rtCost, HybridCost: hyCost})
	}
	base := rows[0]
	for i := range rows {
		rows[i].RunTimeFactor = float64(rows[i].RunTimeCost) / float64(base.RunTimeCost)
		if base.HybridCost > 0 {
			rows[i].HybridFactor = float64(rows[i].HybridCost) / float64(base.HybridCost)
		}
		tab.AddRow(fmt.Sprintf("%d", rows[i].Subtasks),
			rows[i].RunTimeCost.String(), rows[i].HybridCost.String(),
			fmt.Sprintf("%.1fx", rows[i].RunTimeFactor),
			fmt.Sprintf("%.1fx", rows[i].HybridFactor))
	}
	return rows, tab, nil
}

// minCost takes at least scalingReps timed calls, and keeps timing
// until they span scalingSpan, so a short call is sampled hundreds of
// times: a disturbance of a few microseconds (a GC cycle, a neighbour
// on a shared host) then cannot cover every sample of a size.
const (
	scalingReps = 9
	scalingSpan = time.Millisecond
)

// minCost times fn one call at a time, after one untimed warm-up call,
// and returns the fastest call. On a shared host the minimum is the call
// least disturbed by other work; a mean lets one descheduled call move
// the whole row.
func minCost(fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	best := time.Duration(-1)
	var spent time.Duration
	for i := 0; i < scalingReps || spent < scalingSpan; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		spent += d
		if best < 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// Fixture bundles the design-time artifacts of one synthetic graph for
// the scaling benchmarks.
type Fixture struct {
	Sched    *assign.Schedule
	Analysis *core.Analysis
}

// ScalingFixture builds an N-subtask random graph, its initial schedule
// and its hybrid analysis (with the large-graph settings: list
// scheduler, batch CS selection), for benchmarking the run-time phases.
func ScalingFixture(n int, seed int64, p platform.Platform) (*Fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.Generate(rng, graph.GenSpec{
		Name: fmt.Sprintf("fixture-%d", n), Subtasks: n, MaxWidth: 4,
		MinExec: model.MS(1), MaxExec: model.MS(12), EdgeProb: 0.1,
	})
	s, err := assign.List(g, p, assign.Options{})
	if err != nil {
		return nil, err
	}
	a, err := core.Analyze(s, p, core.Options{Scheduler: prefetch.List{MaxPasses: 1}, AddAllDelayed: true})
	if err != nil {
		return nil, err
	}
	return &Fixture{Sched: s, Analysis: a}, nil
}

// AblationReplacement (A1) compares the replacement policies' effect on
// reuse and overhead for the multimedia mix.
func AblationReplacement(opt FigureOptions) (*stats.Table, error) {
	mix := mixOf(workload.Multimedia())
	p := platform.Default(8)
	tab := stats.NewTable("Policy", "Overhead %", "Reuse %")
	var runs []engine.Run
	for _, pol := range []reconfig.Policy{reconfig.LRU{}, reconfig.FIFO{}, reconfig.Belady{}, reconfig.Random{}} {
		runs = append(runs, engine.Run{
			X: p.Tiles, Line: pol.Name(), Mix: mix, Platform: p,
			Options: sim.Options{
				Approach:   sim.Hybrid,
				Iterations: opt.iterations(),
				Seed:       opt.Seed,
				Policy:     pol,
			},
		})
	}
	results, err := opt.engine().Batch(runs)
	if err != nil {
		return nil, err
	}
	for _, rr := range results {
		tab.AddRow(rr.Run.Line, fmt.Sprintf("%.2f", rr.Result.OverheadPct), fmt.Sprintf("%.1f", rr.Result.ReusePct))
	}
	return tab, nil
}

// AblationInterTask (A2) isolates the inter-task optimization: the
// hybrid heuristic with and without it, next to the two run-time
// variants, on both workloads.
func AblationInterTask(opt FigureOptions) (*stats.Table, error) {
	tab := stats.NewTable("Workload", "Approach", "Overhead %")
	cases := []struct {
		workload string
		mix      []sim.TaskMix
		tiles    int
	}{
		{"multimedia", mixOf(workload.Multimedia()), 8},
		{"pocketgl", []sim.TaskMix{{Task: workload.PocketGL().Task}}, 5},
	}
	type cell struct {
		workload string
		run      engine.Run
	}
	var cells []cell
	for _, c := range cases {
		for _, spec := range []struct {
			name string
			opt  sim.Options
		}{
			{"run-time", sim.Options{Approach: sim.RunTime}},
			{"run-time+inter-task", sim.Options{Approach: sim.RunTimeInterTask}},
			{"hybrid (no inter-task)", sim.Options{Approach: sim.Hybrid, DisableInterTask: true}},
			{"hybrid", sim.Options{Approach: sim.Hybrid}},
		} {
			o := spec.opt
			o.Iterations = opt.iterations()
			o.Seed = opt.Seed
			cells = append(cells, cell{workload: c.workload, run: engine.Run{
				X: c.tiles, Line: spec.name, Mix: c.mix, Platform: platform.Default(c.tiles), Options: o,
			}})
		}
	}
	runs := make([]engine.Run, len(cells))
	for i, c := range cells {
		runs[i] = c.run
	}
	results, err := opt.engine().Batch(runs)
	if err != nil {
		return nil, err
	}
	for i, rr := range results {
		tab.AddRow(cells[i].workload, rr.Run.Line, fmt.Sprintf("%.2f", rr.Result.OverheadPct))
	}
	return tab, nil
}

// AblationOptimality (A3) measures how close the [7] list heuristic gets
// to the branch&bound optimum on random graphs.
func AblationOptimality(samples int, seed int64) (*stats.Table, error) {
	if samples <= 0 {
		samples = 50
	}
	rng := rand.New(rand.NewSource(seed))
	p := platform.Default(4)
	var optimal int
	var gap stats.Summary
	for i := 0; i < samples; i++ {
		g := graph.Generate(rng, graph.GenSpec{
			Name: "opt", Subtasks: 4 + rng.Intn(7), MaxWidth: 3,
			MinExec: model.MS(0.5), MaxExec: model.MS(15), EdgeProb: 0.25,
		})
		s, err := assign.List(g, p, assign.Options{})
		if err != nil {
			return nil, err
		}
		loads := s.AllLoads()
		ls, err := (prefetch.List{}).Schedule(s, p, loads, schedule.Instance{})
		if err != nil {
			return nil, err
		}
		bb, err := (prefetch.BranchBound{}).Schedule(s, p, loads, schedule.Instance{})
		if err != nil {
			return nil, err
		}
		if ls.Makespan == bb.Makespan {
			optimal++
		}
		gap.Add(100 * float64(ls.Makespan-bb.Makespan) / float64(bb.Makespan))
	}
	tab := stats.NewTable("Metric", "Value")
	tab.AddRow("samples", fmt.Sprintf("%d", samples))
	tab.AddRow("list optimal", fmt.Sprintf("%d (%.0f%%)", optimal, 100*float64(optimal)/float64(samples)))
	tab.AddRow("mean gap", fmt.Sprintf("%.3f%%", gap.Mean()))
	tab.AddRow("max gap", fmt.Sprintf("%.3f%%", gap.Max()))
	return tab, nil
}

// AblationPlacement shows why the initial scheduler spreads pipelines:
// with Pack placement a chain monopolizes one tile and prefetching
// becomes impossible.
func AblationPlacement() (*stats.Table, error) {
	p := platform.Default(4)
	tab := stats.NewTable("App", "Prefetch overhead % (spread)", "Prefetch overhead % (pack)")
	for _, app := range workload.Multimedia() {
		var pct [2]float64
		for pi, placement := range []assign.Placement{assign.Spread, assign.Pack} {
			var sum float64
			n := len(app.Task.Scenarios)
			for _, g := range app.Task.Scenarios {
				s, err := assign.List(g, p, assign.Options{Placement: placement})
				if err != nil {
					return nil, err
				}
				r, err := (prefetch.BranchBound{}).Schedule(s, p, s.AllLoads(), schedule.Instance{})
				if err != nil {
					return nil, err
				}
				sum += model.Pct(r.Overhead, r.Ideal) / float64(n)
			}
			pct[pi] = sum
		}
		tab.AddRow(app.Paper.Name, fmt.Sprintf("+%.1f", pct[0]), fmt.Sprintf("+%.1f", pct[1]))
	}
	return tab, nil
}
