// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced numbers
// (as <value> <metric-name> columns). cmd/experiments prints the same
// results as human-readable tables.
package drhwsched_test

import (
	"strconv"
	"testing"

	drhw "drhwsched"
	"drhwsched/internal/assign"
	"drhwsched/internal/engine"
	"drhwsched/internal/experiments"
	"drhwsched/internal/platform"
	"drhwsched/internal/prefetch"
	"drhwsched/internal/schedule"
	"drhwsched/internal/sim"
	"drhwsched/internal/workload"
)

// benchIterations keeps the simulation-backed benchmarks affordable per
// b.N round while remaining statistically stable.
const benchIterations = 100

// BenchmarkTable1 regenerates Table 1: the per-application on-demand
// and optimal-prefetch overheads with nothing reusable.
func BenchmarkTable1(b *testing.B) {
	for _, app := range workload.Multimedia() {
		app := app
		b.Run(app.Task.Name, func(b *testing.B) {
			p := platform.Default(4)
			var m workload.AppMeasurement
			var err error
			for i := 0; i < b.N; i++ {
				m, err = workload.MeasureApp(app, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.OnDemandPct, "overhead-%")
			b.ReportMetric(m.PrefetchPct, "prefetch-%")
			b.ReportMetric(app.Paper.OverheadPct, "paper-overhead-%")
			b.ReportMetric(app.Paper.PrefetchPct, "paper-prefetch-%")
		})
	}
}

// benchSweepPoint runs one simulation data point of a figure.
func benchSweepPoint(b *testing.B, mix []sim.TaskMix, tiles int, ap sim.Approach) float64 {
	b.Helper()
	var overhead float64
	for i := 0; i < b.N; i++ {
		r, err := sim.Run(mix, platform.Default(tiles), sim.Options{
			Approach:   ap,
			Iterations: benchIterations,
			Seed:       2005,
		})
		if err != nil {
			b.Fatal(err)
		}
		overhead = r.OverheadPct
	}
	return overhead
}

func multimediaMix() []sim.TaskMix {
	var mix []sim.TaskMix
	for _, app := range workload.Multimedia() {
		mix = append(mix, sim.TaskMix{Task: app.Task, ScenarioWeights: app.ScenarioWeights})
	}
	return mix
}

// BenchmarkFigure6 regenerates Figure 6's data points: the multimedia
// mix, overhead versus tiles for the five flows of §7. Representative
// tile counts keep the bench time sane; cmd/experiments sweeps all.
func BenchmarkFigure6(b *testing.B) {
	mix := multimediaMix()
	for _, tiles := range []int{8, 12, 16} {
		for _, ap := range []sim.Approach{
			sim.NoPrefetch, sim.DesignTimePrefetch, sim.RunTime, sim.RunTimeInterTask, sim.Hybrid,
		} {
			tiles, ap := tiles, ap
			b.Run(ap.String()+"/tiles="+strconv.Itoa(tiles), func(b *testing.B) {
				overhead := benchSweepPoint(b, mix, tiles, ap)
				b.ReportMetric(overhead, "overhead-%")
			})
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7's data points: the Pocket GL
// renderer, overhead versus tiles.
func BenchmarkFigure7(b *testing.B) {
	mix := []sim.TaskMix{{Task: workload.PocketGL().Task}}
	for _, tiles := range []int{5, 8, 10} {
		for _, ap := range []sim.Approach{
			sim.NoPrefetch, sim.DesignTimePrefetch, sim.RunTime, sim.RunTimeInterTask, sim.Hybrid,
		} {
			tiles, ap := tiles, ap
			b.Run(ap.String()+"/tiles="+strconv.Itoa(tiles), func(b *testing.B) {
				overhead := benchSweepPoint(b, mix, tiles, ap)
				b.ReportMetric(overhead, "overhead-%")
			})
		}
	}
}

// BenchmarkSchedulerScaling reproduces the §4 scalability claim by
// measuring the real CPU cost of the run-time [7] heuristic versus the
// hybrid run-time phase as the graph grows (the paper: a 32× graph made
// the run-time schedule 192× slower, motivating the hybrid split).
func BenchmarkSchedulerScaling(b *testing.B) {
	p := platform.Default(8)
	for _, n := range []int{14, 56, 224, 448} {
		sched, analysis := scalingFixture(b, n, p)
		b.Run("run-time/N="+strconv.Itoa(n), func(b *testing.B) {
			// The pure list schedule (MaxPasses -1, the paper's
			// heuristic) as the simulator runs it: one decision on the
			// stored schedule's static part with one reused scratch.
			st, err := sched.Static(p)
			if err != nil {
				b.Fatal(err)
			}
			loads := sched.AllLoads()
			var sc prefetch.Scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (prefetch.List{MaxPasses: -1}).ScheduleScratch(sched, st, loads, schedule.Instance{}, &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("hybrid-runtime/N="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				analysis.Plan(nil)
			}
		})
	}
}

// BenchmarkAblationReplacement (A1) times the hybrid flow under each
// replacement policy and reports the resulting overhead.
func BenchmarkAblationReplacement(b *testing.B) {
	mix := multimediaMix()
	for _, pol := range []drhw.ReplacementPolicy{drhw.LRU{}, drhw.FIFO{}, drhw.Belady{}} {
		b.Run(pol.Name(), func(b *testing.B) {
			var overhead, reuse float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(mix, platform.Default(8), sim.Options{
					Approach:   sim.Hybrid,
					Iterations: benchIterations,
					Seed:       2005,
					Policy:     pol,
				})
				if err != nil {
					b.Fatal(err)
				}
				overhead, reuse = r.OverheadPct, r.ReusePct
			}
			b.ReportMetric(overhead, "overhead-%")
			b.ReportMetric(reuse, "reuse-%")
		})
	}
}

// BenchmarkAblationInterTask (A2) reports the hybrid flow with the
// inter-task optimization disabled.
func BenchmarkAblationInterTask(b *testing.B) {
	mix := []sim.TaskMix{{Task: workload.PocketGL().Task}}
	for _, disabled := range []bool{false, true} {
		disabled := disabled
		name := "inter-task-on"
		if disabled {
			name = "inter-task-off"
		}
		b.Run(name, func(b *testing.B) {
			var overhead float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(mix, platform.Default(5), sim.Options{
					Approach:         sim.Hybrid,
					Iterations:       benchIterations,
					Seed:             2005,
					DisableInterTask: disabled,
				})
				if err != nil {
					b.Fatal(err)
				}
				overhead = r.OverheadPct
			}
			b.ReportMetric(overhead, "overhead-%")
		})
	}
}

// BenchmarkAblationOptimality (A3) times the list heuristic against the
// exact branch&bound on a fixed random instance set.
func BenchmarkAblationOptimality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationOptimality(25, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// engineSweepGrid is the §7-shaped grid BenchmarkEngineSweep runs: the
// multimedia mix over three tile counts and all five scheduling flows.
func engineSweepGrid(mix []sim.TaskMix) []engine.Run {
	var runs []engine.Run
	for _, tiles := range []int{8, 12, 16} {
		for _, ap := range []sim.Approach{
			sim.NoPrefetch, sim.DesignTimePrefetch, sim.RunTime, sim.RunTimeInterTask, sim.Hybrid,
		} {
			runs = append(runs, engine.Run{
				X: tiles, Line: ap.String(), Mix: mix, Platform: platform.Default(tiles),
				Options: sim.Options{Approach: ap, Iterations: benchIterations, Seed: 2005},
			})
		}
	}
	return runs
}

// BenchmarkEngineSweep compares the serial experiment loop against the
// concurrent engine on the same §7 grid. "serial" is the pre-engine
// path (one sim.Run after another, analyses re-derived per run);
// "engine" fans the grid out over GOMAXPROCS workers with the analysis
// cache cold at the start of every iteration. The engine's aggregate
// series is byte-identical to the serial one (see
// internal/engine TestSweepMatchesSerial); only the wall-clock differs.
// The reported cache-hit-rate metric is the fraction of design-time
// analyses served from cache within one sweep.
func BenchmarkEngineSweep(b *testing.B) {
	mix := multimediaMix()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range engineSweepGrid(mix) {
				if _, err := sim.Run(r.Mix, r.Platform, r.Options); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		var st engine.CacheStats
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.Config{})
			if _, _, err := eng.Sweep("tiles", engineSweepGrid(mix)); err != nil {
				b.Fatal(err)
			}
			st = eng.CacheStats()
		}
		b.ReportMetric(100*st.HitRate(), "cache-hit-%")
	})
}

// BenchmarkEngine measures the raw timeline engine on the Pocket GL
// graph — the unit of work every scheduler iterates: binding one load
// set to the schedule's prebuilt static part and evaluating one port
// order, on one reused scratch.
func BenchmarkEngine(b *testing.B) {
	pgl := workload.PocketGL()
	p := platform.Default(8)
	s, err := assign.List(pgl.Task.Scenarios[0], p, assign.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st, err := s.Static(p)
	if err != nil {
		b.Fatal(err)
	}
	loads := s.AllLoads()
	var sc schedule.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.Bind(st, loads, schedule.Instance{}); err != nil {
			b.Fatal(err)
		}
		if _, err := sc.Reorder(loads, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func scalingFixture(b *testing.B, n int, p platform.Platform) (*assign.Schedule, *drhw.Analysis) {
	b.Helper()
	fx, err := experiments.ScalingFixture(n, 7, p)
	if err != nil {
		b.Fatal(err)
	}
	return fx.Sched, fx.Analysis
}
