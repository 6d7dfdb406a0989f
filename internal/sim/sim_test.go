package sim

import (
	"reflect"
	"testing"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/tcm"
)

// pipeline builds a simple n-stage task with 10ms stages.
func pipeline(name string, n int) *tcm.Task {
	g := graph.New(name)
	prev := graph.SubtaskID(-1)
	for i := 0; i < n; i++ {
		id := g.AddSubtask("s", 10*model.Millisecond)
		if prev >= 0 {
			g.AddEdge(prev, id)
		}
		prev = id
	}
	return tcm.NewTask(name, g)
}

func run(t *testing.T, mix []TaskMix, tiles int, opt Options) *Result {
	t.Helper()
	r, err := Run(mix, platform.Default(tiles), opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func onlyTask(n int) []TaskMix {
	return []TaskMix{{Task: pipeline("pipe", n)}}
}

func TestNoPrefetchExposesEveryLoad(t *testing.T) {
	r := run(t, onlyTask(4), 4, Options{Approach: NoPrefetch, Iterations: 20, InclusionProb: 1})
	// Chain of 4 on-demand: every 4ms load delays -> 16/40 = 40%.
	if r.OverheadPct < 39 || r.OverheadPct > 41 {
		t.Fatalf("no-prefetch overhead = %.1f%%, want ~40%%", r.OverheadPct)
	}
	if r.Reuses != 0 {
		t.Fatal("no-prefetch must not reuse")
	}
	if r.Loads != r.Subtasks {
		t.Fatalf("loads %d != subtasks %d", r.Loads, r.Subtasks)
	}
}

func TestDesignTimePrefetchHidesAllButFirst(t *testing.T) {
	r := run(t, onlyTask(4), 4, Options{Approach: DesignTimePrefetch, Iterations: 20, InclusionProb: 1})
	// Only the first load is exposed: 4/40 = 10% every iteration, since
	// design-time prefetch cannot reuse.
	if r.OverheadPct < 9 || r.OverheadPct > 11 {
		t.Fatalf("design-time overhead = %.1f%%, want ~10%%", r.OverheadPct)
	}
	if r.Reuses != 0 {
		t.Fatal("design-time prefetch must not reuse")
	}
}

func TestHybridAmortizesToNearZero(t *testing.T) {
	r := run(t, onlyTask(4), 4, Options{Approach: Hybrid, Iterations: 50, InclusionProb: 1})
	// With 4 tiles the whole pipeline stays resident after the first
	// iteration: only the cold start pays.
	if r.OverheadPct > 1.0 {
		t.Fatalf("hybrid overhead = %.2f%%, want <1%% (reuse across iterations)", r.OverheadPct)
	}
	if r.Reuses == 0 {
		t.Fatal("hybrid with reuse should find resident configurations")
	}
	if r.Loads >= r.Subtasks {
		t.Fatal("hybrid should skip most loads after warm-up")
	}
}

func TestRunTimeBeatsNoPrefetch(t *testing.T) {
	base := run(t, onlyTask(4), 4, Options{Approach: NoPrefetch, Iterations: 30, InclusionProb: 1})
	rt := run(t, onlyTask(4), 4, Options{Approach: RunTime, Iterations: 30, InclusionProb: 1})
	if rt.OverheadPct >= base.OverheadPct {
		t.Fatalf("run-time %.1f%% should beat no-prefetch %.1f%%", rt.OverheadPct, base.OverheadPct)
	}
}

func TestInterTaskImprovesRunTime(t *testing.T) {
	// Two alternating tasks: the port idles at each task's tail, which
	// only the inter-task variant exploits.
	mix := []TaskMix{{Task: pipeline("a", 4)}, {Task: pipeline("b", 4)}}
	plain := run(t, mix, 3, Options{Approach: RunTime, Iterations: 60, InclusionProb: 1})
	inter := run(t, mix, 3, Options{Approach: RunTimeInterTask, Iterations: 60, InclusionProb: 1})
	if inter.OverheadPct > plain.OverheadPct {
		t.Fatalf("inter-task %.2f%% should not exceed plain run-time %.2f%%", inter.OverheadPct, plain.OverheadPct)
	}
}

func TestMoreTilesMoreReuse(t *testing.T) {
	mix := []TaskMix{{Task: pipeline("a", 4)}, {Task: pipeline("b", 4)}, {Task: pipeline("c", 4)}}
	small := run(t, mix, 3, Options{Approach: Hybrid, Iterations: 100, Seed: 7})
	big := run(t, mix, 12, Options{Approach: Hybrid, Iterations: 100, Seed: 7})
	if big.ReusePct <= small.ReusePct {
		t.Fatalf("reuse should grow with tiles: %d tiles %.1f%%, %d tiles %.1f%%",
			small.Tiles, small.ReusePct, big.Tiles, big.ReusePct)
	}
	if big.OverheadPct > small.OverheadPct {
		t.Fatalf("overhead should shrink with tiles: %.2f%% -> %.2f%%", small.OverheadPct, big.OverheadPct)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	mix := []TaskMix{{Task: pipeline("a", 4)}, {Task: pipeline("b", 3)}}
	r1 := run(t, mix, 4, Options{Approach: Hybrid, Iterations: 40, Seed: 42})
	r2 := run(t, mix, 4, Options{Approach: Hybrid, Iterations: 40, Seed: 42})
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", r1, r2)
	}
	r3 := run(t, mix, 4, Options{Approach: Hybrid, Iterations: 40, Seed: 43})
	if r1.Instances == r3.Instances && r1.ActualTotal == r3.ActualTotal {
		t.Log("different seeds produced identical results (possible but unlikely)")
	}
}

func TestSchedulerCostModel(t *testing.T) {
	rt := run(t, onlyTask(8), 4, Options{Approach: RunTime, Iterations: 50, SchedulerCost: true, InclusionProb: 1})
	hy := run(t, onlyTask(8), 4, Options{Approach: Hybrid, Iterations: 50, SchedulerCost: true, InclusionProb: 1})
	if rt.SchedCost == 0 || hy.SchedCost == 0 {
		t.Fatal("scheduler cost not modelled")
	}
	if hy.SchedCost >= rt.SchedCost {
		t.Fatalf("hybrid run-time phase (%v) must be cheaper than the run-time heuristic (%v)",
			hy.SchedCost, rt.SchedCost)
	}
}

func TestCancelledLoadsSaveEnergy(t *testing.T) {
	r := run(t, onlyTask(4), 4, Options{Approach: Hybrid, Iterations: 30, InclusionProb: 1})
	if r.Cancelled == 0 {
		t.Fatal("expected cancelled design-time loads once configurations are resident")
	}
	if r.SavedLoads == 0 {
		t.Fatal("expected saved loads")
	}
	if r.LoadEnergy >= float64(r.Subtasks)*platform.Default(4).LoadEnergy {
		t.Fatal("energy accounting ignores cancellations")
	}
}

func TestScenarioWeightsAreUsed(t *testing.T) {
	// Two scenarios with very different lengths; weights pin scenario 0.
	g0 := graph.New("s0")
	a := g0.AddConfigured("x", 10*model.Millisecond, "cfg/x")
	_ = a
	g1 := graph.New("s1")
	g1.AddConfigured("x", 50*model.Millisecond, "cfg/x")
	task := tcm.NewTask("two", g0, g1)
	mix := []TaskMix{{Task: task, ScenarioWeights: []float64{1, 0}}}
	r := run(t, mix, 2, Options{Approach: NoPrefetch, Iterations: 10, InclusionProb: 1})
	perInstance := r.IdealTotal / model.Dur(r.Instances)
	if perInstance != 10*model.Millisecond {
		t.Fatalf("scenario weights ignored: mean ideal %v", perInstance)
	}
}

func TestBeladyWithLookaheadRuns(t *testing.T) {
	mix := []TaskMix{{Task: pipeline("a", 4)}, {Task: pipeline("b", 4)}}
	r := run(t, mix, 3, Options{
		Approach: Hybrid, Iterations: 40, Policy: reconfig.Belady{},
	})
	if r.Instances == 0 {
		t.Fatal("no instances")
	}
}

func TestEmptyMixFails(t *testing.T) {
	if _, err := Run(nil, platform.Default(2), Options{}); err == nil {
		t.Fatal("want error")
	}
}

func TestApproachStrings(t *testing.T) {
	for _, a := range []Approach{NoPrefetch, DesignTimePrefetch, RunTime, RunTimeInterTask, Hybrid} {
		if a.String() == "" {
			t.Fatal("empty approach name")
		}
	}
	if Approach(99).String() == "" {
		t.Fatal("unknown approach should still render")
	}
}

func TestHybridCriticalPctReported(t *testing.T) {
	r := run(t, onlyTask(4), 4, Options{Approach: Hybrid, Iterations: 5})
	if r.CriticalPct <= 0 || r.CriticalPct > 100 {
		t.Fatalf("critical pct = %v", r.CriticalPct)
	}
}

func TestOverheadNeverNegative(t *testing.T) {
	mix := []TaskMix{{Task: pipeline("a", 5)}, {Task: pipeline("b", 2)}}
	for _, ap := range []Approach{NoPrefetch, DesignTimePrefetch, RunTime, RunTimeInterTask, Hybrid} {
		r := run(t, mix, 4, Options{Approach: ap, Iterations: 25, Seed: 3})
		if r.OverheadPct < 0 {
			t.Fatalf("%v: negative overhead %.2f%%", ap, r.OverheadPct)
		}
		if r.ActualTotal < r.IdealTotal {
			t.Fatalf("%v: actual < ideal", ap)
		}
	}
}
