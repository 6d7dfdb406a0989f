package tcm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// forkJoin builds a graph with w parallel 10ms branches between a source
// and a sink, so tile budgets trade time for energy.
func forkJoin(name string, w int) *graph.Graph {
	g := graph.New(name)
	src := g.AddSubtask("src", model.MS(2))
	sink := g.AddSubtask("sink", model.MS(2))
	for i := 0; i < w; i++ {
		b := g.AddSubtask("branch", model.MS(10))
		g.AddEdge(src, b)
		g.AddEdge(b, sink)
	}
	return g
}

func space(t *testing.T, opt DTOptions, tasks ...*Task) *DesignSpace {
	t.Helper()
	ds, err := DesignTime(tasks, platform.Default(6), opt)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDesignTimeBuildsCurves(t *testing.T) {
	task := NewTask("fj", forkJoin("fj", 4))
	ds := space(t, DTOptions{}, task)
	c := ds.Curve(0, 0)
	if len(c.Points) < 2 {
		t.Fatalf("expected a real tradeoff, got %d points", len(c.Points))
	}
	// Sorted by time ascending, energy descending.
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i-1].Time >= c.Points[i].Time {
			t.Fatal("points not sorted by time")
		}
		if c.Points[i-1].Energy <= c.Points[i].Energy {
			t.Fatal("curve not Pareto: energy must fall as time rises")
		}
	}
	if c.Fastest().Time > c.Cheapest().Time {
		t.Fatal("fastest/cheapest mixed up")
	}
}

func TestParetoFilterDropsDominated(t *testing.T) {
	pts := []*ParetoPoint{
		{Tiles: 1, Time: 100, Energy: 50},
		{Tiles: 2, Time: 80, Energy: 60},
		{Tiles: 3, Time: 80, Energy: 70}, // dominated by tiles=2
		{Tiles: 4, Time: 70, Energy: 90},
		{Tiles: 5, Time: 65, Energy: 95},
	}
	out := paretoFilter(pts)
	for _, pt := range out {
		if pt.Tiles == 3 {
			t.Fatal("dominated point survived")
		}
	}
	if len(out) != 4 {
		t.Fatalf("got %d points", len(out))
	}
}

func TestAnalyzeAttachesArtifacts(t *testing.T) {
	task := NewTask("fj", forkJoin("fj", 3))
	ds := space(t, DTOptions{Analyze: true}, task)
	for _, pt := range ds.Curve(0, 0).Points {
		if pt.Analysis == nil {
			t.Fatal("missing analysis")
		}
		if pt.Analysis.Sched != pt.Sched {
			t.Fatal("analysis bound to wrong schedule")
		}
	}
}

func TestSelectLooseDeadlinePicksCheapest(t *testing.T) {
	tasks := []*Task{NewTask("a", forkJoin("a", 4)), NewTask("b", forkJoin("b", 3))}
	ds := space(t, DTOptions{}, tasks...)
	curves := []*Curve{ds.Curve(0, 0), ds.Curve(1, 0)}
	sel, err := Select(curves, model.Dur(1)*model.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sel {
		if s.Point != curves[i].Cheapest() {
			t.Fatalf("task %d: expected cheapest point under loose deadline", i)
		}
	}
}

func TestSelectTightDeadlinePicksFaster(t *testing.T) {
	tasks := []*Task{NewTask("a", forkJoin("a", 4)), NewTask("b", forkJoin("b", 4))}
	ds := space(t, DTOptions{}, tasks...)
	curves := []*Curve{ds.Curve(0, 0), ds.Curve(1, 0)}
	tight := curves[0].Fastest().Time + curves[1].Fastest().Time
	sel, err := Select(curves, tight)
	if err != nil {
		t.Fatal(err)
	}
	var total model.Dur
	for _, s := range sel {
		total += s.Point.Time
	}
	if total > tight {
		t.Fatalf("selection misses deadline: %v > %v", total, tight)
	}
}

func TestSelectInfeasibleDeadline(t *testing.T) {
	ds := space(t, DTOptions{}, NewTask("a", forkJoin("a", 4)))
	if _, err := Select([]*Curve{ds.Curve(0, 0)}, model.MS(1)); err == nil {
		t.Fatal("want infeasible error")
	}
}

func TestMultiScenarioTasks(t *testing.T) {
	task := NewTask("ms", forkJoin("ms0", 2), forkJoin("ms1", 5))
	ds := space(t, DTOptions{}, task)
	if ds.Curve(0, 0) == ds.Curve(0, 1) {
		t.Fatal("scenarios share a curve")
	}
	// On one tile the wider scenario must take longer: it simply has
	// more work.
	if ds.Curve(0, 1).Cheapest().Time <= ds.Curve(0, 0).Cheapest().Time {
		t.Fatal("wider scenario should take longer on one tile")
	}
}

func TestDesignTimeRejectsEmptyTask(t *testing.T) {
	if _, err := DesignTime([]*Task{{Name: "empty"}}, platform.Default(2), DTOptions{}); err == nil {
		t.Fatal("want error")
	}
}

// Property: every curve is non-empty, strictly improving in time, and
// selection under the sum-of-fastest deadline always succeeds and meets
// the deadline.
func TestSelectProperty(t *testing.T) {
	f := func(seed int64, nTasks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nTasks%4)
		var tasks []*Task
		for i := 0; i < n; i++ {
			g := graph.Generate(rng, graph.GenSpec{
				Name: "t", Subtasks: 2 + rng.Intn(8), MaxWidth: 3,
				MinExec: model.MS(1), MaxExec: model.MS(12), EdgeProb: 0.2,
			})
			tasks = append(tasks, NewTask(g.Name, g))
		}
		ds, err := DesignTime(tasks, platform.Default(1+rng.Intn(6)), DTOptions{})
		if err != nil {
			return false
		}
		var curves []*Curve
		var deadline model.Dur
		for i := range tasks {
			c := ds.Curve(i, 0)
			if len(c.Points) == 0 {
				return false
			}
			curves = append(curves, c)
			deadline += c.Fastest().Time
		}
		sel, err := Select(curves, deadline)
		if err != nil {
			return false
		}
		var total model.Dur
		for _, s := range sel {
			total += s.Point.Time
		}
		return total <= deadline
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the single-tile schedule has zero idle time, so no wider
// budget can undercut its energy — the cheap end of every curve is the
// serial schedule.
func TestSingleTileIsCheapest(t *testing.T) {
	g := forkJoin("e", 4)
	p := platform.Default(6)
	s1, err := assign.List(g, p, assign.Options{MaxTiles: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := estimateEnergy(s1, p)
	for k := 2; k <= 6; k++ {
		s, err := assign.List(g, p, assign.Options{MaxTiles: k})
		if err != nil {
			t.Fatal(err)
		}
		if e := estimateEnergy(s, p); e < base-1e-9 {
			t.Fatalf("k=%d energy %v undercuts serial %v", k, e, base)
		}
	}
}
