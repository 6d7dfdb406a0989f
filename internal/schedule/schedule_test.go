package schedule

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// fig3 reproduces the paper's Figure 3 example: a four-subtask pipeline
// spread over three tiles (subtask 4 returns to tile 2). With 10 ms
// executions and 4 ms loads, on-demand loading delays every subtask
// while prefetching exposes only the first load.
func fig3() (*graph.Graph, Input) {
	g := graph.New("fig3")
	s1 := g.AddSubtask("s1", 10*model.Millisecond)
	s2 := g.AddSubtask("s2", 10*model.Millisecond)
	s3 := g.AddSubtask("s3", 10*model.Millisecond)
	s4 := g.AddSubtask("s4", 10*model.Millisecond)
	g.Chain(s1, s2, s3, s4)
	in := Input{
		G:          g,
		P:          platform.Default(3),
		Assignment: []int{0, 1, 2, 1},
		TileOrder:  [][]graph.SubtaskID{{s1}, {s2, s4}, {s3}},
		PortOrder:  []graph.SubtaskID{s1, s2, s3, s4},
	}
	return g, in
}

func mustCompute(t *testing.T, in Input, inst Instance) *Timeline {
	t.Helper()
	tl, err := Compute(in, inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(in, inst, tl); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	return tl
}

// withoutLoads returns the same input with every load removed: the
// schedule's execution under zero reconfiguration overhead, whose
// makespan is the paper's "ideal execution time".
func withoutLoads(in Input) Input {
	out := in
	out.PortOrder = nil
	return out
}

func TestFig3IdealMakespan(t *testing.T) {
	_, in := fig3()
	tl := mustCompute(t, withoutLoads(in), Instance{})
	if got := tl.Makespan(); got != 40*model.Millisecond {
		t.Fatalf("ideal makespan = %v, want 40ms", got)
	}
}

func TestFig3PrefetchExposesOnlyFirstLoad(t *testing.T) {
	_, in := fig3()
	tl := mustCompute(t, in, Instance{})
	if got := tl.Makespan(); got != 44*model.Millisecond {
		t.Fatalf("prefetch makespan = %v, want 44ms (ideal + one load)", got)
	}
	// Loads 2..4 are fully hidden behind computation.
	if tl.ExecStart[1] != tl.ExecEnd[0] {
		t.Errorf("subtask 2 delayed: starts %v, pred ends %v", tl.ExecStart[1], tl.ExecEnd[0])
	}
	if tl.ExecStart[3] != tl.ExecEnd[2] {
		t.Errorf("subtask 4 delayed: starts %v, pred ends %v", tl.ExecStart[3], tl.ExecEnd[2])
	}
}

func TestFig3OnDemandDelaysEverySubtask(t *testing.T) {
	_, in := fig3()
	tl := mustCompute(t, in, Instance{OnDemand: true})
	// Every load sits on the critical path: 40 + 4*4 = 56 ms.
	if got := tl.Makespan(); got != 56*model.Millisecond {
		t.Fatalf("on-demand makespan = %v, want 56ms", got)
	}
}

func TestFig3ReuseRemovesLoad(t *testing.T) {
	_, in := fig3()
	// Subtask 1 reused: its load disappears and nothing is exposed.
	in.PortOrder = []graph.SubtaskID{1, 2, 3}
	tl := mustCompute(t, in, Instance{})
	if got := tl.Makespan(); got != 40*model.Millisecond {
		t.Fatalf("makespan with s1 reused = %v, want 40ms", got)
	}
	if tl.LoadStart[0] != NoEvent {
		t.Fatal("reused subtask was loaded")
	}
}

func TestLoadWaitsForTileToDrain(t *testing.T) {
	// Two independent subtasks forced onto one tile: the second load
	// cannot start until the first execution has finished, so nothing
	// can be prefetched.
	g := graph.New("pack")
	a := g.AddSubtask("a", 10*model.Millisecond)
	b := g.AddSubtask("b", 10*model.Millisecond)
	in := Input{
		G:          g,
		P:          platform.Default(1),
		Assignment: []int{0, 0},
		TileOrder:  [][]graph.SubtaskID{{a, b}},
		PortOrder:  []graph.SubtaskID{a, b},
	}
	tl := mustCompute(t, in, Instance{})
	if tl.LoadStart[b] != tl.ExecEnd[a] {
		t.Fatalf("load of b starts %v, want %v (end of a)", tl.LoadStart[b], tl.ExecEnd[a])
	}
	if got := tl.Makespan(); got != 28*model.Millisecond {
		t.Fatalf("makespan = %v, want 28ms", got)
	}
}

func TestPortSerializesIndependentLoads(t *testing.T) {
	g := graph.New("par")
	a := g.AddSubtask("a", 10*model.Millisecond)
	b := g.AddSubtask("b", 10*model.Millisecond)
	in := Input{
		G:          g,
		P:          platform.Default(2),
		Assignment: []int{0, 1},
		TileOrder:  [][]graph.SubtaskID{{a}, {b}},
		PortOrder:  []graph.SubtaskID{a, b},
	}
	tl := mustCompute(t, in, Instance{})
	if tl.LoadStart[b] != tl.LoadEnd[a] {
		t.Fatalf("load b starts %v, want %v (port busy with a)", tl.LoadStart[b], tl.LoadEnd[a])
	}
	if got := tl.Makespan(); got != 18*model.Millisecond {
		t.Fatalf("makespan = %v, want 18ms (b: 8ms load queue + 10ms exec)", got)
	}
}

func TestTwoPortsLoadInParallel(t *testing.T) {
	g := graph.New("par2")
	a := g.AddSubtask("a", 10*model.Millisecond)
	b := g.AddSubtask("b", 10*model.Millisecond)
	p := platform.Default(2)
	p.Ports = 2
	in := Input{
		G:          g,
		P:          p,
		Assignment: []int{0, 1},
		TileOrder:  [][]graph.SubtaskID{{a}, {b}},
		PortOrder:  []graph.SubtaskID{a, b},
	}
	tl := mustCompute(t, in, Instance{})
	if tl.LoadStart[a] != 0 || tl.LoadStart[b] != 0 {
		t.Fatalf("loads should start together, got %v and %v", tl.LoadStart[a], tl.LoadStart[b])
	}
	if got := tl.Makespan(); got != 14*model.Millisecond {
		t.Fatalf("makespan = %v, want 14ms", got)
	}
}

func TestInconsistentOrdersAreRejected(t *testing.T) {
	// Port order loads b before a, but b executes after a on the same
	// tile: load(b) needs exec(a) done, exec(a) needs load(a), and
	// load(a) may not overtake load(b). That is a constraint cycle.
	g := graph.New("cyc")
	a := g.AddSubtask("a", model.MS(1))
	b := g.AddSubtask("b", model.MS(1))
	in := Input{
		G:          g,
		P:          platform.Default(1),
		Assignment: []int{0, 0},
		TileOrder:  [][]graph.SubtaskID{{a, b}},
		PortOrder:  []graph.SubtaskID{b, a},
	}
	if _, err := Compute(in, Instance{}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want constraint-cycle error, got %v", err)
	}
}

func TestFloorsAndCarriedState(t *testing.T) {
	g := graph.New("floors")
	a := g.AddSubtask("a", 10*model.Millisecond)
	in := Input{
		G:          g,
		P:          platform.Default(2),
		Assignment: []int{1},
		TileOrder:  [][]graph.SubtaskID{{}, {a}},
		PortOrder:  []graph.SubtaskID{a},
	}
	tl := mustCompute(t, in, Instance{
		ExecFloor: model.Time(100 * model.Millisecond),
		LoadFloor: model.Time(80 * model.Millisecond),
		TileFree:  []model.Time{0, model.Time(90 * model.Millisecond)},
		PortFree:  []model.Time{model.Time(85 * model.Millisecond)},
	})
	// Load may start before the exec floor (inter-task prefetch) but
	// not before the tile drains (90ms) nor before the port frees (85ms).
	if tl.LoadStart[a] != model.Time(90*model.Millisecond) {
		t.Fatalf("load start = %v, want 90ms", tl.LoadStart[a])
	}
	// Execution waits for the exec floor even though the load finished
	// at 94ms < 100ms... no: 94ms load end < 100ms floor, so exec at 100ms.
	if tl.ExecStart[a] != model.Time(100*model.Millisecond) {
		t.Fatalf("exec start = %v, want 100ms", tl.ExecStart[a])
	}
}

func TestOnDemandLoadWaitsForPreds(t *testing.T) {
	g := graph.New("od")
	a := g.AddSubtask("a", 10*model.Millisecond)
	b := g.AddSubtask("b", 10*model.Millisecond)
	g.AddEdge(a, b)
	in := Input{
		G:          g,
		P:          platform.Default(2),
		Assignment: []int{0, 1},
		TileOrder:  [][]graph.SubtaskID{{a}, {b}},
		PortOrder:  []graph.SubtaskID{b},
	}
	tl := mustCompute(t, in, Instance{OnDemand: true})
	if tl.LoadStart[b] != tl.ExecEnd[a] {
		t.Fatalf("on-demand load of b starts %v, want %v", tl.LoadStart[b], tl.ExecEnd[a])
	}
}

func TestInputValidation(t *testing.T) {
	g := graph.New("v")
	a := g.AddSubtask("a", 1)
	b := g.AddSubtask("b", 1)
	base := func() Input {
		return Input{
			G:          g,
			P:          platform.Default(2),
			Assignment: []int{0, 1},
			TileOrder:  [][]graph.SubtaskID{{a}, {b}},
			PortOrder:  []graph.SubtaskID{a, b},
		}
	}
	cases := map[string]func(*Input, *Instance){
		"nil graph":            func(in *Input, _ *Instance) { in.G = nil },
		"short assignment":     func(in *Input, _ *Instance) { in.Assignment = []int{0} },
		"tile out of range":    func(in *Input, _ *Instance) { in.Assignment = []int{0, 7} },
		"subtask twice":        func(in *Input, _ *Instance) { in.TileOrder = [][]graph.SubtaskID{{a, b}, {b}} },
		"subtask missing":      func(in *Input, _ *Instance) { in.TileOrder = [][]graph.SubtaskID{{a}, {}} },
		"wrong tile":           func(in *Input, _ *Instance) { in.TileOrder = [][]graph.SubtaskID{{b}, {a}} },
		"duplicate load":       func(in *Input, _ *Instance) { in.PortOrder = []graph.SubtaskID{a, a} },
		"unknown load subtask": func(in *Input, _ *Instance) { in.PortOrder = []graph.SubtaskID{a, 9} },
		"bad tileFree len":     func(_ *Input, inst *Instance) { inst.TileFree = []model.Time{0} },
		"bad portFree len":     func(_ *Input, inst *Instance) { inst.PortFree = []model.Time{0, 0} },
	}
	for name, mutate := range cases {
		in, inst := base(), Instance{}
		mutate(&in, &inst)
		if _, err := Compute(in, inst); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// randomInput builds a structurally valid random decision set for a
// random graph: round-robin assignment in topological order, loads for a
// random subset, port order = topological order of the loaded subtasks.
func randomInput(rng *rand.Rand, tiles int) Input {
	g := graph.Generate(rng, graph.GenSpec{
		Name:     "prop",
		Subtasks: 1 + rng.Intn(25),
		MaxWidth: 1 + rng.Intn(4),
		MinExec:  model.MS(0.2),
		MaxExec:  model.MS(12),
		EdgeProb: 0.2,
	})
	order, _ := g.TopoOrder()
	p := platform.Default(tiles)
	assign := make([]int, g.Len())
	tileOrder := make([][]graph.SubtaskID, tiles)
	for i, id := range order {
		tl := i % tiles
		assign[id] = tl
		tileOrder[tl] = append(tileOrder[tl], id)
	}
	var port []graph.SubtaskID
	for _, id := range order {
		if rng.Float64() < 0.8 {
			port = append(port, id)
		}
	}
	return Input{G: g, P: p, Assignment: assign, TileOrder: tileOrder, PortOrder: port}
}

// Property: every computed timeline passes independent verification, and
// removing loads never lengthens the makespan.
func TestComputeVerifiesAndLoadsOnlyHurt(t *testing.T) {
	f := func(seed int64, tiles uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng, 1+int(tiles%6))
		tl, err := Compute(in, Instance{})
		if err != nil {
			return false
		}
		if err := Verify(in, Instance{}, tl); err != nil {
			t.Logf("verify: %v", err)
			return false
		}
		ideal, err := Compute(withoutLoads(in), Instance{})
		if err != nil {
			return false
		}
		return ideal.Makespan() <= tl.Makespan()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: on-demand loading is never faster than the same decision set
// without the readiness restriction (prefetching dominates on-demand).
func TestPrefetchDominatesOnDemand(t *testing.T) {
	f := func(seed int64, tiles uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng, 1+int(tiles%6))
		pre, err := Compute(in, Instance{})
		if err != nil {
			return false
		}
		odTL, err := Compute(in, Instance{OnDemand: true})
		if err != nil {
			return false
		}
		return pre.Makespan() <= odTL.Makespan()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New("empty")
	in := Input{
		G: g, P: platform.Default(1),
		Assignment: nil, TileOrder: [][]graph.SubtaskID{{}},
	}
	tl := mustCompute(t, in, Instance{ExecFloor: 50})
	if tl.Makespan() != 0 {
		t.Fatalf("empty makespan = %v", tl.Makespan())
	}
}
