package assign

import (
	"math/rand"
	"testing"
	"testing/quick"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/schedule"
)

func chain(n int, each model.Dur) *graph.Graph {
	g := graph.New("chain")
	prev := graph.SubtaskID(-1)
	for i := 0; i < n; i++ {
		id := g.AddSubtask("s", each)
		if prev >= 0 {
			g.AddEdge(prev, id)
		}
		prev = id
	}
	return g
}

func TestSpreadRotatesAChainAcrossTiles(t *testing.T) {
	g := chain(4, 10*model.Millisecond)
	s, err := List(g, platform.Default(3), Options{Placement: Spread})
	if err != nil {
		t.Fatal(err)
	}
	if s.IdealMakespan != 40*model.Millisecond {
		t.Fatalf("ideal makespan = %v, want 40ms", s.IdealMakespan)
	}
	// Consecutive chain stages land on different tiles so their loads
	// can be prefetched.
	for i := 1; i < 4; i++ {
		if s.Assignment[i] == s.Assignment[i-1] {
			t.Fatalf("stages %d and %d share tile %d under Spread", i-1, i, s.Assignment[i])
		}
	}
}

func TestPackKeepsAChainOnOneTile(t *testing.T) {
	g := chain(4, 10*model.Millisecond)
	s, err := List(g, platform.Default(3), Options{Placement: Pack})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Assignment {
		if s.Assignment[i] != 0 {
			t.Fatalf("subtask %d on tile %d under Pack", i, s.Assignment[i])
		}
	}
	if s.IdealMakespan != 40*model.Millisecond {
		t.Fatalf("ideal makespan = %v", s.IdealMakespan)
	}
}

func TestParallelBranchesUseParallelTiles(t *testing.T) {
	g := graph.New("fork")
	src := g.AddSubtask("src", 10*model.Millisecond)
	a := g.AddSubtask("a", 20*model.Millisecond)
	b := g.AddSubtask("b", 20*model.Millisecond)
	sink := g.AddSubtask("sink", 10*model.Millisecond)
	g.AddEdge(src, a)
	g.AddEdge(src, b)
	g.AddEdge(a, sink)
	g.AddEdge(b, sink)
	s, err := List(g, platform.Default(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Assignment[a] == s.Assignment[b] {
		t.Fatal("parallel branches share a tile")
	}
	if s.IdealMakespan != 40*model.Millisecond {
		t.Fatalf("ideal makespan = %v, want 40ms", s.IdealMakespan)
	}
}

func TestTileBudgetSerializes(t *testing.T) {
	g := graph.New("wide")
	for i := 0; i < 4; i++ {
		g.AddSubtask("s", 10*model.Millisecond)
	}
	s, err := List(g, platform.Default(8), Options{MaxTiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Tiles != 2 {
		t.Fatalf("tiles = %d", s.Tiles)
	}
	if s.IdealMakespan != 20*model.Millisecond {
		t.Fatalf("ideal makespan = %v, want 20ms on 2 tiles", s.IdealMakespan)
	}
}

func TestWeightPriorityPicksCriticalBranchFirst(t *testing.T) {
	// One tile: the heavier branch must be dispatched first.
	g := graph.New("prio")
	light := g.AddSubtask("light", 1*model.Millisecond)
	heavy := g.AddSubtask("heavy", 1*model.Millisecond)
	tail := g.AddSubtask("tail", 50*model.Millisecond)
	g.AddEdge(heavy, tail)
	s, err := List(g, platform.Default(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.IdealStart[heavy] != 0 {
		t.Fatalf("heavy branch starts at %v, want 0", s.IdealStart[heavy])
	}
	if s.IdealStart[light] == 0 {
		t.Fatal("light branch dispatched before heavy")
	}
}

func TestEngineInputAgreesWithIdealTiming(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		g := graph.Generate(rng, graph.GenSpec{
			Name: "x", Subtasks: 1 + rng.Intn(20), MaxWidth: 3,
			MinExec: model.MS(1), MaxExec: model.MS(20), EdgeProb: 0.25,
		})
		p := platform.Default(1 + rng.Intn(5))
		s, err := List(g, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		in := s.EngineInput(p, nil) // no loads: the ideal schedule
		tl, err := schedule.Compute(in, schedule.Instance{})
		if err != nil {
			t.Fatal(err)
		}
		if err := schedule.Verify(in, schedule.Instance{}, tl); err != nil {
			t.Fatal(err)
		}
		if tl.Makespan() > s.IdealMakespan {
			t.Fatalf("engine makespan %v exceeds list scheduler's %v", tl.Makespan(), s.IdealMakespan)
		}
	}
}

func TestAllLoadsSortedByIdealStart(t *testing.T) {
	g := chain(4, 10*model.Millisecond)
	s, err := List(g, platform.Default(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	loads := s.AllLoads()
	for i := 1; i < len(loads); i++ {
		if s.IdealStart[loads[i-1]] > s.IdealStart[loads[i]] {
			t.Fatal("AllLoads not sorted by ideal start")
		}
	}
}

func TestListRejectsCyclicGraph(t *testing.T) {
	g := graph.New("cyc")
	a := g.AddSubtask("a", 1)
	b := g.AddSubtask("b", 1)
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, err := List(g, platform.Default(2), Options{}); err == nil {
		t.Fatal("want error")
	}
}

// Property: the ideal makespan is bracketed by the critical path (lower
// bound) and total execution time (upper bound), and every precedence
// edge is respected in the ideal timing.
func TestListScheduleBoundsProperty(t *testing.T) {
	f := func(seed int64, tiles uint8, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.Generate(rng, graph.GenSpec{
			Name: "p", Subtasks: 1 + int(n%30), MaxWidth: 4,
			MinExec: model.MS(0.5), MaxExec: model.MS(10), EdgeProb: 0.2,
		})
		p := platform.Default(1 + int(tiles%6))
		s, err := List(g, p, Options{})
		if err != nil {
			return false
		}
		cp, _ := g.CriticalPath()
		if s.IdealMakespan < cp || s.IdealMakespan > g.TotalExec() {
			return false
		}
		for _, e := range g.Edges() {
			if s.IdealStart[e.To] < s.IdealEnd[e.From] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
