package graph

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unique"

	"drhwsched/internal/model"
)

func chain4() *Graph {
	g := New("chain")
	a := g.AddSubtask("a", 10*model.Millisecond)
	b := g.AddSubtask("b", 20*model.Millisecond)
	c := g.AddSubtask("c", 30*model.Millisecond)
	d := g.AddSubtask("d", 40*model.Millisecond)
	g.Chain(a, b, c, d)
	return g
}

func diamond() *Graph {
	g := New("diamond")
	a := g.AddSubtask("a", 5*model.Millisecond)
	b := g.AddSubtask("b", 7*model.Millisecond)
	c := g.AddSubtask("c", 3*model.Millisecond)
	d := g.AddSubtask("d", 9*model.Millisecond)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	return g
}

func TestAddSubtaskAssignsDenseIDs(t *testing.T) {
	g := chain4()
	for i, s := range g.Subtasks() {
		if int(s.ID) != i {
			t.Fatalf("subtask %d has ID %d", i, s.ID)
		}
	}
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
}

func TestConfigDefaultsAreUniquePerSubtask(t *testing.T) {
	g := chain4()
	seen := map[ConfigID]bool{}
	for _, s := range g.Subtasks() {
		if s.Config == "" {
			t.Fatalf("subtask %q has empty config", s.Name)
		}
		if seen[s.Config] {
			t.Fatalf("duplicate config %q", s.Config)
		}
		seen[s.Config] = true
	}
}

func TestAddConfiguredSharesBitstreams(t *testing.T) {
	g := New("t")
	a := g.AddConfigured("a", model.MS(1), "shared")
	b := g.AddConfigured("b", model.MS(2), "shared")
	if g.Subtask(a).Config != g.Subtask(b).Config {
		t.Fatal("configs should be shared")
	}
	if g.ConfigKey(a) != g.ConfigKey(b) {
		t.Fatal("shared configs should share a handle")
	}
	if g.ConfigKey(a) == (unique.Handle[ConfigID]{}) || g.ConfigKey(a).Value() != "shared" {
		t.Fatalf("handle of a reads %q", g.ConfigKey(a).Value())
	}
	// Handles identify the name across graphs, so scenarios that share
	// a bitstream reuse each other's tiles.
	h := New("other")
	c := h.AddConfigured("c", model.MS(3), "shared")
	d := h.AddConfigured("d", model.MS(3), "own")
	if h.ConfigKey(c) != g.ConfigKey(a) {
		t.Fatal("equal configs in two graphs should share a handle")
	}
	if h.ConfigKey(d) == g.ConfigKey(a) {
		t.Fatal("distinct configs share a handle")
	}
}

func TestTopoOrderChain(t *testing.T) {
	g := chain4()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if int(id) != i {
			t.Fatalf("order[%d] = %d", i, id)
		}
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := diamond()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[SubtaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %d->%d violated in order %v", e.From, e.To, order)
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := New("cyc")
	a := g.AddSubtask("a", 1)
	b := g.AddSubtask("b", 1)
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("want cycle error")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject cycles")
	}
}

func TestValidateRejectsDuplicateEdges(t *testing.T) {
	g := New("dup")
	a := g.AddSubtask("a", 1)
	b := g.AddSubtask("b", 1)
	g.AddEdge(a, b)
	g.AddEdge(a, b)
	if err := g.Validate(); err == nil {
		t.Fatal("want duplicate edge error")
	}
}

func TestValidateRejectsSelfLoop(t *testing.T) {
	g := New("self")
	a := g.AddSubtask("a", 1)
	g.edges = append(g.edges, Edge{From: a, To: a})
	if err := g.Validate(); err == nil {
		t.Fatal("want self-loop error")
	}
}

func TestWeightsChain(t *testing.T) {
	g := chain4()
	w, err := g.Weights()
	if err != nil {
		t.Fatal(err)
	}
	// Weight(i) = exec(i) + exec of everything after it on the chain.
	want := []model.Dur{100 * model.Millisecond, 90 * model.Millisecond, 70 * model.Millisecond, 40 * model.Millisecond}
	for i := range want {
		if w[i] != want[i] {
			t.Errorf("w[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}

func TestWeightsDiamondTakesLongestBranch(t *testing.T) {
	g := diamond()
	w, err := g.Weights()
	if err != nil {
		t.Fatal(err)
	}
	// a -> b(7) -> d(9) is the long branch: w[a] = 5+7+9.
	if want := 21 * model.Millisecond; w[0] != want {
		t.Errorf("w[a] = %v, want %v", w[0], want)
	}
	if want := 12 * model.Millisecond; w[2] != want {
		t.Errorf("w[c] = %v, want %v", w[2], want)
	}
}

func TestCriticalPath(t *testing.T) {
	g := diamond()
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if want := 21 * model.Millisecond; cp != want {
		t.Fatalf("critical path = %v, want %v", cp, want)
	}
}

func TestTotalExec(t *testing.T) {
	if got := chain4().TotalExec(); got != 100*model.Millisecond {
		t.Fatalf("TotalExec = %v", got)
	}
}

// TestConfigKeysConcurrentFirstUse: built graphs are shared between
// goroutines, and the first ConfigKeys call interns; concurrent first
// calls must agree (run with -race).
func TestConfigKeysConcurrentFirstUse(t *testing.T) {
	g := Generate(rand.New(rand.NewSource(3)), GenSpec{Name: "c", Subtasks: 20, MaxWidth: 3, MinExec: 1, MaxExec: 2, SharedCfg: 4})
	got := make([][]unique.Handle[ConfigID], 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.ConfigKeys()
		}()
	}
	wg.Wait()
	for i, keys := range got {
		for id, k := range keys {
			if k != unique.Make(g.Subtask(SubtaskID(id)).Config) {
				t.Fatalf("goroutine %d: handle of %d reads %q", i, id, k.Value())
			}
		}
	}
}

func TestGenerateProducesValidGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		g := Generate(rng, GenSpec{
			Name:     "rnd",
			Subtasks: 1 + rng.Intn(30),
			MaxWidth: 1 + rng.Intn(5),
			MinExec:  model.MS(0.2),
			MaxExec:  model.MS(30),
			EdgeProb: rng.Float64() * 0.3,
		})
		if err := g.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestGenerateSharedConfigPool(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Generate(rng, GenSpec{Name: "p", Subtasks: 40, MaxWidth: 4, MinExec: 1, MaxExec: 2, SharedCfg: 3})
	distinct := map[ConfigID]bool{}
	for _, s := range g.Subtasks() {
		distinct[s.Config] = true
	}
	if len(distinct) > 3 {
		t.Fatalf("got %d distinct configs, want ≤3", len(distinct))
	}
}

// Property: weights are monotone along edges — a predecessor's weight is
// always strictly greater than any successor's (its own exec is positive).
func TestWeightsMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8, width uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Generate(rng, GenSpec{
			Name:     "prop",
			Subtasks: 1 + int(n%40),
			MaxWidth: 1 + int(width%6),
			MinExec:  1,
			MaxExec:  model.MS(10),
			EdgeProb: 0.15,
		})
		w, err := g.Weights()
		if err != nil {
			return false
		}
		for _, e := range g.Edges() {
			if w[e.From] <= w[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the critical path never exceeds the total execution time and
// never falls below the longest single subtask.
func TestCriticalPathBoundsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Generate(rng, GenSpec{
			Name: "prop", Subtasks: 1 + int(n%30), MaxWidth: 4,
			MinExec: 1, MaxExec: model.MS(5), EdgeProb: 0.2,
		})
		cp, err := g.CriticalPath()
		if err != nil {
			return false
		}
		var longest model.Dur
		for _, s := range g.Subtasks() {
			if s.Exec > longest {
				longest = s.Exec
			}
		}
		return cp >= longest && cp <= g.TotalExec()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	g := diamond()
	a, _ := g.TopoOrder()
	b, _ := g.TopoOrder()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopoOrder is not deterministic")
		}
	}
}
