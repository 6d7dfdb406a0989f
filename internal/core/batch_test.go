package core

import (
	"math/rand"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/prefetch"
	"drhwsched/internal/schedule"
)

// TestAddAllDelayedConverges checks the large-graph batch mode: it must
// converge in far fewer rounds, produce a superset-or-equal CS, and its
// body schedule must still hide every remaining load.
func TestAddAllDelayedConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.Generate(rng, graph.GenSpec{
		Name: "big", Subtasks: 60, MaxWidth: 4,
		MinExec: model.MS(0.5), MaxExec: model.MS(8), EdgeProb: 0.1,
	})
	p := platform.Default(6)
	s, err := assign.List(g, p, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Analyze(s, p, Options{Scheduler: prefetch.List{}})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Analyze(s, p, Options{Scheduler: prefetch.List{}, AddAllDelayed: true})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Iterations > exact.Iterations {
		t.Fatalf("batch took %d rounds, one-at-a-time %d", batch.Iterations, exact.Iterations)
	}
	if len(batch.CS) < len(exact.CS) {
		t.Fatalf("batch CS %d smaller than exact %d", len(batch.CS), len(exact.CS))
	}
	body, err := prefetch.Schedule(prefetch.FixedOrder{}, s, p, batch.BodyOrder, schedule.Instance{})
	if err != nil {
		t.Fatal(err)
	}
	if body.Overhead != 0 {
		t.Fatalf("batch body overhead = %v", body.Overhead)
	}
}

// TestExecuteWithISPRows checks the run-time phase on a platform with
// an instruction-set processor: the software subtasks never join the
// CS set, and the hybrid execution accounts them correctly.
func TestExecuteWithISPRows(t *testing.T) {
	g := graph.New("hwsw")
	sw := g.AddSubtask("producer", 6*model.Millisecond)
	g.SetOnISP(sw, true)
	hw1 := g.AddSubtask("kernel1", 10*model.Millisecond)
	hw2 := g.AddSubtask("kernel2", 10*model.Millisecond)
	g.AddEdge(sw, hw1)
	g.AddEdge(hw1, hw2)
	p := platform.Default(2)
	p.ISPs = 1
	s, err := assign.List(g, p, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(s, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range a.CS {
		if g.Subtask(id).OnISP {
			t.Fatalf("ISP subtask %d in CS set", id)
		}
	}
	r, err := a.Execute(schedule.Instance{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The producer's 6 ms of software execution hides the first kernel
	// load entirely: loads run while the ISP computes.
	if r.Overhead != 0 {
		t.Fatalf("overhead = %v, want 0 (loads hidden behind software)", r.Overhead)
	}
}

// TestAnalysisIterationsBounded guards the convergence bound: the
// selection loop ends within n+1 rounds.
func TestAnalysisIterationsBounded(t *testing.T) {
	g := graph.New("tiny")
	g.AddSubtask("a", model.MS(1))
	p := platform.Default(1)
	s, err := assign.List(g, p, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(s, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations > g.Len()+1 {
		t.Fatalf("iterations = %d, want at most %d", a.Iterations, g.Len()+1)
	}
}
