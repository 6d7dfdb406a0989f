package core

import (
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/schedule"
)

// TestExecuteScratchMatchesExecute pins the scratch-reusing run-time
// phase to the allocating one across bounds and residency patterns,
// reusing one scratch throughout (as the simulator does).
func TestExecuteScratchMatchesExecute(t *testing.T) {
	g := graph.New("mix")
	a0 := g.AddSubtask("a0", 12*model.Millisecond)
	a1 := g.AddSubtask("a1", 8*model.Millisecond)
	b0 := g.AddSubtask("b0", 6*model.Millisecond)
	b1 := g.AddSubtask("b1", 14*model.Millisecond)
	g.AddEdge(a0, a1)
	g.AddEdge(b0, b1)
	g.AddEdge(a1, b1)
	p := platform.Default(3)
	s, err := assign.List(g, p, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(s, p, Options{})
	if err != nil {
		t.Fatal(err)
	}

	st, err := s.Static(p)
	if err != nil {
		t.Fatal(err)
	}
	sc := &ExecScratch{}
	residencies := [][]bool{
		nil,
		residentSet(s, a0, a1, b0, b1),
		residentSet(s, a0, b0),
	}
	for ri, resident := range residencies {
		for _, rb := range []schedule.Instance{
			{},
			{ExecFloor: 30 * model.Time(model.Millisecond), LoadFloor: 10 * model.Time(model.Millisecond)},
			{ExecFloor: 5 * model.Time(model.Millisecond), LoadFloor: 5 * model.Time(model.Millisecond),
				TileFree: []model.Time{3000, 0, 9000}},
		} {
			want, err := an.Execute(rb, resident)
			if err != nil {
				t.Fatal(err)
			}
			got, err := an.ExecuteScratch(st, rb, resident, sc)
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan != want.Makespan || got.Ideal != want.Ideal || got.Overhead != want.Overhead ||
				got.InitEnd != want.InitEnd || got.Timeline.Start != want.Timeline.Start {
				t.Fatalf("residency %d bounds %+v: scratch %+v != allocating %+v", ri, rb, got, want)
			}
			for i := range want.Timeline.PortFreeAfter {
				if got.Timeline.PortFreeAfter[i] != want.Timeline.PortFreeAfter[i] {
					t.Fatalf("residency %d bounds %+v: port %d free time differs", ri, rb, i)
				}
			}
			if len(got.Plan.InitLoads) != len(want.Plan.InitLoads) ||
				len(got.Plan.BodyLoads) != len(want.Plan.BodyLoads) ||
				len(got.Plan.Cancelled) != len(want.Plan.Cancelled) {
				t.Fatalf("residency %d: plans differ: %+v vs %+v", ri, got.Plan, want.Plan)
			}
			for i := range want.Timeline.ExecEnd {
				if got.Timeline.ExecEnd[i] != want.Timeline.ExecEnd[i] {
					t.Fatalf("residency %d: timelines differ at subtask %d", ri, i)
				}
			}
		}
	}
}
