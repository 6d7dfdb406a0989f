package core_test

import (
	"math/rand"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/schedule"
	"drhwsched/internal/workload"
)

// TestExecuteTimelinesVerify runs the independent timeline oracle on
// whole hybrid instances: for the 26 multimedia and Pocket GL scenarios
// (Spread placement) at 2 to 8 tiles on one and on two reconfiguration
// controllers, every cold and warm Execute timeline must pass
// schedule.Verify under the very schedule.Instance the run got, with
// the port order the run issued: the initialization loads, then the
// surviving body loads. Each port's PortFree is drawn on its own, so a
// body load issued on a controller that is still busy fails the check.
func TestExecuteTimelinesVerify(t *testing.T) {
	var graphs []*graph.Graph
	for _, task := range workload.MultimediaTasks() {
		graphs = append(graphs, task.Scenarios...)
	}
	graphs = append(graphs, workload.PocketGL().Task.Scenarios...)
	if len(graphs) != 26 {
		t.Fatalf("corpus has %d scenarios, want 26", len(graphs))
	}
	ms := func(n int) model.Dur { return model.Dur(n) * model.Millisecond }
	rng := rand.New(rand.NewSource(71))
	for _, ports := range []int{1, 2} {
		for tiles := 2; tiles <= 8; tiles++ {
			p := platform.Default(tiles)
			p.Ports = ports
			for _, g := range graphs {
				s, err := assign.List(g, p, assign.Options{Placement: assign.Spread})
				if err != nil {
					t.Fatal(err)
				}
				a, err := core.Analyze(s, p, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 12; k++ {
					// The first two instances are cold: one at time zero
					// on an idle platform, one under random bounds.
					var inst schedule.Instance
					if k > 0 {
						start := model.Time(0).Add(ms(rng.Intn(100)))
						inst.ExecFloor = start
						inst.LoadFloor = model.MaxT(0, start.Add(ms(rng.Intn(12)-8)))
						if rng.Intn(3) > 0 {
							inst.TileFree = make([]model.Time, len(s.TileOrder))
							for r := range inst.TileFree {
								inst.TileFree[r] = model.MaxT(0, start.Add(ms(rng.Intn(12)-6)))
							}
						}
						if rng.Intn(2) == 0 {
							inst.PortFree = make([]model.Time, ports)
							for q := range inst.PortFree {
								inst.PortFree[q] = inst.LoadFloor.Add(ms(rng.Intn(30)))
							}
						}
					}
					var resident []bool
					if k > 1 {
						resident = make([]bool, g.Len())
						all := rng.Intn(4) == 0
						for i := range resident {
							resident[i] = all || rng.Intn(2) == 0
						}
					}
					r, err := a.Execute(inst, resident)
					if err != nil {
						t.Fatal(err)
					}
					order := append(append([]graph.SubtaskID(nil), r.Plan.InitLoads...), r.Plan.BodyLoads...)
					if err := schedule.Verify(s.EngineInput(p, order), inst, r.Timeline); err != nil {
						t.Fatalf("%s at %d tiles, %d ports, instance %d (%+v, resident %v): %v",
							g.Name, tiles, ports, k, inst, resident, err)
					}
				}
			}
		}
	}
}
