// Golden pins for the default execution (Parallelism 0, one whole-run
// replication) with default Bernoulli arrivals. The values were first
// captured from the monolithic pre-refactor simulator (commit c1c418a)
// and re-pinned once when every run moved onto the chunk executor's
// per-iteration random streams; any drift in stream consumption order,
// accounting, or scheduling semantics shows up as a mismatch here.
package sim_test

import (
	"testing"

	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/sim"
	"drhwsched/internal/workload"
)

func goldenMix(name string) []sim.TaskMix {
	if name == "pocketgl" {
		return []sim.TaskMix{{Task: workload.PocketGL().Task}}
	}
	var mix []sim.TaskMix
	for _, app := range workload.Multimedia() {
		mix = append(mix, sim.TaskMix{Task: app.Task, ScenarioWeights: app.ScenarioWeights})
	}
	return mix
}

func TestGoldenPreRefactorAggregates(t *testing.T) {
	type golden struct {
		wl         string
		approach   sim.Approach
		seed       int64
		iterations int
		deadline   model.Dur

		ideal, actual  model.Dur
		instances      int
		loads          int
		initLoads      int
		reuses         int
		cancelled      int
		subtasks       int
		deadlineMisses int
		loadEnergy     float64
		pointEnergy    float64
	}
	cases := []golden{
		{"multimedia", sim.NoPrefetch, 1, 200, 0, 41724000, 53024000, 628, 3636, 0, 0, 0, 3636, 0, 43632, 0},
		{"multimedia", sim.DesignTimePrefetch, 1, 200, 0, 41724000, 44540000, 628, 3636, 0, 0, 0, 3636, 0, 43632, 0},
		{"multimedia", sim.RunTime, 1, 200, 0, 41724000, 44326000, 628, 3274, 0, 362, 0, 3636, 0, 39288, 0},
		{"multimedia", sim.RunTimeInterTask, 1, 200, 0, 41724000, 41730000, 628, 3274, 0, 362, 0, 3636, 0, 39288, 0},
		{"multimedia", sim.Hybrid, 1, 200, 0, 41724000, 41732000, 628, 3274, 1025, 362, 285, 3636, 0, 39288, 0},
		{"pocketgl", sim.Hybrid, 7, 100, 0, 5844775, 5860775, 100, 604, 202, 396, 197, 1000, 0, 7248, 0},
		{"multimedia", sim.Hybrid, 3, 100, 120 * model.Millisecond, 21766000, 21778000, 326, 1875, 1551, 0, 0, 1875, 95, 22500, 2449950},
	}
	for _, c := range cases {
		c := c
		t.Run(c.wl+"/"+c.approach.String(), func(t *testing.T) {
			p := platform.Default(8)
			p.ISPs = 1
			r, err := sim.Run(goldenMix(c.wl), p, sim.Options{
				Approach:   c.approach,
				Iterations: c.iterations,
				Seed:       c.seed,
				Deadline:   c.deadline,
			})
			if err != nil {
				t.Fatal(err)
			}
			check := func(name string, got, want any) {
				if got != want {
					t.Errorf("%s = %v, pinned value %v", name, got, want)
				}
			}
			check("IdealTotal", r.IdealTotal, c.ideal)
			check("ActualTotal", r.ActualTotal, c.actual)
			check("Instances", r.Instances, c.instances)
			check("Loads", r.Loads, c.loads)
			check("InitLoads", r.InitLoads, c.initLoads)
			check("Reuses", r.Reuses, c.reuses)
			check("Cancelled", r.Cancelled, c.cancelled)
			check("Subtasks", r.Subtasks, c.subtasks)
			check("DeadlineMisses", r.DeadlineMisses, c.deadlineMisses)
			check("LoadEnergy", r.LoadEnergy, c.loadEnergy)
			check("PointEnergy", r.PointEnergy, c.pointEnergy)
		})
	}
}

// TestSimRunAllocs pins the allocation win of the scratch-reusing
// kernel: the pre-refactor simulator spent ~43k allocations on this
// exact run (hybrid, multimedia, 100 iterations); the staged kernel
// spends ~6.5k, almost all of it in the one-time design-time phase.
// The bound sits at half the old cost so a regression that loses the
// scratch reuse fails loudly while normal variation does not.
func TestSimRunAllocs(t *testing.T) {
	mix := goldenMix("multimedia")
	p := platform.Default(8)
	p.ISPs = 1
	run := func() {
		if _, err := sim.Run(mix, p, sim.Options{Approach: sim.Hybrid, Iterations: 100, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm any global state
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 21000 {
		t.Fatalf("sim.Run allocates %.0f objects/run; the scratch-reusing kernel budget is 21000 (pre-refactor: ~43000)", allocs)
	}
}
