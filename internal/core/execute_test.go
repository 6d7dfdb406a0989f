package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/prefetch"
	"drhwsched/internal/schedule"
	"drhwsched/internal/workload"
)

// stored is one multimedia scenario's design-time artifact and static
// constraint part, as the simulator holds them.
type stored struct {
	a  *core.Analysis
	st *schedule.Static
}

// multimedia analyzes the paper's six multimedia scenarios on 8 tiles
// with the given number of reconfiguration ports (Spread placement) and
// builds each one's static part.
func multimedia(tb testing.TB, ports int) []stored {
	tb.Helper()
	p := platform.Default(8)
	p.Ports = ports
	var out []stored
	for _, task := range workload.MultimediaTasks() {
		for _, g := range task.Scenarios {
			s, err := assign.List(g, p, assign.Options{Placement: assign.Spread})
			if err != nil {
				tb.Fatal(err)
			}
			a, err := core.Analyze(s, p, core.Options{})
			if err != nil {
				tb.Fatal(err)
			}
			st, err := s.Static(p)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, stored{a, st})
		}
	}
	return out
}

// arrival is one instance's boundary conditions and residency.
type arrival struct {
	inst     schedule.Instance
	resident []bool
}

// arrivals draws k instances of a: task starts, circuitry idle up to
// 8 ms earlier, tiles draining on both sides of the start (or all free)
// and random resident subsets. On more than one port, each controller
// is also busy on its own up to 20 ms past the load floor, or all are
// idle.
func arrivals(rng *rand.Rand, a *core.Analysis, k int) []arrival {
	ms := func(n int) model.Dur { return model.Dur(n) * model.Millisecond }
	rows := len(a.Sched.TileOrder)
	out := make([]arrival, k)
	for i := range out {
		start := model.Time(0).Add(ms(rng.Intn(100)))
		inst := schedule.Instance{ExecFloor: start, LoadFloor: model.MaxT(0, start.Add(-ms(rng.Intn(8))))}
		if rng.Intn(3) > 0 {
			inst.TileFree = make([]model.Time, rows)
			for r := range inst.TileFree {
				inst.TileFree[r] = model.MaxT(0, start.Add(ms(rng.Intn(12)-6)))
			}
		}
		if a.P.Ports > 1 && rng.Intn(3) > 0 {
			inst.PortFree = make([]model.Time, a.P.Ports)
			for q := range inst.PortFree {
				inst.PortFree[q] = inst.LoadFloor.Add(ms(rng.Intn(20)))
			}
		}
		if kind := rng.Intn(3); kind > 0 {
			out[i].resident = make([]bool, a.Sched.G.Len())
			for j := range out[i].resident {
				out[i].resident[j] = kind == 2 || rng.Intn(2) == 0
			}
		}
		out[i].inst = inst
	}
	return out
}

// referenceExecute is the run-time phase as it was before the static
// part, sharing no code with the plan or prefetch.Phased: the plan is
// its own pass over the stored orders, the body and the ideal
// reference are each a full schedule.Compute of a freshly built input,
// and the initialization windows are written into the body timeline on
// port 0.
func referenceExecute(a *core.Analysis, inst schedule.Instance, resident []bool) (*core.RunResult, error) {
	r := &core.RunResult{}
	for _, id := range a.CS {
		if resident == nil || !resident[id] {
			r.Plan.InitLoads = append(r.Plan.InitLoads, id)
		}
	}
	for _, id := range a.BodyOrder {
		if resident != nil && resident[id] {
			r.Plan.Cancelled = append(r.Plan.Cancelled, id)
		} else {
			r.Plan.BodyLoads = append(r.Plan.BodyLoads, id)
		}
	}
	cur := inst.LoadFloor
	if inst.PortFree != nil {
		cur = model.MaxT(cur, inst.PortFree[0])
	}
	tileFree := make([]model.Time, len(a.Sched.TileOrder))
	if inst.TileFree != nil {
		copy(tileFree, inst.TileFree)
	}
	r.InitEnd = cur
	var initStart, initEnd []model.Time
	for _, id := range r.Plan.InitLoads {
		t := a.Sched.Assignment[id]
		start := model.MaxT(cur, tileFree[t])
		end := start.Add(a.P.LoadLatency(a.Sched.G.Subtask(id).Load))
		initStart, initEnd = append(initStart, start), append(initEnd, end)
		tileFree[t] = end
		cur = end
		r.InitEnd = end
	}
	in := a.Sched.EngineInput(a.P, r.Plan.BodyLoads)
	tl, err := schedule.Compute(in, schedule.Instance{
		ExecFloor: model.MaxT(inst.ExecFloor, r.InitEnd),
		LoadFloor: model.MaxT(inst.LoadFloor, r.InitEnd),
		TileFree:  tileFree,
		PortFree:  inst.PortFree,
	})
	if err != nil {
		return nil, err
	}
	for i, id := range r.Plan.InitLoads {
		tl.LoadStart[id], tl.LoadEnd[id], tl.LoadPort[id] = initStart[i], initEnd[i], 0
	}
	r.Timeline = tl
	idealTL, err := schedule.Compute(a.Sched.EngineInput(a.P, nil), schedule.Instance{
		ExecFloor: inst.ExecFloor,
		TileFree:  inst.TileFree,
	})
	if err != nil {
		return nil, err
	}
	r.Makespan = tl.End.Sub(inst.ExecFloor)
	r.Ideal = idealTL.End.Sub(inst.ExecFloor)
	r.Overhead = r.Makespan - r.Ideal
	return r, nil
}

func sameIDs(a, b []graph.SubtaskID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameTimeline reports where two timelines first differ, or "".
func sameTimeline(g, w *schedule.Timeline) string {
	if g.Start != w.Start || g.End != w.End || len(g.PortFreeAfter) != len(w.PortFreeAfter) {
		return "summary"
	}
	for i := range w.ExecStart {
		if g.ExecStart[i] != w.ExecStart[i] || g.ExecEnd[i] != w.ExecEnd[i] || g.LoadStart[i] != w.LoadStart[i] ||
			g.LoadEnd[i] != w.LoadEnd[i] || g.LoadPort[i] != w.LoadPort[i] {
			return fmt.Sprintf("subtask %d", i)
		}
	}
	for i := range w.PortFreeAfter {
		if g.PortFreeAfter[i] != w.PortFreeAfter[i] {
			return fmt.Sprintf("port %d free time", i)
		}
	}
	return ""
}

// runScratch is the simulator's hybrid step: the plan into a reused
// InstancePlan, then prefetch.Phased on a reused Scratch.
func runScratch(s stored, in arrival, plan *core.InstancePlan, sc *prefetch.Scratch) (*prefetch.Result, error) {
	s.a.PlanInto(plan, in.resident)
	return prefetch.Phased{Init: len(plan.InitLoads)}.ScheduleScratch(s.a.Sched, s.st, plan.Loads(), in.inst, sc)
}

// TestExecuteScratchMatchesReference pins the hybrid run-time step to
// referenceExecute field by field, on the multimedia scenarios on one to
// three ports under random bounds and residencies: Execute (a fresh
// plan and prefetch.Schedule of Phased), and the simulator's step with
// one plan and one scratch reused throughout.
func TestExecuteScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var plan core.InstancePlan
	var sc prefetch.Scratch
	for ports := 1; ports <= 3; ports++ {
		for _, s := range multimedia(t, ports) {
			for k, in := range arrivals(rng, s.a, 200) {
				want, err := referenceExecute(s.a, in.inst, in.resident)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s on %d ports, arrival %d", s.a.Sched.G.Name, ports, k)
				got, err := s.a.Execute(in.inst, in.resident)
				if err != nil {
					t.Fatal(err)
				}
				if got.Makespan != want.Makespan || got.Ideal != want.Ideal || got.Overhead != want.Overhead ||
					got.InitEnd != want.InitEnd {
					t.Fatalf("%s: summary %+v, reference %+v", name, got, want)
				}
				if !sameIDs(got.Plan.InitLoads, want.Plan.InitLoads) || !sameIDs(got.Plan.BodyLoads, want.Plan.BodyLoads) ||
					!sameIDs(got.Plan.Cancelled, want.Plan.Cancelled) {
					t.Fatalf("%s: plan %+v, reference %+v", name, got.Plan, want.Plan)
				}
				if at := sameTimeline(got.Timeline, want.Timeline); at != "" {
					t.Fatalf("%s: Execute's timeline differs from the reference at %s", name, at)
				}

				r, err := runScratch(s, in, &plan, &sc)
				if err != nil {
					t.Fatal(err)
				}
				if r.Makespan != want.Makespan || r.Ideal != want.Ideal || r.Overhead != want.Overhead {
					t.Fatalf("%s: scratch summary %+v, reference %+v", name, r, want)
				}
				if !sameIDs(plan.InitLoads, want.Plan.InitLoads) || !sameIDs(plan.BodyLoads, want.Plan.BodyLoads) ||
					!sameIDs(plan.Cancelled, want.Plan.Cancelled) || !sameIDs(r.PortOrder, got.PortOrder) {
					t.Fatalf("%s: scratch plan %+v (order %v), reference %+v", name, plan, r.PortOrder, want.Plan)
				}
				if at := sameTimeline(r.Timeline, want.Timeline); at != "" {
					t.Fatalf("%s: the scratch timeline differs from the reference at %s", name, at)
				}
			}
		}
	}
}

// TestExecuteScratchAllocs pins the hybrid run-time step: once the plan
// and the prefetch Scratch are warm, replaying a stored schedule
// allocates nothing, on one port and on three.
func TestExecuteScratchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var plan core.InstancePlan
	var sc prefetch.Scratch
	for _, ports := range []int{1, 3} {
		for _, s := range multimedia(t, ports) {
			ins := arrivals(rng, s.a, 8)
			step := func() {
				for _, in := range ins {
					if _, err := runScratch(s, in, &plan, &sc); err != nil {
						t.Fatal(err)
					}
				}
			}
			step()
			if a := testing.AllocsPerRun(20, step); a != 0 {
				t.Errorf("%s on %d ports: the hybrid step allocates %v per %d instances on a warm scratch",
					s.a.Sched.G.Name, ports, a, len(ins))
			}
		}
	}
}

// BenchmarkExecuteScratch times one hybrid run-time step — plan,
// initialization phase, body bind and evaluation, closed-form ideal —
// per instance, cycling through the multimedia scenarios on one warm
// plan and scratch.
func BenchmarkExecuteScratch(b *testing.B) {
	rng := rand.New(rand.NewSource(67))
	stored := multimedia(b, 1)
	ins := make([][]arrival, len(stored))
	for i, s := range stored {
		ins[i] = arrivals(rng, s.a, 16)
	}
	var plan core.InstancePlan
	var sc prefetch.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := stored[i%len(stored)]
		in := ins[i%len(stored)][(i/len(stored))%16]
		if _, err := runScratch(s, in, &plan, &sc); err != nil {
			b.Fatal(err)
		}
	}
}
