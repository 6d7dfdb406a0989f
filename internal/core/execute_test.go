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

// stored is one multimedia scenario's design-time artifact and static
// constraint part, as the simulator holds them.
type stored struct {
	a  *core.Analysis
	st *schedule.Static
}

// multimedia analyzes the paper's six multimedia scenarios on 8 tiles
// (Spread placement) and builds each one's static part.
func multimedia(tb testing.TB) []stored {
	tb.Helper()
	p := platform.Default(8)
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
// and random resident subsets.
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
// part: the body and the ideal reference are each a full
// schedule.Compute of a freshly built input, and the initialization
// windows are written into the body timeline on port 0.
func referenceExecute(a *core.Analysis, inst schedule.Instance, resident []bool) (*core.RunResult, error) {
	r := &core.RunResult{Plan: a.Plan(resident)}
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

// TestExecuteScratchMatchesReference pins ExecuteScratch — one bind on
// the stored schedule's static part and the closed-form ideal — to
// referenceExecute field by field, on the multimedia scenarios under
// random bounds and residencies, with one scratch reused throughout.
func TestExecuteScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var sc core.ExecScratch
	for _, s := range multimedia(t) {
		for k, in := range arrivals(rng, s.a, 200) {
			want, err := referenceExecute(s.a, in.inst, in.resident)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.a.ExecuteScratch(s.st, in.inst, in.resident, &sc)
			if err != nil {
				t.Fatal(err)
			}
			name := s.a.Sched.G.Name
			if got.Makespan != want.Makespan || got.Ideal != want.Ideal || got.Overhead != want.Overhead ||
				got.InitEnd != want.InitEnd {
				t.Fatalf("%s arrival %d: summary %+v, reference %+v", name, k, got, want)
			}
			if !sameIDs(got.Plan.InitLoads, want.Plan.InitLoads) || !sameIDs(got.Plan.BodyLoads, want.Plan.BodyLoads) ||
				!sameIDs(got.Plan.Cancelled, want.Plan.Cancelled) || !sameIDs(got.Plan.ReusedCritical, want.Plan.ReusedCritical) {
				t.Fatalf("%s arrival %d: plan %+v, reference %+v", name, k, got.Plan, want.Plan)
			}
			g, w := got.Timeline, want.Timeline
			if g.Start != w.Start || g.End != w.End || len(g.PortFreeAfter) != len(w.PortFreeAfter) {
				t.Fatalf("%s arrival %d: timeline summary differs", name, k)
			}
			for i := range w.ExecStart {
				if g.ExecStart[i] != w.ExecStart[i] || g.ExecEnd[i] != w.ExecEnd[i] || g.LoadStart[i] != w.LoadStart[i] ||
					g.LoadEnd[i] != w.LoadEnd[i] || g.LoadPort[i] != w.LoadPort[i] {
					t.Fatalf("%s arrival %d: timelines differ at subtask %d", name, k, i)
				}
			}
			for i := range w.PortFreeAfter {
				if g.PortFreeAfter[i] != w.PortFreeAfter[i] {
					t.Fatalf("%s arrival %d: port %d free time differs", name, k, i)
				}
			}
		}
	}
}

// TestExecuteScratchAllocs pins the hybrid run-time step: once an
// ExecScratch is warm, replaying a stored schedule allocates nothing.
func TestExecuteScratchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var sc core.ExecScratch
	for _, s := range multimedia(t) {
		ins := arrivals(rng, s.a, 8)
		step := func() {
			for _, in := range ins {
				if _, err := s.a.ExecuteScratch(s.st, in.inst, in.resident, &sc); err != nil {
					t.Fatal(err)
				}
			}
		}
		step()
		if a := testing.AllocsPerRun(20, step); a != 0 {
			t.Errorf("%s: ExecuteScratch allocates %v per %d instances on a warm scratch", s.a.Sched.G.Name, a, len(ins))
		}
	}
}

// BenchmarkExecuteScratch times one hybrid run-time step — plan, init
// phase, body bind and evaluation, closed-form ideal — per instance,
// cycling through the multimedia scenarios on one warm scratch.
func BenchmarkExecuteScratch(b *testing.B) {
	rng := rand.New(rand.NewSource(67))
	stored := multimedia(b)
	ins := make([][]arrival, len(stored))
	for i, s := range stored {
		ins[i] = arrivals(rng, s.a, 16)
	}
	var sc core.ExecScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := stored[i%len(stored)]
		in := ins[i%len(stored)][(i/len(stored))%16]
		if _, err := s.a.ExecuteScratch(s.st, in.inst, in.resident, &sc); err != nil {
			b.Fatal(err)
		}
	}
}
