package prefetch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/schedule"
)

// fig3Sched builds the paper's Figure 3 pipeline as an initial schedule.
func fig3Sched(t *testing.T) (*assign.Schedule, platform.Platform) {
	t.Helper()
	g := graph.New("fig3")
	ids := make([]graph.SubtaskID, 4)
	for i := range ids {
		ids[i] = g.AddSubtask("s", 10*model.Millisecond)
	}
	g.Chain(ids...)
	p := platform.Default(3)
	s, err := assign.List(g, p, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

func allLoads(s *assign.Schedule) []graph.SubtaskID { return s.AllLoads() }

func TestFig3OnDemandOverhead(t *testing.T) {
	s, p := fig3Sched(t)
	r, err := OnDemand{}.Schedule(s, p, allLoads(s), schedule.Instance{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ideal != 40*model.Millisecond {
		t.Fatalf("ideal = %v", r.Ideal)
	}
	if r.Overhead != 16*model.Millisecond {
		t.Fatalf("on-demand overhead = %v, want 16ms (every load exposed)", r.Overhead)
	}
}

func TestFig3ListHidesAllButFirst(t *testing.T) {
	s, p := fig3Sched(t)
	r, err := List{}.Schedule(s, p, allLoads(s), schedule.Instance{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Overhead != 4*model.Millisecond {
		t.Fatalf("list overhead = %v, want 4ms (only the first load exposed)", r.Overhead)
	}
}

func TestFig3BranchBoundMatchesList(t *testing.T) {
	s, p := fig3Sched(t)
	r, err := BranchBound{}.Schedule(s, p, allLoads(s), schedule.Instance{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Overhead != 4*model.Millisecond {
		t.Fatalf("b&b overhead = %v, want 4ms", r.Overhead)
	}
}

func TestPartialLoadSet(t *testing.T) {
	s, p := fig3Sched(t)
	// First subtask resident: nothing is exposed any more.
	r, err := List{}.Schedule(s, p, []graph.SubtaskID{1, 2, 3}, schedule.Instance{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Overhead != 0 {
		t.Fatalf("overhead with s0 resident = %v, want 0", r.Overhead)
	}
}

func TestEmptyLoadSet(t *testing.T) {
	s, p := fig3Sched(t)
	for _, sched := range []Scheduler{OnDemand{}, List{}, BranchBound{}} {
		r, err := Schedule(sched, s, p, nil, schedule.Instance{})
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if r.Overhead != 0 || r.Makespan != r.Ideal {
			t.Fatalf("%s: overhead %v makespan %v ideal %v", sched.Name(), r.Overhead, r.Makespan, r.Ideal)
		}
	}
}

func TestBoundsDelayLoads(t *testing.T) {
	s, p := fig3Sched(t)
	b := schedule.Instance{
		PortFree: []model.Time{model.Time(6 * model.Millisecond)},
	}
	r, err := List{}.Schedule(s, p, allLoads(s), b)
	if err != nil {
		t.Fatal(err)
	}
	// First load cannot start before 6ms, so it ends at 10ms and the
	// first execution is pushed from 0 to 10ms.
	if r.Overhead != 10*model.Millisecond {
		t.Fatalf("overhead = %v, want 10ms", r.Overhead)
	}
}

func TestLoadFloorBeforeExecFloorEnablesHiddenInit(t *testing.T) {
	s, p := fig3Sched(t)
	// The task starts at 20ms but the port is idle from 0: prefetching
	// can hide even the first load.
	b := schedule.Instance{
		ExecFloor: model.Time(20 * model.Millisecond),
		LoadFloor: 0,
	}
	r, err := List{}.Schedule(s, p, allLoads(s), b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Overhead != 0 {
		t.Fatalf("overhead = %v, want 0 (first load hidden before task start)", r.Overhead)
	}
	// On-demand cannot exploit the early window.
	rd, err := OnDemand{}.Schedule(s, p, allLoads(s), b)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Overhead != 16*model.Millisecond {
		t.Fatalf("on-demand overhead = %v, want 16ms", rd.Overhead)
	}
}

func TestBranchBoundFallsBackAboveMaxLoads(t *testing.T) {
	s, p := fig3Sched(t)
	r, err := BranchBound{MaxLoads: 2}.Schedule(s, p, allLoads(s), schedule.Instance{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Overhead != 4*model.Millisecond {
		t.Fatalf("fallback overhead = %v", r.Overhead)
	}
}

// randSched builds a random initial schedule plus a random subset of
// loads for property tests.
func randSched(rng *rand.Rand, maxSub, tiles int) (*assign.Schedule, platform.Platform, []graph.SubtaskID) {
	g := graph.Generate(rng, graph.GenSpec{
		Name: "r", Subtasks: 1 + rng.Intn(maxSub), MaxWidth: 3,
		MinExec: model.MS(0.5), MaxExec: model.MS(15), EdgeProb: 0.25,
	})
	p := platform.Default(tiles)
	s, err := assign.List(g, p, assign.Options{})
	if err != nil {
		panic(err)
	}
	var loads []graph.SubtaskID
	for i := 0; i < g.Len(); i++ {
		if rng.Float64() < 0.85 {
			loads = append(loads, graph.SubtaskID(i))
		}
	}
	return s, p, loads
}

// Property: the heuristic hierarchy holds — optimal ≤ list ≤ on-demand.
func TestSchedulerHierarchyProperty(t *testing.T) {
	f := func(seed int64, tiles uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s, p, loads := randSched(rng, 10, 1+int(tiles%5))
		od, err := OnDemand{}.Schedule(s, p, loads, schedule.Instance{})
		if err != nil {
			return false
		}
		ls, err := List{}.Schedule(s, p, loads, schedule.Instance{})
		if err != nil {
			return false
		}
		bb, err := BranchBound{}.Schedule(s, p, loads, schedule.Instance{})
		if err != nil {
			return false
		}
		if bb.Makespan > ls.Makespan {
			t.Logf("b&b %v worse than list %v", bb.Makespan, ls.Makespan)
			return false
		}
		if ls.Makespan > od.Makespan {
			t.Logf("list %v worse than on-demand %v", ls.Makespan, od.Makespan)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every result verifies against the engine's constraints and
// reports a non-negative overhead.
func TestResultsVerifyProperty(t *testing.T) {
	f := func(seed int64, tiles uint8, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s, p, loads := randSched(rng, 14, 1+int(tiles%5))
		var sched Scheduler
		switch pick % 3 {
		case 0:
			sched = OnDemand{}
		case 1:
			sched = List{}
		default:
			sched = BranchBound{MaxLoads: 8}
		}
		r, err := Schedule(sched, s, p, loads, schedule.Instance{})
		if err != nil {
			return false
		}
		if r.Overhead < 0 {
			return false
		}
		in, inst := engineInput(s, p, r.PortOrder, schedule.Instance{}, r.OnDemand)
		return schedule.Verify(in, inst, r.Timeline) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 90}); err != nil {
		t.Fatal(err)
	}
}

// exhaustive finds the true optimum by trying every permutation of the
// load set (skipping infeasible ones); only usable for tiny inputs.
func exhaustive(s *assign.Schedule, p platform.Platform, loads []graph.SubtaskID, b schedule.Instance) model.Dur {
	best := model.Dur(1 << 62)
	perm := append([]graph.SubtaskID(nil), loads...)
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			if r, err := Schedule(FixedOrder{}, s, p, perm, b); err == nil && r.Makespan < best {
				best = r.Makespan
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

// Property: branch&bound equals brute force on small instances, on one
// to three reconfiguration controllers, idle and then busy each until
// its own instant. A port-pairing bound that lets loads serialize on
// one controller when there are several prunes the optimum (idle,
// iteration 71: 22.8ms against 21.9ms on two ports), and so does one
// whose floor is the latest controller's rather than the earliest's
// (busy, iteration 25).
func TestBranchBoundIsOptimal(t *testing.T) {
	check := func(name string, seed int64, n int, busy bool) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			s, p, loads := randSched(rng, 7, 1+rng.Intn(4))
			p.Ports = 1 + rng.Intn(3)
			if len(loads) > 7 {
				loads = loads[:7]
			}
			var inst schedule.Instance
			if busy {
				inst.LoadFloor = model.Time(model.MS(float64(rng.Intn(4))))
				inst.PortFree = make([]model.Time, p.Ports)
				for q := range inst.PortFree {
					inst.PortFree[q] = model.Time(model.MS(float64(rng.Intn(12))))
				}
			}
			bb, err := BranchBound{}.Schedule(s, p, loads, inst)
			if err != nil {
				t.Fatal(err)
			}
			want := exhaustive(s, p, loads, inst)
			if bb.Makespan != want {
				t.Fatalf("%s iteration %d (%d ports, %+v): b&b %v, exhaustive %v", name, i, p.Ports, inst, bb.Makespan, want)
			}
		}
	}
	check("idle", 2, 100, false)
	check("busy", 12, 60, true)
}

func TestSchedulerNames(t *testing.T) {
	if (OnDemand{}).Name() == "" || (List{}).Name() == "" || (BranchBound{}).Name() == "" ||
		(FixedOrder{}).Name() == "" || (Phased{}).Name() == "" {
		t.Fatal("empty scheduler name")
	}
}
