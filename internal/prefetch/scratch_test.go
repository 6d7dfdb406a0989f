package prefetch

import (
	"fmt"
	"math/rand"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// randomSched builds a random DAG schedule for equivalence checks.
func randomSched(t *testing.T, rng *rand.Rand, n, tiles int) (*assign.Schedule, platform.Platform) {
	t.Helper()
	g := graph.New(fmt.Sprintf("rand%d", n))
	ids := make([]graph.SubtaskID, n)
	for i := range ids {
		ids[i] = g.AddSubtask("s", model.Dur(1+rng.Intn(20))*model.Millisecond)
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Float64() < 0.3 {
				g.AddEdge(ids[j], ids[i])
			}
		}
	}
	p := platform.Default(tiles)
	s, err := assign.List(g, p, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

// TestScratchReuseMatchesFresh pins a scratch reused across calls to a
// fresh one per call (what Schedule and Evaluate use): identical port
// orders, makespans, overheads and timelines on a spread of random
// schedules and boundary conditions, so no buffer leaks state from one
// call into the next.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := &Scratch{} // deliberately reused across every case
	ms := func(n int) model.Time { return model.Time(n) * model.Time(model.Millisecond) }
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(8)
		tiles := 2 + rng.Intn(3)
		s, p := randomSched(t, rng, n, tiles)
		b := Bounds{
			ExecFloor: ms(rng.Intn(50)),
			TileFree:  make([]model.Time, s.Tiles+s.ISPs),
			PortFree:  make([]model.Time, p.Ports),
		}
		b.LoadFloor = b.ExecFloor - ms(rng.Intn(10))
		for i := range b.TileFree {
			b.TileFree[i] = b.ExecFloor + ms(rng.Intn(8))
		}
		for i := range b.PortFree {
			b.PortFree[i] = b.LoadFloor + ms(rng.Intn(8))
		}
		loads := s.AllLoads()

		want, err := (OnDemand{}).Schedule(s, p, loads, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (OnDemand{}).ScheduleScratch(s, p, loads, b, sc)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "on-demand", trial, want, got)

		want, err = (List{}).Schedule(s, p, loads, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err = (List{}).ScheduleScratch(s, p, loads, b, sc)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "list", trial, want, got)

		want, err = Evaluate(s, p, loads, b, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err = EvaluateScratch(s, p, loads, b, false, sc)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "evaluate", trial, want, got)
	}
}

// TestRepairMatchesReference pins repairScratch.repair to repairOrder,
// the map-based reference below that shares none of its bookkeeping:
// random schedules, random load subsets in random orders, both
// semantics, and one scratch reused throughout so stale buffers from a
// larger graph would show.
func TestRepairMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var rs repairScratch
	for trial := 0; trial < 400; trial++ {
		s, _, loads := randSched(rng, 14, 1+rng.Intn(4))
		rng.Shuffle(len(loads), func(i, j int) { loads[i], loads[j] = loads[j], loads[i] })
		for _, onDemand := range []bool{false, true} {
			want := append([]graph.SubtaskID(nil), loads...)
			repairOrder(s, want, onDemand)
			got := append([]graph.SubtaskID(nil), loads...)
			rs.repair(s, got, onDemand)
			if !equalOrder(got, want) {
				t.Fatalf("trial %d onDemand=%v: repair(%v) = %v, reference %v", trial, onDemand, loads, got, want)
			}
		}
	}
}

func compareResults(t *testing.T, name string, trial int, want, got *Result) {
	t.Helper()
	if got.Makespan != want.Makespan || got.Ideal != want.Ideal || got.Overhead != want.Overhead {
		t.Fatalf("%s trial %d: reused scratch (mk %v, ideal %v, ov %v) != fresh (mk %v, ideal %v, ov %v)",
			name, trial, got.Makespan, got.Ideal, got.Overhead, want.Makespan, want.Ideal, want.Overhead)
	}
	if len(got.PortOrder) != len(want.PortOrder) {
		t.Fatalf("%s trial %d: port order lengths differ", name, trial)
	}
	for i := range want.PortOrder {
		if got.PortOrder[i] != want.PortOrder[i] {
			t.Fatalf("%s trial %d: port order differs at %d: %v vs %v", name, trial, i, got.PortOrder, want.PortOrder)
		}
	}
	for i := range want.Timeline.ExecStart {
		if got.Timeline.ExecStart[i] != want.Timeline.ExecStart[i] ||
			got.Timeline.LoadStart[i] != want.Timeline.LoadStart[i] {
			t.Fatalf("%s trial %d: timelines differ at subtask %d", name, trial, i)
		}
	}
}

// repairOrder is the reference for repairScratch.repair. It permutes a
// load order, as little as possible, so that it is feasible:
//
//   - loads of subtasks sharing a tile appear in the tile's execution
//     order (a tile cannot be reconfigured for a later subtask before
//     an earlier one has run), and
//   - under on-demand semantics, a load never precedes the load of a
//     loaded graph ancestor (the ancestor must execute before this
//     load's request even exists, and its own load must come first).
//
// It models the controller letting an unblocked request overtake a
// blocked one: a stable topological sort that keeps the desired order
// wherever the constraints allow.
func repairOrder(s *assign.Schedule, order []graph.SubtaskID, onDemand bool) {
	m := len(order)
	if m < 2 {
		return
	}
	inSet := make(map[graph.SubtaskID]bool, m)
	for _, id := range order {
		inSet[id] = true
	}
	// deps[i] lists loads that must be issued before order-member i.
	deps := make(map[graph.SubtaskID][]graph.SubtaskID, m)
	for _, tileOrder := range s.TileOrder {
		var prev graph.SubtaskID = -1
		for _, id := range tileOrder {
			if !inSet[id] {
				continue
			}
			if prev >= 0 {
				deps[id] = append(deps[id], prev)
			}
			prev = id
		}
	}
	if onDemand {
		// An on-demand load waits for its predecessors' executions,
		// and executions are ordered by the *combined* precedence:
		// graph edges plus per-tile execution chains (through resident
		// subtasks too). Any loaded subtask that executes strictly
		// before subtask i must therefore have its load issued before
		// i's. Walk each load's combined-predecessor closure and
		// record the loaded members.
		prevExec := make(map[graph.SubtaskID]graph.SubtaskID)
		for _, tileOrder := range s.TileOrder {
			for k := 1; k < len(tileOrder); k++ {
				prevExec[tileOrder[k]] = tileOrder[k-1]
			}
		}
		combinedPreds := func(id graph.SubtaskID) []graph.SubtaskID {
			ps := append([]graph.SubtaskID(nil), s.G.Preds(id)...)
			if p, ok := prevExec[id]; ok {
				ps = append(ps, p)
			}
			return ps
		}
		for _, id := range order {
			seen := map[graph.SubtaskID]bool{}
			stack := combinedPreds(id)
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[p] {
					continue
				}
				seen[p] = true
				if inSet[p] && p != id {
					deps[id] = append(deps[id], p)
				}
				stack = append(stack, combinedPreds(p)...)
			}
		}
	}
	emitted := make(map[graph.SubtaskID]bool, m)
	out := make([]graph.SubtaskID, 0, m)
	for len(out) < m {
		progress := false
		for _, id := range order {
			if emitted[id] {
				continue
			}
			ok := true
			for _, d := range deps[id] {
				if !emitted[d] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, id)
				emitted[id] = true
				progress = true
			}
		}
		if !progress {
			// The constraints are cyclic only if the tile orders
			// contradict the graph, which Compute reports later;
			// emit the remainder unchanged.
			for _, id := range order {
				if !emitted[id] {
					out = append(out, id)
				}
			}
			break
		}
	}
	copy(order, out)
}
