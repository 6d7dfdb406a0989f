package prefetch

import (
	"fmt"
	"math/rand"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/schedule"
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

// mustStatic builds s's static constraint part on p.
func mustStatic(t *testing.T, s *assign.Schedule, p platform.Platform) *schedule.Static {
	t.Helper()
	st, err := s.Static(p)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestScratchReuseMatchesFresh pins a scratch reused across calls to a
// fresh one per call (what Schedule and Evaluate use): identical port
// orders, makespans, overheads and timelines for every scheduler and
// for Evaluate on a spread of random schedules and boundary conditions,
// so no buffer leaks state from one call into the next.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := &Scratch{} // deliberately reused across every case
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(8)
		tiles := 2 + rng.Intn(3)
		s, p := randomSched(t, rng, n, tiles)
		b := randomBounds(rng, s, p)
		loads := s.AllLoads()
		st := mustStatic(t, s, p)

		for _, sched := range []Scheduler{OnDemand{}, List{}, BranchBound{}} {
			want, err := Schedule(sched, s, p, loads, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sched.ScheduleScratch(s, st, loads, b, sc)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, sched.Name(), trial, want, got)
		}

		want, err := Evaluate(s, p, loads, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateScratch(st, loads, b, sc)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "evaluate", trial, want, got)
	}
}

// TestRepairMatchesReference pins repairScratch.repair to repairOrder,
// the map-based reference below that shares none of its bookkeeping:
// random schedules, random load subsets in random orders, on-demand
// semantics, and one scratch reused throughout so stale buffers from a
// larger graph would show.
func TestRepairMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var rs repairScratch
	for trial := 0; trial < 400; trial++ {
		s, p, loads := randSched(rng, 14, 1+rng.Intn(4))
		st := mustStatic(t, s, p)
		rng.Shuffle(len(loads), func(i, j int) { loads[i], loads[j] = loads[j], loads[i] })
		want := append([]graph.SubtaskID(nil), loads...)
		repairOrder(s, want, true)
		got := append([]graph.SubtaskID(nil), loads...)
		rs.repair(s, st, got)
		if !equalOrder(got, want) {
			t.Fatalf("trial %d: repair(%v) = %v, reference %v", trial, loads, got, want)
		}
	}
}

// randomBounds draws boundary conditions for s on p: an execution
// floor, a load floor up to 10 ms earlier, and processors and ports
// that drain a little later.
func randomBounds(rng *rand.Rand, s *assign.Schedule, p platform.Platform) schedule.Instance {
	ms := func(n int) model.Time { return model.Time(n) * model.Time(model.Millisecond) }
	b := schedule.Instance{
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
	return b
}

// TestListMatchesReference pins List.ScheduleScratch — one prepared DAG
// per decision, cut-off candidates, same-tile swaps skipped — to
// referenceList, the full-evaluation loop it replaced: identical port
// orders, makespans, ideals, overheads and timelines at every pass
// bound, on random schedules with one to three ports, with one reused
// Scratch on each side.
func TestListMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sc, ref := new(Scratch), new(Scratch)
	for trial := 0; trial < 300; trial++ {
		s, p, loads := randSched(rng, 14, 1+rng.Intn(4))
		p.Ports = 1 + rng.Intn(3)
		b := randomBounds(rng, s, p)
		st := mustStatic(t, s, p)
		for _, passes := range []int{0, 1, 3, -1} {
			l := List{MaxPasses: passes}
			want, werr := referenceList(l, s, p, loads, b, ref)
			got, err := l.ScheduleScratch(s, st, loads, b, sc)
			if (err == nil) != (werr == nil) {
				t.Fatalf("trial %d passes %d: err %v, reference %v", trial, passes, err, werr)
			}
			if err == nil {
				compareFull(t, fmt.Sprintf("list/%d", passes), trial, want, got)
			}
		}
	}
}

// TestOnDemandMatchesReference does the same for the on-demand
// fixpoint, which now prepares once and reorders per iteration.
func TestOnDemandMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sc, ref := new(Scratch), new(Scratch)
	for trial := 0; trial < 300; trial++ {
		s, p, loads := randSched(rng, 14, 1+rng.Intn(4))
		p.Ports = 1 + rng.Intn(3)
		b := randomBounds(rng, s, p)
		st := mustStatic(t, s, p)
		want, werr := referenceOnDemand(s, p, loads, b, ref)
		got, err := (OnDemand{}).ScheduleScratch(s, st, loads, b, sc)
		if (err == nil) != (werr == nil) {
			t.Fatalf("trial %d: err %v, reference %v", trial, err, werr)
		}
		if err == nil {
			compareFull(t, "on-demand", trial, want, got)
		}
	}
}

// TestListDecisionAllocs pins the run-time decision path: once a
// scratch is warm, List and OnDemand decisions allocate nothing, and
// neither does a Memo hit on a warm table, at a new ExecFloor.
func TestListDecisionAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	s, p, _ := randSched(rng, 14, 3)
	for s.G.Len() < 8 {
		s, p, _ = randSched(rng, 14, 3)
	}
	loads := s.AllLoads()
	b := randomBounds(rng, s, p)
	st := mustStatic(t, s, p)
	sc := new(Scratch)
	list := func() {
		if _, err := (List{}).ScheduleScratch(s, st, loads, b, sc); err != nil {
			t.Fatal(err)
		}
	}
	onDemand := func() {
		if _, err := (OnDemand{}).ScheduleScratch(s, st, loads, b, sc); err != nil {
			t.Fatal(err)
		}
	}
	list()
	onDemand()
	if a := testing.AllocsPerRun(20, list); a != 0 {
		t.Errorf("List decision allocates %v per call on a warm scratch", a)
	}
	if a := testing.AllocsPerRun(20, onDemand); a != 0 {
		t.Errorf("OnDemand decision allocates %v per call on a warm scratch", a)
	}

	var m Memo
	shifts := []schedule.Instance{b, shifted(b, model.Millisecond), shifted(b, 7*model.Millisecond)}
	next := 0
	hit := func() {
		for _, sched := range []Scheduler{List{}, OnDemand{}} {
			r, err := m.Schedule(sched, s, st, loads, shifts[next%len(shifts)], sc)
			if err != nil {
				t.Fatal(err)
			}
			if next > 0 && r.Timeline != &m.tl {
				t.Fatalf("%s: a stored key missed", sched.Name())
			}
		}
		next++
	}
	hit()
	if a := testing.AllocsPerRun(20, hit); a != 0 {
		t.Errorf("Memo hits allocate %v per call on a warm table", a)
	}
}

// compareFull is compareResults plus every timeline field.
func compareFull(t *testing.T, name string, trial int, want, got *Result) {
	t.Helper()
	compareResults(t, name, trial, want, got)
	if got.OnDemand != want.OnDemand {
		t.Fatalf("%s trial %d: OnDemand %v, reference %v", name, trial, got.OnDemand, want.OnDemand)
	}
	w, g := want.Timeline, got.Timeline
	if g.Start != w.Start || g.End != w.End || len(g.PortFreeAfter) != len(w.PortFreeAfter) {
		t.Fatalf("%s trial %d: timeline summary differs", name, trial)
	}
	for i := range w.ExecStart {
		if g.ExecEnd[i] != w.ExecEnd[i] || g.LoadEnd[i] != w.LoadEnd[i] || g.LoadPort[i] != w.LoadPort[i] {
			t.Fatalf("%s trial %d: timelines differ at subtask %d", name, trial, i)
		}
	}
	for i := range w.PortFreeAfter {
		if g.PortFreeAfter[i] != w.PortFreeAfter[i] {
			t.Fatalf("%s trial %d: port %d free time differs", name, trial, i)
		}
	}
}

// engineInput builds the schedule.Input of one decision, loading
// exactly the subtasks in order, and the schedule.Instance it runs in:
// b under the given semantics, where an on-demand load waits for the
// execution floor too. The tests use it to Verify timelines and to
// evaluate decisions from scratch.
func engineInput(s *assign.Schedule, p platform.Platform, order []graph.SubtaskID, b schedule.Instance, onDemand bool) (schedule.Input, schedule.Instance) {
	b.OnDemand = onDemand
	if onDemand && b.LoadFloor < b.ExecFloor {
		b.LoadFloor = b.ExecFloor
	}
	return s.EngineInput(p, order), b
}

// refIdeal is the zero-overhead reference evaluated in full: a
// schedule.Compute of the decision with no loads, against which the
// schedulers' closed-form Static.Ideal is pinned.
func refIdeal(s *assign.Schedule, p platform.Platform, b schedule.Instance) (model.Dur, error) {
	tl, err := schedule.Compute(engineInput(s, p, nil, b, false))
	if err != nil {
		return 0, err
	}
	return tl.Makespan(), nil
}

// evaluateFull evaluates one load order from scratch: a fresh
// schedule.Compute of its whole input.
func evaluateFull(out *Result, s *assign.Schedule, p platform.Platform, order []graph.SubtaskID, b schedule.Instance, onDemand bool, ideal model.Dur) error {
	tl, err := schedule.Compute(engineInput(s, p, order, b, onDemand))
	if err != nil {
		return err
	}
	*out = Result{
		PortOrder: order,
		OnDemand:  onDemand,
		Timeline:  tl,
		Makespan:  tl.Makespan(),
		Ideal:     ideal,
		Overhead:  tl.Makespan() - ideal,
	}
	return nil
}

// referenceList is List.ScheduleScratch as it was before candidates
// shared a prepared DAG: every swap is a full evaluation, and the best
// order is evaluated once more at the end.
func referenceList(l List, s *assign.Schedule, p platform.Platform, loads []graph.SubtaskID, b schedule.Instance, sc *Scratch) (*Result, error) {
	ideal, err := refIdeal(s, p, b)
	if err != nil {
		return nil, err
	}
	order := append(sc.order[:0], loads...)
	s.SortByIdealStart(order)
	var best, cand Result
	if err := evaluateFull(&best, s, p, order, b, false, ideal); err != nil {
		return nil, err
	}
	passes := l.MaxPasses
	if passes == 0 {
		passes = 2
	}
	for pass := 0; pass < passes && best.Overhead > 0; pass++ {
		improved := false
		for i := 0; i+1 < len(order); i++ {
			order[i], order[i+1] = order[i+1], order[i]
			err := evaluateFull(&cand, s, p, order, b, false, ideal)
			if err != nil || cand.Makespan >= best.Makespan {
				// Swap infeasible (tile-order cycle) or not better.
				order[i], order[i+1] = order[i+1], order[i]
				continue
			}
			best = cand
			improved = true
		}
		if !improved {
			break
		}
	}
	// order holds the best order found (rejected swaps were reverted);
	// evaluate it once more so the returned timeline matches it.
	final := append(sc.next[:0], best.PortOrder...)
	sc.next = final[:0]
	sc.order = order[:0]
	if err := evaluateFull(&sc.res, s, p, final, b, false, ideal); err != nil {
		return nil, err
	}
	return &sc.res, nil
}

// referenceOnDemand is the on-demand fixpoint as it was before its
// iterations shared a prepared DAG: a full evaluation per iteration.
func referenceOnDemand(s *assign.Schedule, p platform.Platform, loads []graph.SubtaskID, b schedule.Instance, sc *Scratch) (*Result, error) {
	n := s.G.Len()
	order := append(sc.order[:0], loads...)
	s.SortByIdealStart(order)
	next := sc.next[:0]
	if cap(sc.ready) < n {
		sc.ready = make([]model.Time, n)
	}
	ready := sc.ready[:n]
	ideal, err := refIdeal(s, p, b)
	if err != nil {
		return nil, err
	}
	st, err := s.Static(p)
	if err != nil {
		return nil, err
	}
	maxIter := 2*len(order) + 2
	for iter := 0; iter < maxIter; iter++ {
		if err := evaluateFull(&sc.res, s, p, order, b, true, ideal); err != nil {
			return nil, err
		}
		for _, id := range order {
			t := b.ExecFloor
			for _, pr := range s.G.Preds(id) {
				t = model.MaxT(t, sc.res.Timeline.ExecEnd[pr])
			}
			ready[id] = t
		}
		next = append(next[:0], order...)
		for i := 1; i < len(next); i++ {
			for j := i; j > 0 && ready[next[j]] < ready[next[j-1]]; j-- {
				next[j-1], next[j] = next[j], next[j-1]
			}
		}
		sc.repair.repair(s, st, next)
		if equalOrder(next, order) {
			break
		}
		order, next = next, order
	}
	sc.order, sc.next = order[:0], next[:0]
	return &sc.res, nil
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
