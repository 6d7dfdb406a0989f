package prefetch

import (
	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/schedule"
)

// Scratch carries every reusable buffer the prefetch schedulers need,
// so the simulator's per-instance loop runs them without allocating.
// The Result returned by the *Scratch entry points — including its
// Timeline — is owned by the scratch and valid until the next call on
// the same scratch. The zero value is ready to use; a Scratch must not
// be shared between goroutines.
//
// The *Scratch entry points take the schedule's static part st
// (assign.Schedule.Static), built once per stored schedule and platform;
// each decision binds its loads and its schedule.Instance to it.
type Scratch struct {
	// eval evaluates every candidate timeline.
	eval schedule.Scratch

	order []graph.SubtaskID
	next  []graph.SubtaskID
	ready []model.Time // per subtask, on-demand readiness
	res   Result

	repair repairScratch
	bb     bbScratch

	// Phased's initialization phase: the tile availabilities it
	// advances, and its loads' starts until the body timeline exists.
	initTileFree []model.Time
	initStart    []model.Time
}

// onDemandInstance is inst under on-demand semantics. An on-demand
// load request only exists once the task runs, so no load starts
// before ExecFloor either.
func onDemandInstance(inst schedule.Instance) schedule.Instance {
	inst.OnDemand = true
	inst.LoadFloor = model.MaxT(inst.LoadFloor, inst.ExecFloor)
	return inst
}

// evaluateInto evaluates one load order into out; out.Timeline is the
// scratch's reusable timeline.
func (sc *Scratch) evaluateInto(out *Result, st *schedule.Static, order []graph.SubtaskID, inst schedule.Instance, ideal model.Dur) error {
	if err := sc.eval.Bind(st, order, inst); err != nil {
		return err
	}
	return sc.reorderInto(out, order, inst.OnDemand, ideal)
}

// reorderInto evaluates order, a permutation of the bound load set,
// into out.
func (sc *Scratch) reorderInto(out *Result, order []graph.SubtaskID, onDemand bool, ideal model.Dur) error {
	tl, err := sc.eval.Reorder(order, 0)
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

// ScheduleScratch implements Scheduler; the returned Result and its
// Timeline are owned by sc. The request order (which load reaches the
// controller first) depends on readiness times, which depend on the
// timeline itself, so the order is resolved by fixpoint iteration:
// start from the ideal-start order and re-sort by observed readiness
// until the order stabilizes.
func (OnDemand) ScheduleScratch(s *assign.Schedule, st *schedule.Static, loads []graph.SubtaskID, inst schedule.Instance, sc *Scratch) (*Result, error) {
	inst = onDemandInstance(inst)
	n := s.G.Len()
	order := append(sc.order[:0], loads...)
	s.SortByIdealStart(order)
	next := sc.next[:0]
	if cap(sc.ready) < n {
		sc.ready = make([]model.Time, n)
	}
	ready := sc.ready[:n]

	// The ideal reference and the bound load set do not depend on the
	// order, so every fixpoint iteration shares them.
	ideal, err := st.Ideal(inst.ExecFloor, inst.TileFree)
	if err != nil {
		return nil, err
	}
	if err := sc.eval.Bind(st, order, inst); err != nil {
		return nil, err
	}
	maxIter := 2*len(order) + 2
	for iter := 0; iter < maxIter; iter++ {
		if err := sc.reorderInto(&sc.res, order, true, ideal); err != nil {
			return nil, err
		}
		for _, id := range order {
			t := inst.ExecFloor
			for _, pr := range s.G.Preds(id) {
				t = model.MaxT(t, sc.res.Timeline.ExecEnd[pr])
			}
			ready[id] = t
		}
		next = append(next[:0], order...)
		// Stable insertion sort by readiness (ties keep the previous
		// iteration's order), without sort.SliceStable's allocations.
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
	// Both buffers return to the scratch (possibly swapped).
	sc.order, sc.next = order[:0], next[:0]
	return &sc.res, nil
}

func equalOrder(a, b []graph.SubtaskID) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ScheduleScratch implements Scheduler; the returned Result and its
// Timeline are owned by sc.
//
// The decision binds its loads to st once; each candidate is one
// Reorder limited by the best makespan so far, which stops as soon as
// the candidate provably cannot beat it.
func (l List) ScheduleScratch(s *assign.Schedule, st *schedule.Static, loads []graph.SubtaskID, inst schedule.Instance, sc *Scratch) (*Result, error) {
	inst.OnDemand = false
	ideal, err := st.Ideal(inst.ExecFloor, inst.TileFree)
	if err != nil {
		return nil, err
	}
	order := append(sc.order[:0], loads...)
	sc.order = order[:0]
	s.SortByIdealStart(order)
	if err := sc.eval.Bind(st, order, inst); err != nil {
		return nil, err
	}
	res := &sc.res
	if err := sc.reorderInto(res, order, false, ideal); err != nil {
		return nil, err
	}
	best := res.Makespan
	// current reports whether the scratch timeline still belongs to
	// the best order (no candidate has been evaluated since).
	current := true
	passes := l.MaxPasses
	if passes == 0 {
		passes = 2
	}
	for pass := 0; pass < passes && best > ideal; pass++ {
		improved := false
		for i := 0; i+1 < len(order); i++ {
			if s.Assignment[order[i]] == s.Assignment[order[i+1]] {
				// Two loads of one tile: the swap always closes a
				// constraint cycle with the tile's execution chain.
				continue
			}
			order[i], order[i+1] = order[i+1], order[i]
			tl, err := sc.eval.Reorder(order, best)
			current = err == nil && tl.Makespan() < best
			if !current {
				// Swap infeasible (tile-order cycle) or not better.
				order[i], order[i+1] = order[i+1], order[i]
				continue
			}
			best = tl.Makespan()
			improved = true
		}
		if !improved {
			break
		}
	}
	// order holds the best order found (rejected swaps were reverted);
	// unless the last evaluation was of that order, evaluate it once
	// more so the returned timeline matches it.
	if !current {
		if err := sc.reorderInto(res, order, false, ideal); err != nil {
			return nil, err
		}
	}
	res.Makespan, res.Overhead = best, best-ideal
	return res, nil
}

// repairScratch holds id-indexed buffers for the feasibility repair of
// a load order, so the on-demand fixpoint repairs without allocating.
type repairScratch struct {
	inSet   []bool
	deps    [][]graph.SubtaskID
	seen    []bool
	emitted []bool
	out     []graph.SubtaskID
	stack   []graph.SubtaskID
}

func (rs *repairScratch) grow(n int) {
	if cap(rs.inSet) < n {
		rs.inSet = make([]bool, n)
		rs.deps = make([][]graph.SubtaskID, n)
		rs.seen = make([]bool, n)
		rs.emitted = make([]bool, n)
	}
	rs.inSet = rs.inSet[:n]
	rs.deps = rs.deps[:n]
	rs.seen = rs.seen[:n]
	rs.emitted = rs.emitted[:n]
	for i := 0; i < n; i++ {
		rs.inSet[i] = false
		rs.deps[i] = rs.deps[i][:0]
		rs.emitted[i] = false
	}
	rs.out = rs.out[:0]
	rs.stack = rs.stack[:0]
}

// repair permutes a load order in place, as little as possible, so that
// it is feasible under on-demand semantics:
//
//   - loads of subtasks sharing a tile appear in the tile's execution
//     order (a tile cannot be reconfigured for a later subtask before
//     an earlier one has run), and
//   - a load never precedes the load of a loaded graph ancestor (the
//     ancestor must execute before this load's request even exists,
//     and its own load must come first).
//
// It models the controller letting an unblocked request overtake a
// blocked one: a stable topological sort that keeps the desired order
// wherever the constraints allow. The tests check it against an
// independent map-based reference.
func (rs *repairScratch) repair(s *assign.Schedule, st *schedule.Static, order []graph.SubtaskID) {
	m := len(order)
	if m < 2 {
		return
	}
	n := s.G.Len()
	rs.grow(n)
	for _, id := range order {
		rs.inSet[id] = true
	}
	// deps[i] lists loads that must be issued before order-member i.
	// An on-demand load waits for its predecessors' executions, and
	// executions are ordered by the *combined* precedence: graph edges
	// plus per-tile execution chains (through resident subtasks too).
	// Any loaded subtask that executes strictly before subtask i, its
	// tile's earlier loads included, must therefore have its load
	// issued before i's. Walk each load's combined-predecessor closure
	// and record the loaded members.
	push := func(stack []graph.SubtaskID, id graph.SubtaskID) []graph.SubtaskID {
		stack = append(stack, s.G.Preds(id)...)
		if pe := st.Prev(id); pe >= 0 {
			stack = append(stack, pe)
		}
		return stack
	}
	for _, id := range order {
		for i := 0; i < n; i++ {
			rs.seen[i] = false
		}
		stack := push(rs.stack[:0], id)
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rs.seen[p] {
				continue
			}
			rs.seen[p] = true
			if rs.inSet[p] && p != id {
				rs.deps[id] = append(rs.deps[id], p)
			}
			stack = push(stack, p)
		}
		rs.stack = stack[:0]
	}
	out := rs.out[:0]
	for len(out) < m {
		progress := false
		for _, id := range order {
			if rs.emitted[id] {
				continue
			}
			ok := true
			for _, d := range rs.deps[id] {
				if !rs.emitted[d] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, id)
				rs.emitted[id] = true
				progress = true
			}
		}
		if !progress {
			// The constraints are cyclic only if the tile orders
			// contradict the graph, which Compute reports later;
			// emit the remainder unchanged.
			for _, id := range order {
				if !rs.emitted[id] {
					out = append(out, id)
				}
			}
			break
		}
	}
	copy(order, out)
	rs.out = out[:0]
}
