// Package prefetch contains the configuration-prefetch schedulers the
// paper evaluates and builds on. Given an initial subtask schedule (from
// package assign) and the set of subtasks whose configurations must be
// loaded, a prefetch scheduler decides the order in which the loads are
// issued to the reconfiguration controller and whether loads may start
// before their subtask is ready.
//
// Three schedulers are provided:
//
//   - OnDemand: no prefetching at all — a load is issued when the
//     subtask becomes ready. This is the paper's "without prefetch"
//     baseline and the source of the raw overhead numbers in Table 1.
//   - List: the run-time heuristic of Resano et al. [7] — list
//     scheduling by the ideal start time with a criticality tie-break,
//     followed by a bounded improvement pass. O(N log N) for the order;
//     each improvement candidate is one O(n+e) pass over the
//     schedule's static constraint DAG with the decision's loads bound
//     to it, which may stop early. Near optimal.
//   - BranchBound: exact minimization of the makespan over all feasible
//     load orders, with lower-bound pruning. The paper uses the optimal
//     algorithm inside the design-time phase and for Table 1's
//     "Prefetch" column; for large graphs it falls back to List, exactly
//     as the paper keeps [7] "for large graphs".
//
// Each scheduler has one implementation, its ScheduleScratch method (the
// Scheduler interface), on a reusable Scratch of id-indexed buffers
// (scratch.go) and the schedule's static constraint part
// (schedule.Static, built by assign.Schedule.Static). Design time
// (core.Analyze: one static part and one Scratch per analysis) and the
// simulator's per-instance loop (one static part per stored schedule)
// both call it. The allocating forms — Schedule, Evaluate and the
// schedulers' Schedule methods — run it on a freshly built static part
// and Scratch, so their Results alias nothing. The zero-overhead
// reference (Result.Ideal) is schedule.Static.Ideal, a closed form.
package prefetch

import (
	"fmt"
	"slices"
	"sort"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/schedule"
)

// Bounds carries the boundary conditions of one task instance: when
// execution may start, when the reconfiguration circuitry is available,
// and when each tile drains from the previous task.
type Bounds struct {
	ExecFloor model.Time
	LoadFloor model.Time
	TileFree  []model.Time
	PortFree  []model.Time
}

// Result is a prefetch schedule together with its evaluated timeline.
type Result struct {
	PortOrder []graph.SubtaskID
	OnDemand  bool
	Timeline  *schedule.Timeline
	// Makespan is the task body span (end minus exec floor); Ideal is
	// the same decision set with loads removed; Overhead is their
	// difference — the paper's reconfiguration overhead.
	Makespan model.Dur
	Ideal    model.Dur
	Overhead model.Dur
}

// Scheduler is implemented by every prefetch policy.
type Scheduler interface {
	Name() string
	// ScheduleScratch orders the loads of the given subtasks of s, whose
	// static constraint part on the platform is st. The loads slice is
	// not modified. The Result and its Timeline are owned by sc and
	// valid until its next use.
	ScheduleScratch(s *assign.Schedule, st *schedule.Static, loads []graph.SubtaskID, b Bounds, sc *Scratch) (*Result, error)
}

// Schedule is the allocating form of sched.ScheduleScratch: it builds
// s's static part on p and runs sched on a fresh Scratch.
func Schedule(sched Scheduler, s *assign.Schedule, p platform.Platform, loads []graph.SubtaskID, b Bounds) (*Result, error) {
	return fresh(s, p, func(st *schedule.Static, sc *Scratch) (*Result, error) {
		return sched.ScheduleScratch(s, st, loads, b, sc)
	})
}

// Evaluate computes the timeline and overhead for a given load order
// under the boundary conditions: the allocating form of
// EvaluateScratch.
func Evaluate(s *assign.Schedule, p platform.Platform, order []graph.SubtaskID, b Bounds, onDemand bool) (*Result, error) {
	return fresh(s, p, func(st *schedule.Static, sc *Scratch) (*Result, error) {
		return EvaluateScratch(st, order, b, onDemand, sc)
	})
}

// fresh runs f on s's static part on p and a new Scratch, so the Result
// it returns aliases nothing: the one allocating path.
func fresh(s *assign.Schedule, p platform.Platform, f func(*schedule.Static, *Scratch) (*Result, error)) (*Result, error) {
	st, err := s.Static(p)
	if err != nil {
		return nil, err
	}
	return f(st, new(Scratch))
}

// OnDemand issues every load when its subtask becomes ready: the
// behaviour of a system with no prefetch support (paper Fig. 3b).
type OnDemand struct{}

// Name implements Scheduler.
func (OnDemand) Name() string { return "on-demand" }

// Schedule is Schedule(o, …), the allocating form.
func (o OnDemand) Schedule(s *assign.Schedule, p platform.Platform, loads []graph.SubtaskID, b Bounds) (*Result, error) {
	return Schedule(o, s, p, loads, b)
}

// List is the run-time prefetch heuristic of [7]: loads are issued in
// ideal-start order (weight tie-break) as early as the port and target
// tile allow, then a bounded pass of adjacent transpositions keeps any
// swap that shortens the makespan. Complexity O(N log N) for the sort
// plus O(passes·N) candidate evaluations. The decision binds its loads
// to the schedule's static constraint DAG (n subtasks, e edges) once;
// each candidate is one O(n+e) pass over it that stops as soon as the candidate provably
// cannot beat the best makespan so far. Swaps of two loads on one tile
// are skipped: they always close a constraint cycle.
type List struct {
	// MaxPasses bounds the improvement phase; zero means 2 passes and
	// a negative value disables the improvement phase entirely (the
	// pure list schedule, matching the complexity the paper quotes).
	MaxPasses int
}

// Name implements Scheduler.
func (l List) Name() string { return "list" }

// Schedule is Schedule(l, …), the allocating form.
func (l List) Schedule(s *assign.Schedule, p platform.Platform, loads []graph.SubtaskID, b Bounds) (*Result, error) {
	return Schedule(l, s, p, loads, b)
}

// BranchBound finds the load order with the minimum makespan. The search
// expands orders respecting the per-tile execution sequence (other
// orders are infeasible) and prunes a branch when a relaxation — the
// timeline with all unplaced loads treated as resident — already meets
// or exceeds the best makespan found.
type BranchBound struct {
	// MaxLoads caps the exact search; above it the scheduler falls
	// back to the List heuristic, as the paper does for large graphs.
	// Zero means 12.
	MaxLoads int
}

// maxNodes caps the number of search nodes BranchBound explores, as a
// safety valve.
const maxNodes = 200000

// Name implements Scheduler.
func (BranchBound) Name() string { return "branch&bound" }

// Schedule is Schedule(bb, …), the allocating form.
func (bb BranchBound) Schedule(s *assign.Schedule, p platform.Platform, loads []graph.SubtaskID, b Bounds) (*Result, error) {
	return Schedule(bb, s, p, loads, b)
}

// ScheduleScratch implements Scheduler. The incumbent, every search node
// and the final evaluation run on sc; the returned Result and its
// Timeline are owned by sc.
func (bb BranchBound) ScheduleScratch(s *assign.Schedule, st *schedule.Static, loads []graph.SubtaskID, b Bounds, sc *Scratch) (*Result, error) {
	maxLoads := bb.MaxLoads
	if maxLoads == 0 {
		maxLoads = 12
	}
	if len(loads) > maxLoads {
		return List{}.ScheduleScratch(s, st, loads, b, sc)
	}

	// Feasibility partial order: on one tile, loads must be issued in
	// execution order (the engine rejects anything else).
	sorted := append([]graph.SubtaskID(nil), loads...)
	s.SortByIdealStart(sorted)
	prevOnTile := make(map[graph.SubtaskID]graph.SubtaskID)
	inSet := make(map[graph.SubtaskID]bool, len(sorted))
	for _, id := range sorted {
		inSet[id] = true
	}
	for _, tileOrder := range s.TileOrder {
		var prev graph.SubtaskID = -1
		for _, id := range tileOrder {
			if !inSet[id] {
				continue
			}
			if prev >= 0 {
				prevOnTile[id] = prev
			}
			prev = id
		}
	}

	// The relaxation with every load free is a global lower bound; when
	// the incumbent reaches it, the search is over before it starts —
	// the common case inside the CS-selection loop, where the stored
	// schedule hides everything.
	ideal, err := st.Ideal(b.ExecFloor, b.TileFree)
	if err != nil {
		return nil, err
	}

	// Seed the incumbent with the list heuristic.
	incumbent, err := List{}.ScheduleScratch(s, st, loads, b, sc)
	if err != nil {
		return nil, err
	}
	bestMakespan := incumbent.Makespan
	bestOrder := append([]graph.SubtaskID(nil), incumbent.PortOrder...)

	nodes := 0

	placed := make([]graph.SubtaskID, 0, len(sorted))
	used := make(map[graph.SubtaskID]bool, len(sorted))

	// Port-pairing bound: loads serialize on the controller, so the
	// j-th load still to issue cannot end before portFloor plus j
	// load latencies, and the makespan is at least that load's end
	// plus the remaining path weight of its subtask. Pairing the
	// largest weights with the earliest slots minimizes the maximum,
	// so that pairing is a valid lower bound for every completion.
	portFloor0 := b.LoadFloor
	if b.PortFree != nil {
		for _, t := range b.PortFree {
			portFloor0 = model.MaxT(portFloor0, t)
		}
	}
	start := b.ExecFloor
	weightOrder := append([]graph.SubtaskID(nil), sorted...)
	sort.SliceStable(weightOrder, func(a, c int) bool {
		return s.Weights[weightOrder[a]] > s.Weights[weightOrder[c]]
	})
	lats := make([]model.Dur, 0, len(sorted))
	pairingBound := func() model.Dur {
		portFloor := portFloor0
		for _, id := range placed {
			portFloor = portFloor.Add(st.Latency(id))
		}
		// Slot ends: prefix sums of the unplaced latencies in
		// ascending order (the earliest the j-th remaining load can
		// possibly finish).
		lats = lats[:0]
		for _, id := range sorted {
			if !used[id] {
				lats = append(lats, st.Latency(id))
			}
		}
		slices.Sort(lats)
		var best model.Dur
		slot := 0
		end := portFloor
		for _, id := range weightOrder {
			if used[id] {
				continue
			}
			end = end.Add(lats[slot])
			slot++
			if m := end.Add(s.Weights[id]).Sub(start); m > best {
				best = m
			}
		}
		return best
	}

	// lowerBound relaxes the problem: loads not yet placed are free.
	var node Result
	lowerBound := func() (model.Dur, bool) {
		if err := sc.evaluateInto(&node, st, placed, b, false, ideal); err != nil {
			return 0, false
		}
		return node.Makespan, true
	}

	var dfs func()
	dfs = func() {
		if bestMakespan <= ideal {
			return // already provably optimal
		}
		nodes++
		if nodes > maxNodes {
			return
		}
		if len(placed) == len(sorted) {
			err := sc.evaluateInto(&node, st, placed, b, false, ideal)
			if err == nil && node.Makespan < bestMakespan {
				bestMakespan = node.Makespan
				bestOrder = append(bestOrder[:0], placed...)
			}
			return
		}
		if pairingBound() >= bestMakespan {
			return
		}
		if lb, ok := lowerBound(); !ok || lb >= bestMakespan {
			return
		}
		// Candidates: unplaced loads whose same-tile predecessor load
		// (if any) is already placed. Expand in ideal-start order so
		// good solutions are found early.
		for _, id := range sorted {
			if used[id] {
				continue
			}
			if prev, ok := prevOnTile[id]; ok && !used[prev] {
				continue
			}
			used[id] = true
			placed = append(placed, id)
			dfs()
			placed = placed[:len(placed)-1]
			used[id] = false
		}
	}
	dfs()

	if err := sc.evaluateInto(&sc.res, st, bestOrder, b, false, ideal); err != nil {
		return nil, fmt.Errorf("prefetch: re-evaluating best order: %w", err)
	}
	return &sc.res, nil
}
