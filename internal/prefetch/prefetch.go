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
// Every entry point takes the instance's bounds as a schedule.Instance:
// OnDemand evaluates it on demand, List and BranchBound with prefetch,
// and Evaluate as its OnDemand field says.
//
// A Memo (memo.go) replays run-time decisions instead of recomputing
// them, the host-side form of the paper's design-time/run-time split.
// Its key is the scheduler, the static part, the load list and the
// instance's floors relative to ExecFloor, with tile and port
// availabilities clamped at min(LoadFloor, ExecFloor) and processors
// that run nothing left out. Evaluation is integer max-plus, hence
// shift-invariant, and no node starts before the clamp, so a decision
// stored relative to its ExecFloor is exactly the decision of every
// instance with the same key once shifted by that instance's ExecFloor.
// The simulator keeps one Memo per run-time scratch, for the
// no-prefetch, design-time-prefetch and run-time approaches; it holds
// its static parts, so it never outlives the run that prepared them.
package prefetch

import (
	"cmp"
	"fmt"
	"slices"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/schedule"
)

// Bounds is schedule.Instance under its old name.
//
// Deprecated: use schedule.Instance.
type Bounds = schedule.Instance

// Result is a prefetch schedule together with its evaluated timeline.
type Result struct {
	// PortOrder is the load order. It may alias the scratch or a Memo's
	// table, so it is read-only.
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
	// static constraint part on the platform is st, in the instance inst
	// (the scheduler sets its OnDemand). The loads slice is not modified.
	// The Result and its Timeline are owned by sc until its next use.
	ScheduleScratch(s *assign.Schedule, st *schedule.Static, loads []graph.SubtaskID, inst schedule.Instance, sc *Scratch) (*Result, error)
}

// Schedule is the allocating form of sched.ScheduleScratch: it builds
// s's static part on p and runs sched on a fresh Scratch.
func Schedule(sched Scheduler, s *assign.Schedule, p platform.Platform, loads []graph.SubtaskID, inst schedule.Instance) (*Result, error) {
	return fresh(s, p, func(st *schedule.Static, sc *Scratch) (*Result, error) {
		return sched.ScheduleScratch(s, st, loads, inst, sc)
	})
}

// Evaluate computes the timeline and overhead for a given load order
// for the instance inst, under on-demand semantics when inst.OnDemand
// is set: the allocating form of EvaluateScratch.
func Evaluate(s *assign.Schedule, p platform.Platform, order []graph.SubtaskID, inst schedule.Instance) (*Result, error) {
	return fresh(s, p, func(st *schedule.Static, sc *Scratch) (*Result, error) {
		return EvaluateScratch(st, order, inst, sc)
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
func (o OnDemand) Schedule(s *assign.Schedule, p platform.Platform, loads []graph.SubtaskID, inst schedule.Instance) (*Result, error) {
	return Schedule(o, s, p, loads, inst)
}

// FixedOrder issues the loads in the order given, each as early as the
// port and its tile allow: the evaluation of a load order decided
// elsewhere, such as the design-time prefetch order, as a Scheduler so
// a Memo can replay it.
type FixedOrder struct{}

// Name implements Scheduler.
func (FixedOrder) Name() string { return "fixed-order" }

// ScheduleScratch implements Scheduler: EvaluateScratch of loads, with
// prefetch.
func (FixedOrder) ScheduleScratch(_ *assign.Schedule, st *schedule.Static, loads []graph.SubtaskID, inst schedule.Instance, sc *Scratch) (*Result, error) {
	inst.OnDemand = false
	return EvaluateScratch(st, loads, inst, sc)
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
func (l List) Schedule(s *assign.Schedule, p platform.Platform, loads []graph.SubtaskID, inst schedule.Instance) (*Result, error) {
	return Schedule(l, s, p, loads, inst)
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
func (bb BranchBound) Schedule(s *assign.Schedule, p platform.Platform, loads []graph.SubtaskID, inst schedule.Instance) (*Result, error) {
	return Schedule(bb, s, p, loads, inst)
}

// ScheduleScratch implements Scheduler. The incumbent, every search node
// and the final evaluation run on sc, and the search keeps its state in
// sc's id-indexed buffers; the returned Result and its Timeline are
// owned by sc.
func (bb BranchBound) ScheduleScratch(s *assign.Schedule, st *schedule.Static, loads []graph.SubtaskID, inst schedule.Instance, sc *Scratch) (*Result, error) {
	maxLoads := bb.MaxLoads
	if maxLoads == 0 {
		maxLoads = 12
	}
	if len(loads) > maxLoads {
		return List{}.ScheduleScratch(s, st, loads, inst, sc)
	}
	inst.OnDemand = false

	bs := &sc.bb
	bs.grow(s.G.Len())
	// Feasibility partial order: on one tile, loads must be issued in
	// execution order (the engine rejects anything else).
	sorted := append(bs.sorted[:0], loads...)
	bs.sorted = sorted
	s.SortByIdealStart(sorted)
	for _, id := range sorted {
		bs.inSet[id] = true
	}
	for _, tileOrder := range s.TileOrder {
		var prev graph.SubtaskID = -1
		for _, id := range tileOrder {
			if !bs.inSet[id] {
				continue
			}
			bs.prevOnTile[id] = prev
			prev = id
		}
	}

	// The relaxation with every load free is a global lower bound; when
	// the incumbent reaches it, the search is over before it starts —
	// the common case inside the CS-selection loop, where the stored
	// schedule hides everything.
	ideal, err := st.Ideal(inst.ExecFloor, inst.TileFree)
	if err != nil {
		return nil, err
	}

	// Seed the incumbent with the list heuristic.
	incumbent, err := List{}.ScheduleScratch(s, st, loads, inst, sc)
	if err != nil {
		return nil, err
	}

	// Port-pairing bound inputs: the earliest instant any controller
	// is free and the loads in descending weight order (stable, like
	// the ideal-start order it is taken from).
	portFloor0 := inst.LoadFloor
	if len(inst.PortFree) > 0 {
		portFloor0 = model.MaxT(portFloor0, slices.Min(inst.PortFree))
	}
	weightOrder := append(bs.weightOrder[:0], sorted...)
	bs.weightOrder = weightOrder
	slices.SortStableFunc(weightOrder, func(a, c graph.SubtaskID) int {
		return cmp.Compare(s.Weights[c], s.Weights[a])
	})

	search := bbSearch{
		bbScratch:    bs,
		s:            s,
		st:           st,
		inst:         inst,
		sc:           sc,
		ideal:        ideal,
		portFloor0:   portFloor0,
		bestMakespan: incumbent.Makespan,
	}
	bs.bestOrder = append(bs.bestOrder[:0], incumbent.PortOrder...)
	bs.placed = bs.placed[:0]
	search.dfs()

	if err := sc.evaluateInto(&sc.res, st, bs.bestOrder, inst, ideal); err != nil {
		return nil, fmt.Errorf("prefetch: re-evaluating best order: %w", err)
	}
	return &sc.res, nil
}

// bbScratch holds BranchBound's reusable buffers; the id-indexed ones
// cover every subtask of the schedule.
type bbScratch struct {
	sorted      []graph.SubtaskID // the loads in ideal-start order
	weightOrder []graph.SubtaskID // the loads in descending weight order
	placed      []graph.SubtaskID // the current search path
	bestOrder   []graph.SubtaskID // the best complete order so far
	lats        []model.Dur
	node        Result

	inSet      []bool            // per subtask: in the load set
	used       []bool            // per subtask: on the current path
	prevOnTile []graph.SubtaskID // per load: previous load on its tile, or -1
}

// grow sizes every buffer for a schedule of n subtasks, so one search
// never reallocates, and clears the per-subtask flags.
func (bs *bbScratch) grow(n int) {
	if cap(bs.inSet) < n {
		bs.inSet = make([]bool, n)
		bs.used = make([]bool, n)
		bs.prevOnTile = make([]graph.SubtaskID, n)
		bs.sorted = make([]graph.SubtaskID, 0, n)
		bs.weightOrder = make([]graph.SubtaskID, 0, n)
		bs.placed = make([]graph.SubtaskID, 0, n)
		bs.bestOrder = make([]graph.SubtaskID, 0, n)
		bs.lats = make([]model.Dur, 0, n)
	}
	bs.inSet, bs.used, bs.prevOnTile = bs.inSet[:n], bs.used[:n], bs.prevOnTile[:n]
	clear(bs.inSet)
	clear(bs.used)
}

// bbSearch is one BranchBound call's depth-first search.
type bbSearch struct {
	*bbScratch
	s    *assign.Schedule
	st   *schedule.Static
	inst schedule.Instance // with OnDemand false
	sc   *Scratch

	ideal        model.Dur
	portFloor0   model.Time
	bestMakespan model.Dur
	nodes        int
}

// pairingBound is the port-pairing bound. Loads share P controllers,
// so of the first j loads still to issue to finish, one controller ran
// at least ⌈j/P⌉: the j-th cannot end before portFloor plus the ⌈j/P⌉
// shortest remaining latencies. The makespan
// is at least each load's end plus the remaining path weight of its
// subtask; pairing the largest weights with the earliest slots
// minimizes the maximum, so that pairing is a valid lower bound for
// every completion. On one controller the placed loads run first, so
// portFloor starts after them; on several it is the earliest instant
// any controller is free.
func (x *bbSearch) pairingBound() model.Dur {
	ports := x.st.Ports()
	portFloor := x.portFloor0
	if ports == 1 {
		for _, id := range x.placed {
			portFloor = portFloor.Add(x.st.Latency(id))
		}
	}
	// Slot ends: prefix sums of the unplaced latencies in ascending
	// order, each reached by P slots (the earliest the j-th remaining
	// load can possibly finish).
	lats := x.lats[:0]
	for _, id := range x.sorted {
		if !x.used[id] {
			lats = append(lats, x.st.Latency(id))
		}
	}
	x.lats = lats
	slices.Sort(lats)
	var best model.Dur
	end := portFloor
	next, left := 0, 0 // the next latency to add; slots left before it
	for _, id := range x.weightOrder {
		if x.used[id] {
			continue
		}
		if left == 0 {
			end = end.Add(lats[next])
			next, left = next+1, ports
		}
		left--
		if m := end.Add(x.s.Weights[id]).Sub(x.inst.ExecFloor); m > best {
			best = m
		}
	}
	return best
}

// lowerBound relaxes the problem: loads not yet placed are free.
func (x *bbSearch) lowerBound() (model.Dur, bool) {
	if err := x.sc.evaluateInto(&x.node, x.st, x.placed, x.inst, x.ideal); err != nil {
		return 0, false
	}
	return x.node.Makespan, true
}

func (x *bbSearch) dfs() {
	if x.bestMakespan <= x.ideal {
		return // already provably optimal
	}
	x.nodes++
	if x.nodes > maxNodes {
		return
	}
	if len(x.placed) == len(x.sorted) {
		err := x.sc.evaluateInto(&x.node, x.st, x.placed, x.inst, x.ideal)
		if err == nil && x.node.Makespan < x.bestMakespan {
			x.bestMakespan = x.node.Makespan
			x.bestOrder = append(x.bestOrder[:0], x.placed...)
		}
		return
	}
	if x.pairingBound() >= x.bestMakespan {
		return
	}
	if lb, ok := x.lowerBound(); !ok || lb >= x.bestMakespan {
		return
	}
	// Candidates: unplaced loads whose same-tile predecessor load (if
	// any) is already placed. Expand in ideal-start order so good
	// solutions are found early.
	for _, id := range x.sorted {
		if x.used[id] {
			continue
		}
		if prev := x.prevOnTile[id]; prev >= 0 && !x.used[prev] {
			continue
		}
		x.used[id] = true
		x.placed = append(x.placed, id)
		x.dfs()
		x.placed = x.placed[:len(x.placed)-1]
		x.used[id] = false
	}
}
