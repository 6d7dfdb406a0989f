// Package core implements the paper's contribution: the hybrid
// design-time/run-time configuration-prefetch heuristic.
//
// # Design-time phase
//
// For every subtask schedule the TCM design-time scheduler can select,
// Analyze computes the minimal set of Critical Subtasks (CS): the
// subtasks whose reconfiguration latency the prefetch scheduler cannot
// hide. The selection loop is the paper's Figure 4: starting from an
// empty CS set, schedule all loads, find the subtasks whose loads delay
// execution, move the one with the greatest criticality weight into the
// CS set (assumed resident from then on), and repeat until the remaining
// loads are fully hidden. The artifact stored for run time contains the
// CS ordered by weight — the initialization-phase load order — and the
// optimal port order for every non-critical load.
//
// # Run-time phase
//
// When an instance of the task arrives, the only work left is O(N)
// bookkeeping, which is why the hybrid heuristic adds negligible
// run-time overhead:
//
//  1. the reuse module reports which configurations are resident;
//  2. critical subtasks that are not resident are loaded in the stored
//     order (the initialization phase) — the design-time schedule only
//     begins once they are in place;
//  3. loads of resident non-critical subtasks are cancelled, saving
//     reconfiguration energy without touching the timing (they were
//     hidden by construction);
//  4. the initialization phase is allowed to start as soon as the
//     reconfiguration circuitry goes idle, which may be while the
//     previous task still executes — the paper's inter-task
//     optimization.
//
// Steps 2 and 3 are the plan: PlanInto turns the residency of step 1
// into one load list, the non-resident critical subtasks then the
// surviving body loads, with the length of its initialization prefix.
// Step 4 and the timing are a prefetch scheduler, prefetch.Phased, which
// evaluates that list as given. Execute is the two together; the
// simulator runs the same two calls on its own reused buffers.
package core

import (
	"errors"
	"fmt"
	"sort"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/prefetch"
	"drhwsched/internal/schedule"
)

// Options tune the design-time analysis; the zero value is the
// paper's. The selection loop has no cap to set: it ends within n+1
// rounds on an n-subtask graph, and Analyze reports a loop that does
// not as an error.
type Options struct {
	// Scheduler computes the prefetch schedules inside the CS-selection
	// loop. Nil means BranchBound (optimal for small graphs, falling
	// back to the list heuristic for large ones), as in the paper.
	Scheduler prefetch.Scheduler
	// AddAllDelayed moves every delayed subtask into the CS set per
	// round instead of only the heaviest one. The CS set may end up
	// slightly larger than minimal, but the loop converges in a few
	// rounds — the practical choice for graphs with hundreds of
	// subtasks.
	AddAllDelayed bool
}

// Analysis is the stored design-time artifact for one (task, scenario,
// Pareto point) combination.
type Analysis struct {
	Sched *assign.Schedule
	P     platform.Platform

	// CS holds the critical subtasks ordered by descending weight: the
	// initialization-phase load order decided at design time.
	CS []graph.SubtaskID
	// BodyOrder is the design-time port order of the non-critical
	// loads. With the CS resident, these loads are fully hidden.
	BodyOrder []graph.SubtaskID
	// Iterations is how many rounds the selection loop ran.
	Iterations int

	isCS []bool
}

// IsCritical reports whether a subtask belongs to the CS set.
func (a *Analysis) IsCritical(id graph.SubtaskID) bool { return a.isCS[id] }

// Rehydrate rebuilds the derived critical-subtask index after an
// Analysis has been reconstructed from a serialized artifact (the
// exported fields are the canonical state; isCS is derived from CS).
// It validates that every CS member names a subtask of the schedule's
// graph, so a decoded artifact can never panic IsCritical.
func (a *Analysis) Rehydrate() error {
	if a.Sched == nil || a.Sched.G == nil {
		return errors.New("core: rehydrate: analysis has no schedule graph")
	}
	n := a.Sched.G.Len()
	isCS := make([]bool, n)
	for _, id := range a.CS {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("core: rehydrate: critical subtask %d out of range [0,%d)", id, n)
		}
		isCS[id] = true
	}
	a.isCS = isCS
	return nil
}

// CriticalFraction is the share of subtasks that are critical (the
// paper reports 62% for the 3D application).
func (a *Analysis) CriticalFraction() float64 {
	if a.Sched.G.Len() == 0 {
		return 0
	}
	return float64(len(a.CS)) / float64(a.Sched.G.Len())
}

// Analyze runs the design-time phase on an initial schedule.
func Analyze(s *assign.Schedule, p platform.Platform, opt Options) (*Analysis, error) {
	if s == nil {
		return nil, errors.New("core: nil schedule")
	}
	sched := opt.Scheduler
	if sched == nil {
		sched = prefetch.BranchBound{}
	}
	n := s.G.Len()

	a := &Analysis{Sched: s, P: p, isCS: make([]bool, n)}

	// Every round schedules the same schedule with a different load set:
	// one static part and one scratch serve them all.
	st, err := s.Static(p)
	if err != nil {
		return nil, fmt.Errorf("core: design-time prefetch: %w", err)
	}
	sc := new(prefetch.Scratch)
	var loads, delayed []graph.SubtaskID
	for iter := 0; ; iter++ {
		a.Iterations = iter
		// Every round but the last adds at least one CS member, so a
		// loop that runs n+1 rounds has stopped converging.
		if iter > n+1 {
			return nil, fmt.Errorf("core: CS selection did not converge on %q", s.G.Name)
		}
		loads = nonCriticalLoads(s, a.isCS, loads[:0])
		res, err := sched.ScheduleScratch(s, st, loads, schedule.Instance{}, sc)
		if err != nil {
			return nil, fmt.Errorf("core: design-time prefetch: %w", err)
		}
		// The penalty of the paper's Fig. 4 is the total delay that
		// loads still inflict: by the CS definition every remaining
		// load must be *totally hidden*, not merely off the critical
		// path. When no subtask is load-delayed the makespan equals
		// the ideal one and the stored schedule has zero overhead.
		delayed = delayedSubtasks(s, st, res, delayed[:0])
		if len(delayed) == 0 {
			a.BodyOrder = append([]graph.SubtaskID(nil), res.PortOrder...)
			break
		}
		if opt.AddAllDelayed {
			for _, id := range delayed {
				a.isCS[id] = true
			}
			continue
		}
		pick := delayed[0]
		for _, id := range delayed[1:] {
			if s.Weights[id] > s.Weights[pick] ||
				(s.Weights[id] == s.Weights[pick] && id < pick) {
				pick = id
			}
		}
		a.isCS[pick] = true
	}

	// Initialization order: weight descending, ID tie-break.
	for i := 0; i < n; i++ {
		if a.isCS[i] {
			a.CS = append(a.CS, graph.SubtaskID(i))
		}
	}
	sort.SliceStable(a.CS, func(x, y int) bool {
		cx, cy := a.CS[x], a.CS[y]
		if s.Weights[cx] != s.Weights[cy] {
			return s.Weights[cx] > s.Weights[cy]
		}
		return cx < cy
	})
	return a, nil
}

// nonCriticalLoads appends to loads the loads of every hardware subtask
// outside the CS set, in canonical issue order. ISP subtasks never load.
func nonCriticalLoads(s *assign.Schedule, isCS []bool, loads []graph.SubtaskID) []graph.SubtaskID {
	for i := 0; i < s.G.Len(); i++ {
		if !isCS[i] && !s.G.Subtask(graph.SubtaskID(i)).OnISP {
			loads = append(loads, graph.SubtaskID(i))
		}
	}
	s.SortByIdealStart(loads)
	return loads
}

// delayedSubtasks appends to out the loaded subtasks whose own
// reconfiguration is the binding constraint on their start: the
// execution begins exactly when the load ends and strictly later than
// every other constraint (predecessors, tile availability, floors)
// would require.
func delayedSubtasks(s *assign.Schedule, st *schedule.Static, res *prefetch.Result, out []graph.SubtaskID) []graph.SubtaskID {
	tl := res.Timeline
	for _, id := range res.PortOrder {
		if tl.ExecStart[id] != tl.LoadEnd[id] {
			continue
		}
		alt := tl.Start
		for _, p := range s.G.Preds(id) {
			alt = model.MaxT(alt, tl.ExecEnd[p])
		}
		if prev := st.Prev(id); prev >= 0 {
			alt = model.MaxT(alt, tl.ExecEnd[prev])
		}
		if tl.ExecStart[id] > alt {
			out = append(out, id)
		}
	}
	return out
}

// InstancePlan is the run-time phase's O(N) output for one task arrival.
type InstancePlan struct {
	// InitLoads are the critical subtasks that must be loaded before
	// the design-time schedule starts, in the stored weight order.
	InitLoads []graph.SubtaskID
	// BodyLoads are the non-critical loads that survive cancellation,
	// in the design-time port order.
	BodyLoads []graph.SubtaskID
	// Cancelled lists the non-critical loads removed because the
	// configuration is resident (an energy saving).
	Cancelled []graph.SubtaskID

	loads []graph.SubtaskID // InitLoads then BodyLoads, one array
}

// Loads is the instance's load list, InitLoads then BodyLoads: the list
// prefetch.Phased{Init: len(InitLoads)} evaluates. It shares the plan's
// arrays and is read-only.
func (p InstancePlan) Loads() []graph.SubtaskID { return p.loads }

// Plan applies the reuse information to the stored orders. resident
// is indexed by subtask ID and reports whether the subtask's
// configuration is already on its tile; nil means nothing is resident.
func (a *Analysis) Plan(resident []bool) InstancePlan {
	var p InstancePlan
	a.PlanInto(&p, resident)
	return p
}

// PlanInto is Plan writing into p, whose slices it resets and reuses:
// the critical subtasks that are not resident, then the body loads that
// are not, with the resident ones cancelled.
func (a *Analysis) PlanInto(p *InstancePlan, resident []bool) {
	loads := p.loads[:0]
	p.Cancelled = p.Cancelled[:0]
	for _, id := range a.CS {
		if resident == nil || !resident[id] {
			loads = append(loads, id)
		}
	}
	init := len(loads)
	for _, id := range a.BodyOrder {
		if resident != nil && resident[id] {
			p.Cancelled = append(p.Cancelled, id)
		} else {
			loads = append(loads, id)
		}
	}
	p.loads = loads
	p.InitLoads, p.BodyLoads = loads[:init:init], loads[init:]
}

// RunBounds is schedule.Instance under its old name.
//
// Deprecated: use schedule.Instance.
type RunBounds = schedule.Instance

// RunResult is the evaluated execution of one task arrival under the
// hybrid heuristic. Its Result is prefetch.Phased's evaluation of the
// plan: the Timeline holds the whole instance, the initialization loads
// on port 0 included, and Makespan counts from the instance's
// ExecFloor.
type RunResult struct {
	prefetch.Result
	Plan InstancePlan
	// InitEnd is when the initialization phase ends: its last load's
	// end, or prefetch.Phased.Start if it has no loads.
	InitEnd model.Time
}

// Execute evaluates one arrival with bounds inst: it plans the arrival
// from resident, the reuse module's residency vector indexed by subtask
// ID (nil: nothing resident), and evaluates the plan with
// prefetch.Phased — the initialization phase on the reconfiguration
// circuitry, then the design-time schedule with the cancelled loads
// removed. The initialization phase starts as soon as the circuitry is
// idle, which under the inter-task optimization (a LoadFloor before
// ExecFloor) may be while the previous task still executes.
func (a *Analysis) Execute(inst schedule.Instance, resident []bool) (*RunResult, error) {
	r := &RunResult{Plan: a.Plan(resident)}
	ph := prefetch.Phased{Init: len(r.Plan.InitLoads)}
	res, err := prefetch.Schedule(ph, a.Sched, a.P, r.Plan.Loads(), inst)
	if err != nil {
		return nil, fmt.Errorf("core: hybrid run: %w", err)
	}
	r.Result = *res
	r.InitEnd = ph.Start(inst)
	if n := len(r.Plan.InitLoads); n > 0 {
		r.InitEnd = res.Timeline.LoadEnd[r.Plan.InitLoads[n-1]]
	}
	return r, nil
}
