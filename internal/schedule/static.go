package schedule

import (
	"errors"
	"fmt"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
)

// Static is the part of the constraint system that a stored schedule
// fixes on a platform: the execution DAG (the graph's edges and the
// per-processor execution chains), every subtask's execution time and
// load latency, and the longest paths through that DAG. A task instance only adds its load set and floors,
// which Scratch.Bind sets in O(n + loads), so the DAG is built and
// validated once per stored schedule — the host-side counterpart of the
// paper's design-time/run-time split.
//
// A Static is read-only after NewStatic returns: any number of
// goroutines may bind scratches to it at once.
type Static struct {
	g            *graph.Graph // its Preds and Succs are the graph rows
	n            int
	procs, ports int

	onISP     []bool
	exec, lat []model.Dur // per subtask: execution time, load latency
	// prev and next are each subtask's neighbours in its processor's
	// execution order (-1 at the ends); first[r] is the first subtask
	// on processor r (-1 when r executes nothing).
	prev, next, first []int

	// execIn is each execution's static in-degree: its graph edges plus
	// its processor predecessor.
	execIn []int

	// topo is a topological order of the executions; cyclic reports
	// that none exists (the graph and the processor orders contradict
	// each other), which every evaluation then reports. work is
	// build's fill cursor and in-degree count.
	topo, work []int
	cyclic     bool
	// tail[i] is the longest path from subtask i's execution start to
	// the end of the last execution, with no loads: exec[i] plus the
	// longest chain of successors. span is the largest tail, the
	// makespan with no loads and no tile floors. Both are set only when
	// the DAG is acyclic.
	tail []model.Dur
	span model.Dur
}

// NewStatic validates the static fields of in — G, P, Assignment and
// TileOrder — and builds their constraint DAG. PortOrder is ignored:
// the load set belongs to an instance and is given to Scratch.Bind.
// NewStatic keeps in.G, whose edges are the DAG's graph rows, so the
// graph must not change afterwards; it keeps no reference to in's
// slices.
func NewStatic(in Input) (*Static, error) {
	st := new(Static)
	if err := st.build(&in); err != nil {
		return nil, err
	}
	return st, nil
}

// alloc sizes the buffers for n subtasks and procs processors. Buffers
// of one type share one allocation.
func (st *Static) alloc(n, procs int) {
	st.onISP = make([]bool, n)
	durs := make([]model.Dur, 3*n)
	st.exec, st.lat, st.tail = take(&durs, n), take(&durs, n), take(&durs, n)
	ints := make([]int, 5*n+procs)
	st.prev, st.next, st.execIn = take(&ints, n), take(&ints, n), take(&ints, n)
	st.topo, st.work = take(&ints, n), take(&ints, n)
	st.first = take(&ints, procs)
}

// build validates in's static fields and fills st from them.
func (st *Static) build(in *Input) error {
	if in.G == nil {
		return errors.New("schedule: nil graph")
	}
	if err := in.P.Validate(); err != nil {
		return err
	}
	n, procs := in.G.Len(), in.P.Processors()
	if len(in.Assignment) != n {
		return fmt.Errorf("schedule: assignment covers %d of %d subtasks", len(in.Assignment), n)
	}
	if len(in.TileOrder) > procs {
		return fmt.Errorf("schedule: %d processor orders for %d processors", len(in.TileOrder), procs)
	}
	st.alloc(n, procs)
	st.g, st.n, st.procs, st.ports = in.G, n, procs, in.P.Ports

	// Processor orders: each subtask exactly once, on its processor.
	for i := range st.prev {
		st.prev[i], st.next[i] = -2, -1 // -2: not seen yet
	}
	for r := range st.first {
		st.first[r] = -1
	}
	for r, order := range in.TileOrder {
		last := -1
		for _, id := range order {
			if id < 0 || int(id) >= n {
				return fmt.Errorf("schedule: tile %d lists unknown subtask %d", r, id)
			}
			if st.prev[id] != -2 {
				return fmt.Errorf("schedule: subtask %d appears on two tiles", id)
			}
			if in.Assignment[id] != r {
				return fmt.Errorf("schedule: subtask %d ordered on tile %d but assigned to %d", id, r, in.Assignment[id])
			}
			st.prev[id] = last
			if last >= 0 {
				st.next[last] = int(id)
			} else {
				st.first[r] = int(id)
			}
			last = int(id)
		}
	}
	for i, p := range st.prev {
		if p == -2 {
			return fmt.Errorf("schedule: subtask %d missing from tile orders", i)
		}
	}
	for i := 0; i < n; i++ {
		a := in.Assignment[i]
		if a < 0 || a >= procs {
			return fmt.Errorf("schedule: subtask %d assigned to processor %d of %d", i, a, procs)
		}
		s := in.G.Subtask(graph.SubtaskID(i))
		if s.OnISP && !in.P.IsISP(a) {
			return fmt.Errorf("schedule: ISP subtask %d assigned to tile %d", i, a)
		}
		if !s.OnISP && in.P.IsISP(a) {
			return fmt.Errorf("schedule: hardware subtask %d assigned to ISP %d", i, a)
		}
		st.onISP[i] = s.OnISP
		st.exec[i] = s.Exec
		st.lat[i] = 0
		if !s.OnISP {
			st.lat[i] = in.P.LoadLatency(s.Load)
		}
		st.execIn[i] = len(in.G.Preds(graph.SubtaskID(i)))
		if st.prev[i] >= 0 {
			st.execIn[i]++
		}
	}
	st.order()
	return nil
}

// order fills topo by Kahn's algorithm over the execution DAG, then the
// no-load tails and span by walking it backwards.
func (st *Static) order() {
	indeg := st.work
	copy(indeg, st.execIn)
	topo := st.topo[:0]
	for i, d := range indeg {
		if d == 0 {
			topo = append(topo, i)
		}
	}
	release := func(s int) {
		if indeg[s]--; indeg[s] == 0 {
			topo = append(topo, s)
		}
	}
	for k := 0; k < len(topo); k++ {
		i := topo[k]
		for _, s := range st.g.Succs(graph.SubtaskID(i)) {
			release(int(s))
		}
		if nx := st.next[i]; nx >= 0 {
			release(nx)
		}
	}
	st.cyclic = len(topo) != st.n
	if st.cyclic {
		return // every evaluation reports the cycle; no tail is read
	}
	st.span = 0
	for k := st.n - 1; k >= 0; k-- {
		i := topo[k]
		var t model.Dur
		for _, s := range st.g.Succs(graph.SubtaskID(i)) {
			t = max(t, st.tail[s])
		}
		if nx := st.next[i]; nx >= 0 {
			t = max(t, st.tail[nx])
		}
		st.tail[i] = st.exec[i] + t
		st.span = max(st.span, st.tail[i])
	}
}

// Ideal is the makespan (End − execFloor) of the schedule with no
// loads: the zero-overhead reference of an instance starting at
// execFloor on processors that drain at tileFree (nil: all at zero).
// It is exactly what evaluating the empty load set would give, in
// O(processors):
//
//	Ideal = max(span, max_r(tileFree[r] − execFloor + tail(first_r)))
//
// Without loads, End is the max-plus evaluation max_v(floor(v) +
// tail(v)) over the executions. Every floor is execFloor except the
// first execution on each processor, whose floor also includes
// tileFree; integer max-plus evaluation is shift-invariant, so the
// uniform floor contributes execFloor + span and each processor's
// first execution its own term. As in the evaluation, End is never
// below zero.
func (st *Static) Ideal(execFloor model.Time, tileFree []model.Time) (model.Dur, error) {
	if tileFree != nil && len(tileFree) != st.procs {
		return 0, fmt.Errorf("schedule: tileFree covers %d of %d processors", len(tileFree), st.procs)
	}
	if st.cyclic {
		return 0, st.cycleErr()
	}
	span := st.span
	for r, id := range st.first {
		if id >= 0 {
			var free model.Time // nil tileFree: everything free at zero
			if tileFree != nil {
				free = tileFree[r]
			}
			span = max(span, free.Sub(execFloor)+st.tail[id])
		}
	}
	return model.MaxT(0, execFloor.Add(span)).Sub(execFloor), nil
}

// Prev is the subtask that executes on id's processor just before id,
// or -1 when id runs first there.
func (st *Static) Prev(id graph.SubtaskID) graph.SubtaskID { return graph.SubtaskID(st.prev[id]) }

// Latency is the time it takes to load id's configuration (zero for an
// ISP subtask).
func (st *Static) Latency(id graph.SubtaskID) model.Dur { return st.lat[id] }

// Ports is the number of reconfiguration controllers loads share.
func (st *Static) Ports() int { return st.ports }

func (st *Static) cycleErr() error {
	return fmt.Errorf("schedule: inconsistent decision orders (constraint cycle) in %q", st.g.Name)
}
