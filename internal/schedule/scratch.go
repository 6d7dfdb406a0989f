package schedule

import (
	"errors"
	"fmt"
	"math"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
)

// ErrCutoff is returned by a limited Reorder as soon as it proves the
// makespan would reach the limit. The timeline is then incomplete.
var ErrCutoff = errors.New("schedule: makespan cut-off reached")

// Scratch holds every buffer one evaluation needs, so a caller
// evaluating many inputs back to back (the simulator's per-iteration
// loop, the prefetch schedulers' candidate searches) performs no
// allocations after the first call. The Timeline returned by Reorder —
// including all of its slices — is owned by the Scratch and valid only
// until its next Bind or Reorder call.
//
// Evaluation is split in three. A Static (NewStatic) holds what a
// stored schedule fixes: the execution DAG and its validation. Bind
// adds one instance's load set and floors to it in O(n + loads).
// Reorder evaluates one port order, a permutation of the load set: the
// load nodes' constraints come from the Static's processor and graph
// lists plus the loaded flags, and the port order from per-load
// prev/next links, so no DAG is rebuilt per instance or per candidate.
// The package-level Compute is the one-shot form over a fresh Static
// and Scratch.
//
// A Scratch must not be shared between goroutines; the Static it is
// bound to may be. The zero value is ready to use.
type Scratch struct {
	st        *Static // the bound static part; nil until Bind succeeds
	loads     int
	onDemand  bool
	execFloor model.Time

	loaded []bool // per subtask: in the bound load set
	// Nodes are indexed 2·id+kind. floor is each node's earliest start;
	// indeg and ready (2n each) are the evaluation's in-degrees and
	// LIFO ready stack.
	floor        []model.Time
	indeg, ready []int
	// portPrev/portNext link each load to its port-order neighbours
	// (-1 at the ends). stamp[id] == mark marks id as seen by Reorder's
	// permutation check, so the check clears nothing per call.
	portPrev, portNext, stamp []int
	mark                      int
	ints                      []int // backs every []int above and LoadPort

	portFree0, portFree []model.Time // per port: before and during Reorder
	times               []model.Time // backs the above, floor and the timeline

	// tail[v] is a lower bound on End − start(v): the node's duration
	// plus the longest chain of successors under the bound load set. It
	// is filled by the first limited Reorder after Bind, so unlimited
	// evaluations never pay for it.
	tail      []model.Dur
	tailReady bool

	tl    Timeline
	sized bool // grow has sized the buffers at least once
}

// take returns the next k elements of *buf, capped so an append to one
// part never spills into the next, and advances *buf past them.
func take[T any](buf *[]T, k int) []T {
	s := (*buf)[:k:k]
	*buf = (*buf)[k:]
	return s
}

// grow sizes every buffer for n subtasks on ports controllers and
// clears the load flags. Buffers of one type share one allocation; when
// the sizes are those of the previous call, the buffers and the
// permutation stamps are kept as they are.
func (sc *Scratch) grow(n, ports int) {
	sc.tailReady = false
	if sc.sized && n == len(sc.loaded) && ports == len(sc.portFree) {
		for i := range sc.loaded {
			sc.loaded[i] = false
		}
		return
	}
	sc.sized = true
	n2 := 2 * n
	if need := 2*n2 + 4*n; cap(sc.ints) < need {
		sc.ints = make([]int, need)
	}
	ints := sc.ints[:cap(sc.ints)]
	sc.indeg, sc.ready = take(&ints, n2), take(&ints, n2)
	sc.portPrev, sc.portNext, sc.stamp = take(&ints, n), take(&ints, n), take(&ints, n)
	loadPort := take(&ints, n)
	for i := range sc.stamp {
		sc.stamp[i] = 0
	}
	sc.mark = 0

	if cap(sc.loaded) < n {
		sc.loaded = make([]bool, n)
	}
	sc.loaded = sc.loaded[:n]
	for i := range sc.loaded {
		sc.loaded[i] = false
	}

	if need := 6*n + 2*ports; cap(sc.times) < need {
		sc.times = make([]model.Time, need)
	}
	times := sc.times[:cap(sc.times)]
	loadStart, loadEnd := take(&times, n), take(&times, n)
	execStart, execEnd := take(&times, n), take(&times, n)
	sc.floor = take(&times, n2)
	sc.portFree0, sc.portFree = take(&times, ports), take(&times, ports)

	if cap(sc.tail) < n2 {
		sc.tail = make([]model.Dur, n2)
	}
	sc.tail = sc.tail[:n2]

	sc.tl = Timeline{
		LoadStart: loadStart,
		LoadEnd:   loadEnd,
		LoadPort:  loadPort,
		ExecStart: execStart,
		ExecEnd:   execEnd,
	}
}

// Bind readies the scratch to evaluate port orders of loads on st: it
// validates the load set and in against st and sets every node's
// floor, in O(n + loads + processors + ports). Reorder then evaluates
// permutations of loads. Bind keeps a reference to st, which must stay
// unchanged while the scratch uses it, but none to loads or in's
// slices.
func (sc *Scratch) Bind(st *Static, loads []graph.SubtaskID, in Instance) error {
	sc.st = nil
	n := st.n
	if in.TileFree != nil && len(in.TileFree) != st.procs {
		return fmt.Errorf("schedule: tileFree covers %d of %d processors", len(in.TileFree), st.procs)
	}
	if in.PortFree != nil && len(in.PortFree) != st.ports {
		return fmt.Errorf("schedule: portFree covers %d of %d ports", len(in.PortFree), st.ports)
	}
	sc.grow(n, st.ports)
	for _, id := range loads {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("schedule: port order lists unknown subtask %d", id)
		}
		if sc.loaded[id] {
			return fmt.Errorf("schedule: subtask %d loaded twice", id)
		}
		if st.onISP[id] {
			return fmt.Errorf("schedule: ISP subtask %d cannot be loaded", id)
		}
		sc.loaded[id] = true
	}
	sc.loads, sc.onDemand = len(loads), in.OnDemand
	sc.execFloor = in.ExecFloor

	// Per-node floors; the first subtask on a processor (and its load)
	// also waits for the processor to drain.
	for i := 0; i < n; i++ {
		sc.floor[2*i], sc.floor[2*i+1] = in.ExecFloor, in.LoadFloor
	}
	for r, id := range st.first {
		if id >= 0 {
			var free model.Time // nil TileFree: everything free at zero
			if in.TileFree != nil {
				free = in.TileFree[r]
			}
			sc.floor[2*id] = model.MaxT(sc.floor[2*id], free)
			sc.floor[2*id+1] = model.MaxT(sc.floor[2*id+1], free)
		}
	}
	for p := range sc.portFree0 {
		sc.portFree0[p] = in.LoadFloor
		if in.PortFree != nil {
			sc.portFree0[p] = model.MaxT(sc.portFree0[p], in.PortFree[p])
		}
	}
	sc.st = st
	return nil
}

// computeTails fills tail by walking the executions in reverse
// topological order: a node's tail is final once all its successors'
// are, and a load's only static successor is its own execution.
func (sc *Scratch) computeTails() {
	sc.tailReady = true
	st, loaded, tail := sc.st, sc.loaded, sc.tail
	for k := st.n - 1; k >= 0; k-- {
		i := st.topo[k]
		var t model.Dur
		for _, s := range st.g.Succs(graph.SubtaskID(i)) {
			t = max(t, tail[2*s])
			if sc.onDemand && loaded[s] {
				t = max(t, tail[2*s+1])
			}
		}
		if nx := st.next[i]; nx >= 0 {
			t = max(t, tail[2*nx])
			if loaded[nx] {
				t = max(t, tail[2*nx+1])
			}
		}
		tail[2*i] = st.exec[i] + t
		if loaded[i] {
			tail[2*i+1] = st.lat[i] + tail[2*i]
		}
	}
}

// checkOrder verifies in O(len(order)) that order is a permutation of
// the bound load set.
func (sc *Scratch) checkOrder(order []graph.SubtaskID) error {
	if sc.mark == math.MaxInt {
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.mark = 0
	}
	sc.mark++
	for _, id := range order {
		if id < 0 || int(id) >= sc.st.n {
			return fmt.Errorf("schedule: port order lists unknown subtask %d", id)
		}
		if sc.stamp[id] == sc.mark {
			return fmt.Errorf("schedule: subtask %d loaded twice", id)
		}
		sc.stamp[id] = sc.mark
		if !sc.loaded[id] {
			return fmt.Errorf("schedule: subtask %d is not in the bound load set", id)
		}
	}
	if len(order) != sc.loads {
		return fmt.Errorf("schedule: port order lists %d of %d loads", len(order), sc.loads)
	}
	return nil
}

// Reorder evaluates the bound instance under one port order, a
// permutation of its load set, and returns the timeline. Anything else
// is an error, as is a port order that makes the constraints cyclic.
//
// With limit > 0 the evaluation stops with ErrCutoff as soon as some
// node's start plus its tail reaches ExecFloor+limit: the makespan is
// then at least limit, so a caller keeping only orders below limit
// loses nothing.
func (sc *Scratch) Reorder(order []graph.SubtaskID, limit model.Dur) (*Timeline, error) {
	st := sc.st
	if st == nil {
		return nil, errors.New("schedule: Reorder without a prepared input")
	}
	if err := sc.checkOrder(order); err != nil {
		return nil, err
	}
	if st.cyclic {
		return nil, st.cycleErr()
	}
	if limit > 0 && !sc.tailReady {
		sc.computeTails()
	}
	n, loaded, onDemand := st.n, sc.loaded, sc.onDemand
	indeg := sc.indeg
	prev := -1
	for _, id := range order {
		sc.portPrev[id] = prev
		if prev >= 0 {
			sc.portNext[prev] = int(id)
		}
		prev = int(id)
	}
	if prev >= 0 {
		sc.portNext[prev] = -1
	}

	tl := &sc.tl
	tl.Start, tl.End = sc.execFloor, 0
	ready := sc.ready[:0]
	for i := 0; i < n; i++ {
		tl.LoadStart[i], tl.LoadEnd[i], tl.LoadPort[i] = NoEvent, NoEvent, -1
		in := st.execIn[i]
		if loaded[i] {
			in++
			lin := 0
			if st.prev[i] >= 0 {
				lin++
			}
			if onDemand {
				lin += len(st.g.Preds(graph.SubtaskID(i)))
			}
			if sc.portPrev[i] >= 0 {
				lin++
			}
			indeg[2*i+1] = lin
			if lin == 0 {
				ready = append(ready, 2*i+1)
			}
		}
		indeg[2*i] = in
		if in == 0 {
			ready = append(ready, 2*i)
		}
	}
	portFree := sc.portFree
	copy(portFree, sc.portFree0)
	cutAt := sc.execFloor.Add(limit)
	release := func(v int) {
		if indeg[v]--; indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	done := 0
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++

		id := v / 2
		start := sc.floor[v]
		if p := st.prev[id]; p >= 0 {
			// A tile runs its subtasks in order, and reconfiguring it
			// destroys the previous subtask's state.
			start = model.MaxT(start, tl.ExecEnd[p])
		}
		preds := st.g.Preds(graph.SubtaskID(id))
		var tail model.Dur
		if v%2 == kindExec {
			for _, p := range preds {
				start = model.MaxT(start, tl.ExecEnd[p])
			}
			if loaded[id] {
				start = model.MaxT(start, tl.LoadEnd[id])
			}
			end := start.Add(st.exec[id])
			tl.ExecStart[id], tl.ExecEnd[id] = start, end
			tl.End = model.MaxT(tl.End, end)
			tail = sc.tail[v]
			for _, s := range st.g.Succs(graph.SubtaskID(id)) {
				release(2 * int(s))
				if onDemand && loaded[s] {
					release(2*int(s) + 1)
				}
			}
			if nx := st.next[id]; nx >= 0 {
				release(2 * nx)
				if loaded[nx] {
					release(2*nx + 1)
				}
			}
		} else {
			if onDemand {
				// The load request exists once every predecessor ran.
				for _, p := range preds {
					start = model.MaxT(start, tl.ExecEnd[p])
				}
			}
			if p := sc.portPrev[id]; p >= 0 {
				start = model.MaxT(start, tl.LoadStart[p])
			}
			// Pick the earliest-free controller; FIFO dispatch.
			best := 0
			for p := 1; p < len(portFree); p++ {
				if portFree[p] < portFree[best] {
					best = p
				}
			}
			start = model.MaxT(start, portFree[best])
			end := start.Add(st.lat[id])
			tl.LoadStart[id], tl.LoadEnd[id], tl.LoadPort[id] = start, end, best
			portFree[best] = end
			tail = sc.tail[v]
			release(2 * id)
			if nx := sc.portNext[id]; nx >= 0 {
				release(2*nx + 1)
			}
		}
		if limit > 0 && start.Add(tail) >= cutAt {
			return nil, ErrCutoff
		}
	}
	if done != n+sc.loads {
		return nil, st.cycleErr()
	}
	tl.End = model.MaxT(tl.End, sc.execFloor)
	tl.PortFreeAfter = portFree
	return tl, nil
}
