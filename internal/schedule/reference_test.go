package schedule

// The CSR evaluation that Static, Bind and Reorder replaced, kept as the
// reference the property tests below pin them to: Prepare validates one
// Input and builds its whole constraint DAG (load nodes included) in
// compressed-row form, per instance, and Reorder walks it.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// refScratch is the reference evaluator: Prepare builds the static
// constraint DAG (graph edges, on-demand edges, load→exec edges and
// tile chains) of one input, load set included; Reorder evaluates one
// port order on it. The zero value is ready to use.
type refScratch struct {
	// The prepared input. DAG nodes are indexed 2·id+kind; total counts
	// the n exec nodes plus one load node per loaded subtask.
	prepared        bool
	n, loads, total int
	name            string
	execFloor       model.Time

	// The static constraint DAG in compressed-row form: the nodes whose
	// ends constrain node v's start are cons[consAt[v]:consAt[v+1]] and
	// its successors out[outAt[v]:outAt[v+1]]. Every static constraint
	// runs from an end; the port order's start-to-start links are kept
	// in portPrev/portNext instead.
	cons, out     []int // in ints
	consAt, outAt []int // 2n+1 each
	// indeg and ready (2n each) are the evaluation's in-degrees and
	// LIFO ready stack; Prepare uses them as fill cursors and the tail
	// computation as its out-degrees and stack.
	indeg, ready []int
	// portPrev/portNext link each load to its port-order neighbours
	// (-1 at the ends). stamp[id] == mark marks id as seen by Reorder's
	// permutation check, so the check clears nothing per call.
	portPrev, portNext, stamp []int
	mark                      int
	ints                      []int // backs every []int above and LoadPort

	seen, inPort []bool // checkInput's flags; inPort is then the load set
	flags        []bool

	fin, floor          []model.Time // per node: end, earliest start
	portFree0, portFree []model.Time // per port: before and during Reorder
	times               []model.Time // backs the above and the timeline

	// dur is each node's exec time or load latency. tail[v] is dur[v]
	// plus the longest chain of static successors: a lower bound on
	// End − start(v). It is filled by the first limited Reorder after
	// Prepare, so unlimited evaluations never pay for it.
	dur, tail []model.Dur
	tailReady bool
	durs      []model.Dur

	tl Timeline
}

// grow sizes every buffer for n subtasks with edges graph edges on ports
// controllers, clearing checkInput's flags and the permutation stamps.
// Buffers of one type share one allocation; the constraint rows get
// room for every load set and semantics on the same graph, so a
// decision's ideal reference and candidates share them.
func (sc *refScratch) grow(n, edges, ports int) {
	n2 := 2 * n
	maxCons := 2*edges + 3*n // graph and on-demand edges, load→exec, two tile chains
	if need := 2*(n2+1) + 2*n2 + 4*n + 2*maxCons; cap(sc.ints) < need {
		sc.ints = make([]int, need)
	}
	ints := sc.ints[:cap(sc.ints)]
	sc.consAt, sc.outAt = take(&ints, n2+1), take(&ints, n2+1)
	sc.indeg, sc.ready = take(&ints, n2), take(&ints, n2)
	sc.portPrev, sc.portNext, sc.stamp = take(&ints, n), take(&ints, n), take(&ints, n)
	loadPort := take(&ints, n)
	sc.cons, sc.out = take(&ints, maxCons)[:0], take(&ints, maxCons)[:0]
	for i := range sc.stamp {
		sc.stamp[i] = 0
	}
	sc.mark = 0

	if cap(sc.flags) < n2 {
		sc.flags = make([]bool, n2)
	}
	flags := sc.flags[:n2]
	for i := range flags {
		flags[i] = false
	}
	sc.seen, sc.inPort = take(&flags, n), take(&flags, n)

	if need := 8*n + 2*ports; cap(sc.times) < need {
		sc.times = make([]model.Time, need)
	}
	times := sc.times[:cap(sc.times)]
	loadStart, loadEnd := take(&times, n), take(&times, n)
	execStart, execEnd := take(&times, n), take(&times, n)
	sc.fin, sc.floor = take(&times, n2), take(&times, n2)
	sc.portFree0, sc.portFree = take(&times, ports), take(&times, ports)

	if cap(sc.durs) < 2*n2 {
		sc.durs = make([]model.Dur, 2*n2)
	}
	durs := sc.durs[:cap(sc.durs)]
	sc.dur, sc.tail = take(&durs, n2), take(&durs, n2)
	sc.tailReady = false

	sc.tl = Timeline{
		LoadStart: loadStart,
		LoadEnd:   loadEnd,
		LoadPort:  loadPort,
		ExecStart: execStart,
		ExecEnd:   execEnd,
	}
}

// Compute is Prepare, then Reorder of in.PortOrder without a limit.
func (sc *refScratch) Compute(in Input, inst Instance) (*Timeline, error) {
	if err := sc.Prepare(in, inst); err != nil {
		return nil, err
	}
	return sc.Reorder(in.PortOrder, 0)
}

// Prepare validates in and inst and builds the part of the evaluation
// that does not depend on the port order. Subsequent Reorder calls
// evaluate port orders over in's load set (the subtasks its PortOrder
// lists). Prepare keeps no reference to in's or inst's slices, so the
// caller may reuse them.
func (sc *refScratch) Prepare(in Input, inst Instance) error {
	sc.prepared = false
	if in.G == nil {
		return errors.New("schedule: nil graph")
	}
	if err := in.P.Validate(); err != nil {
		return err
	}
	n := in.G.Len()
	sc.grow(n, len(in.G.Edges()), in.P.Ports)
	if err := refCheckInput(&in, &inst, sc.seen, sc.inPort); err != nil {
		return err
	}
	sc.n, sc.name = n, in.G.Name
	sc.execFloor = inst.ExecFloor

	// Count every node's constraints and successors, turn the counts
	// into row offsets, then fill the rows.
	for v := range sc.consAt {
		sc.consAt[v], sc.outAt[v] = 0, 0
	}
	sc.staticEdges(&in, inst.OnDemand, false)
	for v := 1; v <= 2*n; v++ {
		sc.consAt[v] += sc.consAt[v-1]
		sc.outAt[v] += sc.outAt[v-1]
	}
	m := sc.consAt[2*n]
	sc.cons, sc.out = sc.cons[:m], sc.out[:m]
	copy(sc.indeg, sc.consAt)
	copy(sc.ready, sc.outAt)
	sc.staticEdges(&in, inst.OnDemand, true)

	// Per-node floors and durations; the first subtask on a processor
	// (and its load) also waits for the processor to drain.
	sc.loads = 0
	for i := 0; i < n; i++ {
		st := in.G.Subtask(graph.SubtaskID(i))
		sc.floor[2*i], sc.floor[2*i+1] = inst.ExecFloor, inst.LoadFloor
		sc.dur[2*i] = st.Exec
		sc.dur[2*i+1] = 0
		if sc.inPort[i] {
			sc.dur[2*i+1] = in.P.LoadLatency(st.Load)
			sc.loads++
		}
	}
	sc.total = n + sc.loads
	for t, order := range in.TileOrder {
		if len(order) > 0 {
			var free model.Time // nil TileFree: everything free at zero
			if inst.TileFree != nil {
				free = inst.TileFree[t]
			}
			id := order[0]
			sc.floor[2*id] = model.MaxT(sc.floor[2*id], free)
			sc.floor[2*id+1] = model.MaxT(sc.floor[2*id+1], free)
		}
	}
	for p := range sc.portFree0 {
		sc.portFree0[p] = inst.LoadFloor
		if inst.PortFree != nil {
			sc.portFree0[p] = model.MaxT(sc.portFree0[p], inst.PortFree[p])
		}
	}
	sc.prepared = true
	return nil
}

// staticEdges enumerates the port-order-independent constraints. With
// fill false it counts them into consAt[to+1] and outAt[from+1]; with
// fill true it writes them at the cursors indeg (constraints) and ready
// (successors).
func (sc *refScratch) staticEdges(in *Input, onDemand, fill bool) {
	loaded := sc.inPort
	add := func(from, to int) {
		if !fill {
			sc.consAt[to+1]++
			sc.outAt[from+1]++
			return
		}
		sc.cons[sc.indeg[to]] = from
		sc.indeg[to]++
		sc.out[sc.ready[from]] = to
		sc.ready[from]++
	}
	// Precedence edges: exec(p) -> exec(i), plus exec(p) -> load(i)
	// under on-demand semantics.
	for _, e := range in.G.Edges() {
		add(2*int(e.From), 2*int(e.To))
		if onDemand && loaded[e.To] {
			add(2*int(e.From), 2*int(e.To)+1)
		}
	}
	// Load before execution.
	for i, l := range loaded {
		if l {
			add(2*i+1, 2*i)
		}
	}
	// Tile order: executions chain; a load waits for the previous
	// execution on its tile (reconfiguration destroys tile state).
	for _, order := range in.TileOrder {
		for k := 1; k < len(order); k++ {
			prev, cur := 2*int(order[k-1]), int(order[k])
			add(prev, 2*cur)
			if loaded[cur] {
				add(prev, 2*cur+1)
			}
		}
	}
}

// computeTails fills tail by a reverse topological walk of the static
// DAG: a node's tail is final once all its successors' are. A cyclic
// static DAG (which no port order can evaluate) gets zero tails.
func (sc *refScratch) computeTails() {
	sc.tailReady = true
	n2 := 2 * sc.n
	outdeg, stack := sc.indeg, sc.ready[:0]
	for v := 0; v < n2; v++ {
		sc.tail[v] = 0
		outdeg[v] = sc.outAt[v+1] - sc.outAt[v]
		if sc.exists(v) && outdeg[v] == 0 {
			stack = append(stack, v)
		}
	}
	walked := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		walked++
		sc.tail[v] += sc.dur[v]
		for _, from := range sc.cons[sc.consAt[v]:sc.consAt[v+1]] {
			sc.tail[from] = max(sc.tail[from], sc.tail[v])
			outdeg[from]--
			if outdeg[from] == 0 {
				stack = append(stack, from)
			}
		}
	}
	if walked != sc.total {
		for v := range sc.tail {
			sc.tail[v] = 0
		}
	}
}

// exists reports whether node v is in the prepared DAG.
func (sc *refScratch) exists(v int) bool { return v%2 == kindExec || sc.inPort[v/2] }

// checkOrder verifies in O(len(order)) that order is a permutation of
// the prepared load set.
func (sc *refScratch) checkOrder(order []graph.SubtaskID) error {
	if sc.mark == math.MaxInt {
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.mark = 0
	}
	sc.mark++
	for _, id := range order {
		if id < 0 || int(id) >= sc.n {
			return fmt.Errorf("schedule: port order lists unknown subtask %d", id)
		}
		if sc.stamp[id] == sc.mark {
			return fmt.Errorf("schedule: subtask %d loaded twice", id)
		}
		sc.stamp[id] = sc.mark
		if !sc.inPort[id] {
			return fmt.Errorf("schedule: subtask %d is not in the bound load set", id)
		}
	}
	if len(order) != sc.loads {
		return fmt.Errorf("schedule: port order lists %d of %d loads", len(order), sc.loads)
	}
	return nil
}

// Reorder evaluates the prepared input under one port order, a
// permutation of its load set, and returns the timeline. Anything else
// is an error, as is a port order that makes the constraints cyclic.
//
// With limit > 0 the evaluation stops with ErrCutoff as soon as some
// node's start plus its tail reaches ExecFloor+limit: the makespan is
// then at least limit, so a caller keeping only orders below limit
// loses nothing.
func (sc *refScratch) Reorder(order []graph.SubtaskID, limit model.Dur) (*Timeline, error) {
	if !sc.prepared {
		return nil, errors.New("schedule: Reorder without a prepared input")
	}
	if err := sc.checkOrder(order); err != nil {
		return nil, err
	}
	if limit > 0 && !sc.tailReady {
		sc.computeTails()
	}
	n := sc.n
	indeg := sc.indeg[:2*n]
	for v := range indeg {
		indeg[v] = sc.consAt[v+1] - sc.consAt[v]
	}
	prev := -1
	for _, id := range order {
		sc.portPrev[id] = prev
		if prev >= 0 {
			sc.portNext[prev] = int(id)
			indeg[2*int(id)+1]++
		}
		prev = int(id)
	}
	if prev >= 0 {
		sc.portNext[prev] = -1
	}

	tl := &sc.tl
	tl.Start, tl.End = sc.execFloor, 0
	for i := 0; i < n; i++ {
		tl.LoadStart[i], tl.LoadEnd[i], tl.LoadPort[i] = NoEvent, NoEvent, -1
	}
	portFree := sc.portFree
	copy(portFree, sc.portFree0)
	cutAt := sc.execFloor.Add(limit)

	ready := sc.ready[:0]
	for v := range indeg {
		if indeg[v] == 0 && sc.exists(v) {
			ready = append(ready, v)
		}
	}
	done := 0
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++

		start := sc.floor[v]
		for _, from := range sc.cons[sc.consAt[v]:sc.consAt[v+1]] {
			start = model.MaxT(start, sc.fin[from])
		}
		id := v / 2
		if v%2 == kindExec {
			end := start.Add(sc.dur[v])
			tl.ExecStart[id], tl.ExecEnd[id] = start, end
			tl.End = model.MaxT(tl.End, end)
			sc.fin[v] = end
		} else {
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
			end := start.Add(sc.dur[v])
			tl.LoadStart[id], tl.LoadEnd[id], tl.LoadPort[id] = start, end, best
			portFree[best] = end
			sc.fin[v] = end
			if nx := sc.portNext[id]; nx >= 0 {
				if indeg[2*nx+1]--; indeg[2*nx+1] == 0 {
					ready = append(ready, 2*nx+1)
				}
			}
		}
		if limit > 0 && start.Add(sc.tail[v]) >= cutAt {
			return nil, ErrCutoff
		}
		for _, s := range sc.out[sc.outAt[v]:sc.outAt[v+1]] {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if done != sc.total {
		return nil, fmt.Errorf("schedule: inconsistent decision orders (constraint cycle) in %q", sc.name)
	}
	tl.End = model.MaxT(tl.End, sc.execFloor)
	tl.PortFreeAfter = portFree
	return tl, nil
}

// refCheckInput validates structural properties of the decision set. seen
// and inPort are caller-owned all-false buffers of length G.Len().
func refCheckInput(in *Input, inst *Instance, seen, inPort []bool) error {
	n := in.G.Len()
	if len(in.Assignment) != n {
		return fmt.Errorf("schedule: assignment covers %d of %d subtasks", len(in.Assignment), n)
	}
	if len(in.TileOrder) > in.P.Processors() {
		return fmt.Errorf("schedule: %d processor orders for %d processors", len(in.TileOrder), in.P.Processors())
	}
	if inst.TileFree != nil && len(inst.TileFree) != in.P.Processors() {
		return fmt.Errorf("schedule: tileFree covers %d of %d processors", len(inst.TileFree), in.P.Processors())
	}
	if inst.PortFree != nil && len(inst.PortFree) != in.P.Ports {
		return fmt.Errorf("schedule: portFree covers %d of %d ports", len(inst.PortFree), in.P.Ports)
	}
	for t, order := range in.TileOrder {
		for _, id := range order {
			if id < 0 || int(id) >= n {
				return fmt.Errorf("schedule: tile %d lists unknown subtask %d", t, id)
			}
			if seen[id] {
				return fmt.Errorf("schedule: subtask %d appears on two tiles", id)
			}
			seen[id] = true
			if in.Assignment[id] != t {
				return fmt.Errorf("schedule: subtask %d ordered on tile %d but assigned to %d", id, t, in.Assignment[id])
			}
		}
	}
	for i := range seen {
		if !seen[i] {
			return fmt.Errorf("schedule: subtask %d missing from tile orders", i)
		}
	}
	for i := 0; i < n; i++ {
		a := in.Assignment[i]
		if a < 0 || a >= in.P.Processors() {
			return fmt.Errorf("schedule: subtask %d assigned to processor %d of %d", i, a, in.P.Processors())
		}
		onISP := in.G.Subtask(graph.SubtaskID(i)).OnISP
		if onISP && !in.P.IsISP(a) {
			return fmt.Errorf("schedule: ISP subtask %d assigned to tile %d", i, a)
		}
		if !onISP && in.P.IsISP(a) {
			return fmt.Errorf("schedule: hardware subtask %d assigned to ISP %d", i, a)
		}
	}
	for _, id := range in.PortOrder {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("schedule: port order lists unknown subtask %d", id)
		}
		if inPort[id] {
			return fmt.Errorf("schedule: subtask %d loaded twice", id)
		}
		if in.G.Subtask(id).OnISP {
			return fmt.Errorf("schedule: ISP subtask %d cannot be loaded", id)
		}
		inPort[id] = true
	}
	return nil
}

// varyInstance redraws the instance part of a random decision: a random
// subset of its loads, an execution floor that is sometimes zero, and
// per-processor drain times on both sides of the execution floor.
func varyInstance(rng *rand.Rand, in *Input, inst *Instance) {
	ms := func(k int) model.Dur { return model.Dur(k) * model.Millisecond }
	if rng.Intn(4) == 0 {
		inst.ExecFloor, inst.LoadFloor = 0, 0
	}
	var port []graph.SubtaskID
	for _, id := range in.PortOrder {
		if rng.Intn(10) < 7 {
			port = append(port, id)
		}
	}
	in.PortOrder = port
	if rng.Intn(4) > 0 {
		inst.TileFree = make([]model.Time, in.P.Processors())
		for r := range inst.TileFree {
			inst.TileFree[r] = model.MaxT(0, inst.ExecFloor.Add(ms(rng.Intn(40)-20)))
		}
	}
}

// noLoads is in with its load set emptied: the ideal reference.
func noLoads(in Input) Input {
	in.PortOrder = nil
	return in
}

// TestBindMatchesReference pins the static/bind evaluation to refScratch,
// which builds the whole constraint DAG per input: random graphs, load
// sets and orders (infeasible ones included), both semantics, 1–3 ports,
// ISP rows, and processor drain times above and below the execution
// floor. Every successful evaluation must match the reference field by
// field and pass Verify; limited evaluations must cut off exactly when
// the full makespan reaches the limit; and Static.Ideal must equal the
// reference's no-load makespan.
func TestBindMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var sc Scratch
	var ref refScratch
	evaluated, cuts := 0, 0
	for trial := 0; trial < 600; trial++ {
		in, inst := randomDecision(rng)
		varyInstance(rng, &in, &inst)
		st, err := NewStatic(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		wantIdeal, werr := ref.Compute(noLoads(in), inst)
		ideal, err := st.Ideal(inst.ExecFloor, inst.TileFree)
		if (err == nil) != (werr == nil) {
			t.Fatalf("trial %d: ideal error %v, reference %v", trial, err, werr)
		}
		if err == nil && ideal != wantIdeal.Makespan() {
			t.Fatalf("trial %d: closed-form ideal %v, reference %v", trial, ideal, wantIdeal.Makespan())
		}

		if err := sc.Bind(st, in.PortOrder, inst); err != nil {
			t.Fatalf("trial %d: bind: %v", trial, err)
		}
		if err := ref.Prepare(in, inst); err != nil {
			t.Fatalf("trial %d: reference prepare: %v", trial, err)
		}
		order := append([]graph.SubtaskID(nil), in.PortOrder...)
		for k := 0; k < 4; k++ {
			if k > 0 {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			want, werr := ref.Reorder(order, 0)
			got, err := sc.Reorder(order, 0)
			if (err == nil) != (werr == nil) {
				t.Fatalf("trial %d order %v: error %v, reference %v", trial, order, err, werr)
			}
			if err != nil {
				if err.Error() != werr.Error() {
					t.Fatalf("trial %d order %v: error %q, reference %q", trial, order, err, werr)
				}
				continue
			}
			evaluated++
			if d := diffTimelines(got, want); d != "" {
				t.Fatalf("trial %d order %v: %s", trial, order, d)
			}
			if err := Verify(withOrder(in, order), inst, got); err != nil {
				t.Fatalf("trial %d order %v: %v", trial, order, err)
			}
			if len(order) == 0 && got.Makespan() != ideal {
				t.Fatalf("trial %d: empty load set makespan %v, closed-form ideal %v", trial, got.Makespan(), ideal)
			}

			makespan := got.Makespan()
			limit := makespan + model.Dur(rng.Intn(3)-1)
			if rng.Intn(3) == 0 {
				limit = model.Dur(1+rng.Intn(60)) * model.Millisecond
			}
			if limit <= 0 {
				continue
			}
			got, err = sc.Reorder(order, limit)
			if makespan >= limit {
				if !errors.Is(err, ErrCutoff) {
					t.Fatalf("trial %d order %v: makespan %v at limit %v not cut off (err %v)", trial, order, makespan, limit, err)
				}
				cuts++
				continue
			}
			if err != nil {
				t.Fatalf("trial %d order %v: limit %v above makespan %v: %v", trial, order, limit, makespan, err)
			}
			if want, _ := ref.Reorder(order, 0); diffTimelines(got, want) != "" {
				t.Fatalf("trial %d order %v limit %v: %s", trial, order, limit, diffTimelines(got, want))
			}
		}
	}
	if evaluated < 1000 || cuts == 0 {
		t.Fatalf("%d feasible evaluations, %d cut-offs: the generator misses the surface", evaluated, cuts)
	}
}

// TestInputErrorsMatchReference checks that each single fault of an
// input is reported with the reference's error text, whether it lands
// in NewStatic or Bind.
func TestInputErrorsMatchReference(t *testing.T) {
	g := graph.New("v")
	a := g.AddSubtask("a", 1)
	b := g.AddSubtask("b", 1)
	c := g.AddSubtask("c", 1)
	g.AddEdge(a, b)
	g.SetOnISP(c, true)
	base := func() Input {
		p := platform.Default(2)
		p.ISPs = 1
		return Input{
			G:          g,
			P:          p,
			Assignment: []int{0, 1, 2},
			TileOrder:  [][]graph.SubtaskID{{a}, {b}, {c}},
			PortOrder:  []graph.SubtaskID{a, b},
		}
	}
	cases := map[string]func(*Input, *Instance){
		"nil graph":            func(in *Input, _ *Instance) { in.G = nil },
		"bad platform":         func(in *Input, _ *Instance) { in.P.Tiles = 0 },
		"short assignment":     func(in *Input, _ *Instance) { in.Assignment = []int{0, 1} },
		"too many orders":      func(in *Input, _ *Instance) { in.TileOrder = append(in.TileOrder, nil) },
		"tile out of range":    func(in *Input, _ *Instance) { in.Assignment = []int{0, 7, 2} },
		"subtask twice":        func(in *Input, _ *Instance) { in.TileOrder = [][]graph.SubtaskID{{a, b}, {b}, {c}} },
		"subtask missing":      func(in *Input, _ *Instance) { in.TileOrder = [][]graph.SubtaskID{{a}, {}, {c}} },
		"unknown in order":     func(in *Input, _ *Instance) { in.TileOrder = [][]graph.SubtaskID{{a, 5}, {b}, {c}} },
		"wrong tile":           func(in *Input, _ *Instance) { in.TileOrder = [][]graph.SubtaskID{{b}, {a}, {c}} },
		"hardware on ISP":      func(in *Input, _ *Instance) { in.Assignment[b], in.TileOrder = 2, [][]graph.SubtaskID{{a}, {}, {c, b}} },
		"ISP on tile":          func(in *Input, _ *Instance) { in.Assignment[c], in.TileOrder = 1, [][]graph.SubtaskID{{a}, {b, c}, {}} },
		"ISP loaded":           func(in *Input, _ *Instance) { in.PortOrder = []graph.SubtaskID{a, b, c} },
		"duplicate load":       func(in *Input, _ *Instance) { in.PortOrder = []graph.SubtaskID{a, a} },
		"unknown load subtask": func(in *Input, _ *Instance) { in.PortOrder = []graph.SubtaskID{a, 9} },
		"bad tileFree len":     func(_ *Input, inst *Instance) { inst.TileFree = []model.Time{0} },
		"bad portFree len":     func(_ *Input, inst *Instance) { inst.PortFree = []model.Time{0, 0} },
		"cycle":                func(in *Input, _ *Instance) { in.Assignment[b], in.TileOrder = 0, [][]graph.SubtaskID{{b, a}, {}, {c}} },
	}
	for name, mutate := range cases {
		in, inst := base(), Instance{}
		mutate(&in, &inst)
		_, err := Compute(in, inst)
		var ref refScratch
		_, werr := ref.Compute(in, inst)
		if err == nil || werr == nil {
			t.Errorf("%s: error %v, reference %v", name, err, werr)
			continue
		}
		if err.Error() != werr.Error() {
			t.Errorf("%s: error %q, reference %q", name, err, werr)
		}
	}
	st, err := NewStatic(base())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ideal(0, []model.Time{0}); err == nil {
		t.Error("Ideal accepted a short TileFree")
	}
}
