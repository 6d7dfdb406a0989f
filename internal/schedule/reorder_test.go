package schedule

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

// randomDecision builds a random, structurally valid decision set over
// the whole input surface: 1–3 ports, 0–3 ISPs, random processor and
// port availability, a load floor below the execution floor, and
// either semantics. The port order is the loads in topological order;
// callers permute it.
func randomDecision(rng *rand.Rand) (Input, Instance) {
	g := graph.Generate(rng, graph.GenSpec{
		Name:     "reorder",
		Subtasks: 1 + rng.Intn(18),
		MaxWidth: 1 + rng.Intn(4),
		MinExec:  model.MS(0.5),
		MaxExec:  model.MS(12),
		EdgeProb: 0.25,
	})
	p := platform.Default(1 + rng.Intn(4))
	p.Ports = 1 + rng.Intn(3)
	p.ISPs = rng.Intn(4)
	ms := func(k int) model.Time { return model.Time(rng.Intn(k)) * model.Time(model.Millisecond) }

	topo, _ := g.TopoOrder()
	assign := make([]int, g.Len())
	tileOrder := make([][]graph.SubtaskID, p.Processors())
	var port []graph.SubtaskID
	for _, id := range topo {
		proc := rng.Intn(p.Tiles)
		if p.ISPs > 0 && rng.Intn(5) == 0 {
			g.SetOnISP(id, true)
			proc = p.Tiles + rng.Intn(p.ISPs)
		} else if rng.Float64() < 0.8 {
			port = append(port, id)
		}
		assign[id] = proc
		tileOrder[proc] = append(tileOrder[proc], id)
	}
	in := Input{G: g, P: p, Assignment: assign, TileOrder: tileOrder, PortOrder: port}
	var inst Instance
	inst.ExecFloor = ms(40)
	inst.LoadFloor = inst.ExecFloor - ms(10)
	inst.OnDemand = rng.Intn(2) == 0
	if rng.Intn(3) > 0 {
		inst.TileFree = make([]model.Time, p.Processors())
		for i := range inst.TileFree {
			inst.TileFree[i] = inst.LoadFloor + ms(20)
		}
	}
	if rng.Intn(3) > 0 {
		inst.PortFree = make([]model.Time, p.Ports)
		for i := range inst.PortFree {
			inst.PortFree[i] = inst.LoadFloor + ms(15)
		}
	}
	return in, inst
}

// loadSet marks the subtasks in's port order lists.
func loadSet(in Input) []bool {
	set := make([]bool, in.G.Len())
	for _, id := range in.PortOrder {
		set[id] = true
	}
	return set
}

// diffTimelines names the first field in which two timelines differ.
func diffTimelines(got, want *Timeline) string {
	if got.Start != want.Start || got.End != want.End {
		return fmt.Sprintf("summary (start %v end %v) != (start %v end %v)",
			got.Start, got.End, want.Start, want.End)
	}
	if len(got.ExecStart) != len(want.ExecStart) || len(got.PortFreeAfter) != len(want.PortFreeAfter) {
		return "lengths differ"
	}
	for i := range want.ExecStart {
		if got.ExecStart[i] != want.ExecStart[i] || got.ExecEnd[i] != want.ExecEnd[i] ||
			got.LoadStart[i] != want.LoadStart[i] || got.LoadEnd[i] != want.LoadEnd[i] ||
			got.LoadPort[i] != want.LoadPort[i] {
			return fmt.Sprintf("event times differ at subtask %d", i)
		}
	}
	for p := range want.PortFreeAfter {
		if got.PortFreeAfter[p] != want.PortFreeAfter[p] {
			return fmt.Sprintf("port %d free time differs", p)
		}
	}
	return ""
}

// bind builds in's static part and binds in's load set and inst to sc
// on it.
func bind(t *testing.T, sc *Scratch, in Input, inst Instance) {
	t.Helper()
	st, err := NewStatic(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Bind(st, in.PortOrder, inst); err != nil {
		t.Fatal(err)
	}
}

func withOrder(in Input, order []graph.SubtaskID) Input {
	in.PortOrder = order
	return in
}

// checkReorder pins one Reorder on a bound scratch to a fresh
// Compute of the same input under that port order.
func checkReorder(t *testing.T, sc *Scratch, in Input, inst Instance, order []graph.SubtaskID, limit model.Dur) {
	t.Helper()
	in = withOrder(in, order)
	want, wantErr := Compute(in, inst)
	got, err := sc.Reorder(order, limit)
	switch {
	case errors.Is(err, ErrCutoff):
		if limit <= 0 {
			t.Fatalf("order %v: cut-off without a limit", order)
		}
		if wantErr == nil && want.Makespan() < limit {
			t.Fatalf("order %v: cut at limit %v, but the makespan is %v", order, limit, want.Makespan())
		}
	case err != nil:
		if wantErr == nil {
			t.Fatalf("order %v limit %v: Reorder failed (%v), Compute succeeded", order, limit, err)
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("order %v: error %q, Compute says %q", order, err, wantErr)
		}
	default:
		if wantErr != nil {
			t.Fatalf("order %v: Reorder succeeded, Compute failed: %v", order, wantErr)
		}
		if limit > 0 && want.Makespan() >= limit {
			t.Fatalf("order %v: makespan %v passed limit %v", order, want.Makespan(), limit)
		}
		if d := diffTimelines(got, want); d != "" {
			t.Fatalf("order %v limit %v: %s", order, limit, d)
		}
		if err := Verify(in, inst, got); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
	}
}

// TestReorderMatchesCompute drives one reused Scratch through random
// decision sets and, per set, through random permutations of its load
// set — infeasible ones included — at no limit and at random limits,
// pinning each evaluation to a fresh Compute.
func TestReorderMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sc := new(Scratch)
	cuts := 0
	for trial := 0; trial < 400; trial++ {
		in, inst := randomDecision(rng)
		bind(t, sc, in, inst)
		order := append([]graph.SubtaskID(nil), in.PortOrder...)
		for k := 0; k < 6; k++ {
			if k > 0 {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			checkReorder(t, sc, in, inst, order, 0)
			// Limits at random, and right at this order's makespan
			// (to the microsecond), where an inexact cut would show.
			limit := model.Dur(1+rng.Intn(60)) * model.Millisecond
			if want, err := Compute(withOrder(in, order), inst); err == nil && rng.Intn(3) > 0 {
				limit = want.Makespan() + model.Dur(rng.Intn(3)-1)
			}
			checkReorder(t, sc, in, inst, order, limit)
			if _, err := sc.Reorder(order, limit); errors.Is(err, ErrCutoff) {
				cuts++
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no evaluation was cut off; the limits never bit")
	}
}

// TestReorderRejectsNonPermutations checks that Reorder reports every
// order that is not a permutation of the bound load set as an error
// — missing, duplicated, unloaded and out-of-range ids — and that the
// scratch still evaluates valid orders afterwards.
func TestReorderRejectsNonPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := new(Scratch)
	for trial := 0; trial < 200; trial++ {
		in, inst := randomDecision(rng)
		bind(t, sc, in, inst)
		n, need := in.G.Len(), loadSet(in)
		var bad [][]graph.SubtaskID
		if m := len(in.PortOrder); m > 0 {
			bad = append(bad, append([]graph.SubtaskID(nil), in.PortOrder[1:]...)) // missing
			dup := append([]graph.SubtaskID(nil), in.PortOrder...)
			dup = append(dup, dup[rng.Intn(m)])
			bad = append(bad, dup) // duplicate, one too many
			if m > 1 {
				dup = append([]graph.SubtaskID(nil), in.PortOrder...)
				dup[0] = dup[m-1]
				bad = append(bad, dup) // duplicate, right length
			}
		}
		for id := 0; id < n; id++ {
			if !need[id] {
				bad = append(bad, append(append([]graph.SubtaskID(nil), in.PortOrder...), graph.SubtaskID(id)))
				if m := len(in.PortOrder); m > 0 {
					swapped := append([]graph.SubtaskID(nil), in.PortOrder...)
					swapped[rng.Intn(m)] = graph.SubtaskID(id)
					bad = append(bad, swapped) // unloaded, right length
				}
				break
			}
		}
		bad = append(bad,
			append(append([]graph.SubtaskID(nil), in.PortOrder...), graph.SubtaskID(n)),
			append([]graph.SubtaskID{-1}, in.PortOrder...))
		for _, order := range bad {
			if _, err := sc.Reorder(order, 0); err == nil || errors.Is(err, ErrCutoff) {
				t.Fatalf("trial %d: order %v over loads %v accepted (err %v)", trial, order, in.PortOrder, err)
			}
		}
		checkReorder(t, sc, in, inst, in.PortOrder, 0)
	}
	var zero Scratch
	if _, err := zero.Reorder(nil, 0); err == nil {
		t.Fatal("Reorder on an unprepared scratch succeeded")
	}
	_, in := fig3()
	st, err := NewStatic(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Bind(st, []graph.SubtaskID{-1}, Instance{}); err == nil {
		t.Fatal("Bind accepted an unknown subtask")
	}
	if _, err := sc.Reorder(nil, 0); err == nil {
		t.Fatal("Reorder after a failed Bind succeeded")
	}
}

// TestReorderStampWrap forces the permutation stamp to wrap and checks
// that duplicates are still caught and valid orders still evaluate.
func TestReorderStampWrap(t *testing.T) {
	_, in := fig3()
	sc := new(Scratch)
	bind(t, sc, in, Instance{})
	// Stamps left by an early call must not read as seen after the wrap.
	checkReorder(t, sc, in, Instance{}, in.PortOrder, 0)
	sc.mark = math.MaxInt
	for k := 0; k < 4; k++ {
		checkReorder(t, sc, in, Instance{}, in.PortOrder, 0)
		if _, err := sc.Reorder([]graph.SubtaskID{0, 1, 1, 3}, 0); err == nil {
			t.Fatalf("call %d (mark %d): duplicate accepted", k, sc.mark)
		}
	}
	if sc.mark >= math.MaxInt {
		t.Fatalf("mark %d did not wrap", sc.mark)
	}
}

// FuzzReorder builds a random decision set from seed, redraws its
// processor drain times from floors, and evaluates an arbitrary id
// sequence on it through NewStatic and Bind. Drain times of the wrong
// length must be rejected by Bind and Static.Ideal with an error;
// otherwise the closed-form ideal must equal the reference's no-load
// makespan, Reorder must reject every non-permutation, and must agree
// with a fresh Compute and with the reference. Nothing may panic.
func FuzzReorder(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3}, uint16(0), []byte{})
	f.Add(int64(7), []byte{3, 2, 1, 0, 4}, uint16(30), []byte{0x80, 0x10, 0xf0, 0x00, 0x33})
	f.Fuzz(func(t *testing.T, seed int64, ids []byte, limitMS uint16, floors []byte) {
		in, inst := randomDecision(rand.New(rand.NewSource(seed)))
		n, procs := in.G.Len(), in.P.Processors()
		st, err := NewStatic(in)
		if err != nil {
			t.Fatal(err)
		}
		// floors: a shape byte, then one byte per processor drain time,
		// each an offset of up to ±64 ms around the execution floor.
		badLen := false
		if len(floors) > 0 {
			inst.TileFree = make([]model.Time, procs)
			for r := range inst.TileFree {
				var b byte
				if 1+r < len(floors) {
					b = floors[1+r]
				}
				inst.TileFree[r] = inst.ExecFloor.Add(model.Dur(int(b)-128) * model.Millisecond / 2)
			}
			switch floors[0] % 8 {
			case 1:
				inst.TileFree = inst.TileFree[:procs-1]
				badLen = true
			case 3:
				inst.TileFree = nil
			}
		}
		ideal, ierr := st.Ideal(inst.ExecFloor, inst.TileFree)
		sc := new(Scratch)
		berr := sc.Bind(st, in.PortOrder, inst)
		if badLen {
			if berr == nil {
				t.Fatalf("Bind accepted TileFree of %d", len(inst.TileFree))
			}
			if ierr == nil {
				t.Fatal("Ideal accepted a short TileFree")
			}
			return
		}
		if berr != nil || ierr != nil {
			t.Fatalf("bind %v, ideal %v", berr, ierr)
		}
		var ref refScratch
		if want, err := ref.Compute(noLoads(in), inst); err != nil || want.Makespan() != ideal {
			t.Fatalf("closed-form ideal %v, reference %v (err %v)", ideal, want, err)
		}
		order := make([]graph.SubtaskID, len(ids))
		for i, b := range ids {
			order[i] = graph.SubtaskID(int(b)%(n+2) - 1) // -1 … n: out-of-range ids too
		}
		limit := model.Dur(limitMS%200) * model.Millisecond
		isPerm := len(order) == len(in.PortOrder)
		seen, need := make([]bool, n), loadSet(in)
		for _, id := range order {
			if id < 0 || int(id) >= n || !need[id] || seen[id] {
				isPerm = false
				break
			}
			seen[id] = true
		}
		if !isPerm {
			if _, err := sc.Reorder(order, limit); err == nil || errors.Is(err, ErrCutoff) {
				t.Fatalf("non-permutation %v of loads %v accepted (err %v)", order, in.PortOrder, err)
			}
			return
		}
		checkReorder(t, sc, in, inst, order, limit)
		if err := ref.Prepare(in, inst); err != nil {
			t.Fatal(err)
		}
		want, werr := ref.Reorder(order, 0)
		got, err := sc.Reorder(order, 0)
		if (err == nil) != (werr == nil) {
			t.Fatalf("order %v: error %v, reference %v", order, err, werr)
		}
		if err == nil {
			if d := diffTimelines(got, want); d != "" {
				t.Fatalf("order %v: %s", order, d)
			}
		}
	})
}
