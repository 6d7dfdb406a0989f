package schedule

import (
	"fmt"
	"sort"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
)

// Verify independently re-checks a timeline against the raw hardware
// constraints of the input under the instance's bounds. It shares no
// code with Compute's topological evaluation, so the test suite can use
// it as an oracle: any timeline Compute(in, inst) returns must
// Verify(in, inst, ...).
func Verify(in Input, inst Instance, tl *Timeline) error {
	n := in.G.Len()
	loaded := make([]bool, n)
	for _, id := range in.PortOrder {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("verify: port order lists unknown subtask %d", id)
		}
		loaded[id] = true
	}

	// Event presence and basic shape.
	for i := 0; i < n; i++ {
		id := graph.SubtaskID(i)
		if tl.ExecStart[i] == NoEvent || tl.ExecEnd[i] == NoEvent {
			return fmt.Errorf("verify: subtask %d never executes", i)
		}
		if tl.ExecEnd[i].Sub(tl.ExecStart[i]) != in.G.Subtask(id).Exec {
			return fmt.Errorf("verify: subtask %d execution window %v..%v does not match exec time %v",
				i, tl.ExecStart[i], tl.ExecEnd[i], in.G.Subtask(id).Exec)
		}
		if loaded[i] {
			if tl.LoadStart[i] == NoEvent {
				return fmt.Errorf("verify: subtask %d needs a load but has none", i)
			}
			lat := in.P.LoadLatency(in.G.Subtask(id).Load)
			if tl.LoadEnd[i].Sub(tl.LoadStart[i]) != lat {
				return fmt.Errorf("verify: subtask %d load window does not match latency %v", i, lat)
			}
			if tl.LoadPort[i] < 0 || tl.LoadPort[i] >= in.P.Ports {
				return fmt.Errorf("verify: subtask %d loaded on invalid port %d", i, tl.LoadPort[i])
			}
		} else if tl.LoadStart[i] != NoEvent {
			return fmt.Errorf("verify: subtask %d loaded despite being resident", i)
		}
		if in.G.Subtask(id).OnISP && tl.LoadStart[i] != NoEvent {
			return fmt.Errorf("verify: ISP subtask %d was loaded", i)
		}
	}

	// Floors.
	for i := 0; i < n; i++ {
		if tl.ExecStart[i] < inst.ExecFloor {
			return fmt.Errorf("verify: subtask %d executes at %v before floor %v", i, tl.ExecStart[i], inst.ExecFloor)
		}
		if loaded[i] && tl.LoadStart[i] < inst.LoadFloor {
			return fmt.Errorf("verify: subtask %d loads at %v before floor %v", i, tl.LoadStart[i], inst.LoadFloor)
		}
	}

	// Precedence (+ on-demand readiness).
	for _, e := range in.G.Edges() {
		if tl.ExecStart[e.To] < tl.ExecEnd[e.From] {
			return fmt.Errorf("verify: edge %d->%d violated: succ starts %v, pred ends %v",
				e.From, e.To, tl.ExecStart[e.To], tl.ExecEnd[e.From])
		}
		if inst.OnDemand && loaded[e.To] && tl.LoadStart[e.To] < tl.ExecEnd[e.From] {
			return fmt.Errorf("verify: on-demand load of %d starts %v before pred %d finishes %v",
				e.To, tl.LoadStart[e.To], e.From, tl.ExecEnd[e.From])
		}
	}

	// Load before execution.
	for i := 0; i < n; i++ {
		if loaded[i] && tl.ExecStart[i] < tl.LoadEnd[i] {
			return fmt.Errorf("verify: subtask %d executes at %v before its load ends %v", i, tl.ExecStart[i], tl.LoadEnd[i])
		}
	}

	// Tile exclusivity: on each tile, sort all occupancy windows (loads
	// targeting the tile + executions on it) and require no overlap,
	// plus the tile-free floor.
	type window struct {
		from, to model.Time
		what     string
	}
	for t, order := range in.TileOrder {
		var ws []window
		for _, id := range order {
			ws = append(ws, window{tl.ExecStart[id], tl.ExecEnd[id], fmt.Sprintf("exec %d", id)})
			if loaded[id] {
				ws = append(ws, window{tl.LoadStart[id], tl.LoadEnd[id], fmt.Sprintf("load %d", id)})
			}
		}
		sort.Slice(ws, func(a, b int) bool { return ws[a].from < ws[b].from })
		floor := model.Time(0)
		if inst.TileFree != nil {
			floor = inst.TileFree[t]
		}
		for k, w := range ws {
			if w.from < floor {
				return fmt.Errorf("verify: tile %d busy until %v but %s starts %v", t, floor, w.what, w.from)
			}
			if k > 0 && w.from < ws[k-1].to {
				return fmt.Errorf("verify: tile %d overlap: %s (ends %v) and %s (starts %v)",
					t, ws[k-1].what, ws[k-1].to, w.what, w.from)
			}
		}
		// Execution order as decided.
		for k := 1; k < len(order); k++ {
			if tl.ExecStart[order[k]] < tl.ExecEnd[order[k-1]] {
				return fmt.Errorf("verify: tile %d executes %d before %d finished", t, order[k], order[k-1])
			}
		}
	}

	// Port capacity: windows on each controller must not overlap, and
	// loads must start in port order (no overtaking).
	perPort := make([][]window, in.P.Ports)
	for i := 0; i < n; i++ {
		if loaded[i] {
			p := tl.LoadPort[i]
			perPort[p] = append(perPort[p], window{tl.LoadStart[i], tl.LoadEnd[i], fmt.Sprintf("load %d", i)})
		}
	}
	for p, ws := range perPort {
		sort.Slice(ws, func(a, b int) bool { return ws[a].from < ws[b].from })
		floor := inst.LoadFloor
		if inst.PortFree != nil {
			floor = model.MaxT(floor, inst.PortFree[p])
		}
		for k, w := range ws {
			if w.from < floor {
				return fmt.Errorf("verify: port %d busy until %v but %s starts %v", p, floor, w.what, w.from)
			}
			if k > 0 && w.from < ws[k-1].to {
				return fmt.Errorf("verify: port %d overlap: %s and %s", p, ws[k-1].what, w.what)
			}
		}
	}
	for k := 1; k < len(in.PortOrder); k++ {
		a, b := in.PortOrder[k-1], in.PortOrder[k]
		if tl.LoadStart[b] < tl.LoadStart[a] {
			return fmt.Errorf("verify: load %d overtakes load %d on the port order", b, a)
		}
	}

	// Reported end must cover every execution.
	for i := 0; i < n; i++ {
		if tl.ExecEnd[i] > tl.End {
			return fmt.Errorf("verify: end %v before subtask %d finishes %v", tl.End, i, tl.ExecEnd[i])
		}
	}
	return nil
}
