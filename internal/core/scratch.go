package core

import (
	"fmt"

	"drhwsched/internal/model"
	"drhwsched/internal/schedule"
)

// ExecScratch holds the buffers one hybrid run-time evaluation needs,
// so the simulator replays stored schedules without allocating. The
// RunResult returned by ExecuteScratch — its plan slices and Timeline
// included — is owned by the scratch and valid until the next
// ExecuteScratch call on it. The zero value is ready to use; an
// ExecScratch must not be shared between goroutines.
type ExecScratch struct {
	body     schedule.Scratch
	tileFree []model.Time
	// init holds the initialization loads' windows, parallel to
	// Plan.InitLoads, until the body timeline records them.
	init []window
	res  RunResult
}

// window is one load's [start, end) on the reconfiguration port.
type window struct{ start, end model.Time }

// planInto is Plan writing into a caller-owned InstancePlan whose
// slices are reset and reused.
func (a *Analysis) planInto(p *InstancePlan, resident []bool) {
	p.InitLoads = p.InitLoads[:0]
	p.BodyLoads = p.BodyLoads[:0]
	p.Cancelled = p.Cancelled[:0]
	p.ReusedCritical = p.ReusedCritical[:0]
	for _, id := range a.CS {
		if resident != nil && resident[id] {
			p.ReusedCritical = append(p.ReusedCritical, id)
		} else {
			p.InitLoads = append(p.InitLoads, id)
		}
	}
	for _, id := range a.BodyOrder {
		if resident != nil && resident[id] {
			p.Cancelled = append(p.Cancelled, id)
		} else {
			p.BodyLoads = append(p.BodyLoads, id)
		}
	}
}

// ExecuteScratch is Execute on reusable buffers and on st, the stored
// schedule's static constraint part (a.Sched.Static(a.P)), which the
// caller builds once and may share between goroutines. The returned
// RunResult and everything it references are owned by sc.
func (a *Analysis) ExecuteScratch(st *schedule.Static, inst schedule.Instance, resident []bool, sc *ExecScratch) (*RunResult, error) {
	r := &sc.res
	a.planInto(&r.Plan, resident)
	sc.init = sc.init[:0]

	// Initialization phase: serialized loads in stored order on port 0.
	// Each waits for the circuitry and for its target tile to drain.
	r.InitEnd = inst.LoadFloor
	if len(inst.PortFree) > 0 {
		r.InitEnd = model.MaxT(r.InitEnd, inst.PortFree[0])
	}
	rows := len(a.Sched.TileOrder)
	if cap(sc.tileFree) < rows {
		sc.tileFree = make([]model.Time, rows)
	}
	tileFree := sc.tileFree[:rows]
	for i := range tileFree {
		tileFree[i] = 0
	}
	if inst.TileFree != nil {
		copy(tileFree, inst.TileFree)
	}
	for _, id := range r.Plan.InitLoads {
		t := a.Sched.Assignment[id]
		start := model.MaxT(r.InitEnd, tileFree[t])
		end := start.Add(a.P.LoadLatency(a.Sched.G.Subtask(id).Load))
		sc.init = append(sc.init, window{start, end})
		tileFree[t], r.InitEnd = end, end
	}

	// Body: the design-time schedule with reused loads cancelled. The
	// critical subtasks are resident by construction now, so the body
	// and its loads start once the initialization phase ends, each load
	// on a controller once that controller is free too. Port 0 is free
	// by InitEnd, so the body's PortFreeAfter covers the initialization
	// loads as well as every controller's own state.
	err := sc.body.Bind(st, r.Plan.BodyLoads, schedule.Instance{
		ExecFloor: model.MaxT(inst.ExecFloor, r.InitEnd),
		LoadFloor: r.InitEnd,
		TileFree:  tileFree,
		PortFree:  inst.PortFree,
	})
	if err != nil {
		return nil, fmt.Errorf("core: body schedule: %w", err)
	}
	tl, err := sc.body.Reorder(r.Plan.BodyLoads, 0)
	if err != nil {
		return nil, fmt.Errorf("core: body schedule: %w", err)
	}
	// The critical subtasks are unloaded in the body, so their
	// initialization windows drop into the timeline as they are.
	for i, id := range r.Plan.InitLoads {
		tl.LoadStart[id], tl.LoadEnd[id], tl.LoadPort[id] = sc.init[i].start, sc.init[i].end, 0
	}
	r.Timeline = tl

	// Ideal reference: same decisions, no loads, starting at ExecFloor
	// with the tiles as the previous task left them.
	ideal, err := st.Ideal(inst.ExecFloor, inst.TileFree)
	if err != nil {
		return nil, fmt.Errorf("core: ideal reference: %w", err)
	}

	r.Makespan = tl.End.Sub(inst.ExecFloor)
	r.Ideal = ideal
	r.Overhead = r.Makespan - r.Ideal
	return r, nil
}
