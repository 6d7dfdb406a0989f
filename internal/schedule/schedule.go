// Package schedule computes event times for a task graph placed on a
// DRHW platform: when every reconfiguration (load) starts and ends, and
// when every subtask executes.
//
// It is the arbiter all scheduling policies share. A policy only chooses
// *decisions* — the tile assignment, the per-tile execution order, and
// the order of loads on the reconfiguration port(s), which also names
// the subtasks that must be loaded. This package turns those decisions
// into a concrete timeline under the hardware's constraints:
//
//   - a subtask cannot start before its predecessors have finished,
//   - a subtask that must be loaded cannot start before its load ends,
//   - a tile executes one subtask at a time, in the given order,
//   - reconfiguring a tile destroys its contents, so a load cannot start
//     until the previous subtask executed on that tile has finished,
//   - loads start in port order (no overtaking) and each occupies one
//     reconfiguration controller for its whole latency.
//
// An Input holds the decisions and an Instance the boundary conditions
// of one task instance: its floors, the tile and port state earlier
// instances leave behind, and the load semantics. Instance is the one
// per-instance bounds type: the simulator builds one per instance, and
// the prefetch schedulers, the hybrid run-time phase and Scratch.Bind
// all take it, so no layer converts it.
//
// The combined constraint system is a DAG when the decisions are
// consistent; Compute evaluates it in topological order and rejects
// cyclic inputs. Verify re-checks a computed timeline against the raw
// constraints independently, which the test suite uses as an oracle.
package schedule

import (
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// Input bundles the decisions for one task instance: the placement,
// the per-processor execution orders and the port order. The
// instance's boundary conditions are an Instance, given separately.
type Input struct {
	G *graph.Graph
	P platform.Platform

	// Assignment maps each subtask to a processor index: DRHW tiles
	// occupy [0, P.Tiles) and ISPs [P.Tiles, P.Processors()). Subtasks
	// marked OnISP must sit on ISPs, all others on tiles.
	Assignment []int
	// TileOrder lists, per processor, the subtasks it executes in
	// order. Every subtask appears exactly once, on its assigned
	// processor. Rows beyond P.Tiles are ISPs.
	TileOrder [][]graph.SubtaskID
	// PortOrder is the sequence in which loads are issued to the
	// reconfiguration controller(s), and so the load set: a subtask
	// not listed is already resident (reused) and executes without a
	// reconfiguration.
	PortOrder []graph.SubtaskID
}

// Instance holds the boundary conditions of one task instance: the
// floors, the processor and port state carried over from earlier
// instances, and the load semantics. The zero value is an instance
// starting at time zero on an idle platform, with prefetching allowed.
type Instance struct {
	// ExecFloor is the earliest instant any execution may start (the
	// task's start time). Zero is a valid floor.
	ExecFloor model.Time
	// LoadFloor is the earliest instant any load may start. It may be
	// earlier than ExecFloor: the inter-task optimization issues the
	// next task's critical loads while the previous task still runs.
	LoadFloor model.Time
	// TileFree gives, per processor (tiles then ISPs), when it becomes
	// available (e.g. the end of the previous task's last execution on
	// it). Nil means everything free at time zero.
	TileFree []model.Time
	// PortFree gives, per reconfiguration controller, when it becomes
	// available. Nil means all ports free at time zero.
	PortFree []model.Time

	// OnDemand, when true, forbids prefetching: every load additionally
	// waits for all predecessors of its subtask to finish. This models
	// the paper's "without prefetch" baseline (Fig. 3b).
	OnDemand bool
}

// Timeline holds the computed event times. Slices are indexed by
// SubtaskID; LoadStart/LoadEnd are NoEvent for subtasks not loaded.
type Timeline struct {
	LoadStart []model.Time
	LoadEnd   []model.Time
	LoadPort  []int // -1 when not loaded
	ExecStart []model.Time
	ExecEnd   []model.Time

	Start model.Time // the instance's ExecFloor
	End   model.Time // latest execution end
	// PortFreeAfter reports, per port, when it is free after this task:
	// the end of its last load, and never before the instance's
	// LoadFloor or the port's own PortFree. It is the port state the
	// next instance starts from; the idle tail up to End is what the
	// inter-task optimization exploits.
	PortFreeAfter []model.Time
}

// NoEvent marks "this event does not occur" in a Timeline.
const NoEvent model.Time = -1

// Makespan is the wall-clock span of the task body: latest execution end
// minus the task start.
func (tl *Timeline) Makespan() model.Dur { return tl.End.Sub(tl.Start) }

// node kinds in the constraint DAG: node 2·id+kind is the subtask's
// execution (kindExec) or its load (kindLoad).
const (
	kindExec = 0
	kindLoad = 1
)

// Compute evaluates the constraint system of in under inst and returns
// the timeline. It fails if the input or the instance is malformed or
// if the decision orders are mutually inconsistent (cyclic).
//
// Every call builds a fresh Static and Scratch, so the Timeline aliases
// nothing; callers evaluating many instances of one schedule build the
// Static once and Bind each instance to a reused Scratch instead.
func Compute(in Input, inst Instance) (*Timeline, error) {
	st, err := NewStatic(in)
	if err != nil {
		return nil, err
	}
	sc := new(Scratch)
	if err := sc.Bind(st, in.PortOrder, inst); err != nil {
		return nil, err
	}
	return sc.Reorder(in.PortOrder, 0)
}
