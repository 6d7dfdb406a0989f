// Package tcm models the Task Concurrency Management scheduling
// environment ([9,10]) that the paper integrates its modules into.
//
// In TCM an application is a set of dynamic tasks. Each task has one
// subtask graph per *scenario* (data-dependent behaviour is folded into
// scenario choice so the graphs themselves stay deterministic). At
// design time TCM explores, per scenario, schedules under different
// resource budgets and keeps the Pareto-optimal (execution time, energy)
// points. At run time a scheduler identifies the current scenario of
// every running task and greedily picks the cheapest combination of
// Pareto points that still meets the timing constraint.
//
// The hybrid prefetch heuristic hooks in at both ends: every Pareto
// point carries the design-time analysis (critical-subtask set + stored
// load order) computed by package core, and the run-time selector's
// output — including the sequence of upcoming tasks — feeds the reuse,
// prefetch and replacement modules.
package tcm

import (
	"errors"
	"fmt"
	"sort"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// Task is one dynamic task: a name plus one graph per scenario.
type Task struct {
	Name      string
	Scenarios []*graph.Graph
}

// NewTask builds a task from its scenario graphs.
func NewTask(name string, scenarios ...*graph.Graph) *Task {
	return &Task{Name: name, Scenarios: scenarios}
}

// ParetoPoint is one design-time solution for a scenario: an assignment
// and schedule of the subtasks over a tile budget, its ideal execution
// time, its energy estimate, and the hybrid prefetch artifact.
type ParetoPoint struct {
	Tiles    int
	Sched    *assign.Schedule
	Time     model.Dur
	Energy   float64
	Analysis *core.Analysis // nil unless DTOptions.Analyze was set
}

// Curve is the Pareto curve of one (task, scenario) pair, sorted by
// ascending execution time (and therefore descending energy).
type Curve struct {
	Task     *Task
	Scenario int
	Points   []*ParetoPoint
}

// Fastest returns the minimum-time point.
func (c *Curve) Fastest() *ParetoPoint { return c.Points[0] }

// Cheapest returns the minimum-energy point.
func (c *Curve) Cheapest() *ParetoPoint { return c.Points[len(c.Points)-1] }

// DTOptions tune the design-time exploration.
type DTOptions struct {
	// MaxTiles bounds the explored budgets (1..MaxTiles); zero means
	// the platform's tile count.
	MaxTiles  int
	Placement assign.Placement
	// Analyze attaches the hybrid design-time artifact to each point.
	Analyze        bool
	AnalyzeOptions core.Options
}

// DesignSpace holds every curve produced by the design-time scheduler.
type DesignSpace struct {
	Platform platform.Platform
	Tasks    []*Task
	curves   [][]*Curve // [task][scenario]
}

// Curve returns the Pareto curve of a task's scenario.
func (ds *DesignSpace) Curve(task, scenario int) *Curve { return ds.curves[task][scenario] }

// DesignTime explores every (task, scenario, tile budget) combination,
// estimates time and energy, Pareto-filters, and (optionally) runs the
// hybrid prefetch analysis on every surviving point.
func DesignTime(tasks []*Task, p platform.Platform, opt DTOptions) (*DesignSpace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxTiles := opt.MaxTiles
	if maxTiles <= 0 || maxTiles > p.Tiles {
		maxTiles = p.Tiles
	}
	ds := &DesignSpace{Platform: p, Tasks: tasks}
	for ti, task := range tasks {
		if len(task.Scenarios) == 0 {
			return nil, fmt.Errorf("tcm: task %q has no scenarios", task.Name)
		}
		var curves []*Curve
		for si, g := range task.Scenarios {
			var pts []*ParetoPoint
			for k := 1; k <= maxTiles; k++ {
				s, err := assign.List(g, p, assign.Options{MaxTiles: k, Placement: opt.Placement})
				if err != nil {
					return nil, fmt.Errorf("tcm: task %q scenario %d: %w", task.Name, si, err)
				}
				pts = append(pts, &ParetoPoint{
					Tiles:  k,
					Sched:  s,
					Time:   s.IdealMakespan,
					Energy: estimateEnergy(s, p),
				})
			}
			pts = paretoFilter(pts)
			if opt.Analyze {
				for _, pt := range pts {
					a, err := core.Analyze(pt.Sched, p, opt.AnalyzeOptions)
					if err != nil {
						return nil, fmt.Errorf("tcm: analyzing %q scenario %d (%d tiles): %w", task.Name, si, pt.Tiles, err)
					}
					pt.Analysis = a
				}
			}
			curves = append(curves, &Curve{Task: task, Scenario: si, Points: pts})
		}
		ds.curves = append(ds.curves, curves)
		_ = ti
	}
	return ds, nil
}

// estimateEnergy charges active power for execution, idle power for the
// configured-but-idle tile time inside the schedule's span, and the
// worst-case reconfiguration energy (every subtask loaded once).
func estimateEnergy(s *assign.Schedule, p platform.Platform) float64 {
	exec := s.G.TotalExec()
	span := s.IdealMakespan
	idle := model.Dur(s.Tiles)*span - exec
	if idle < 0 {
		idle = 0
	}
	return p.ExecEnergy(exec) + p.IdleEnergy(idle) + float64(s.G.Len())*p.LoadEnergy
}

// paretoFilter keeps the points no other point dominates (faster or
// equal AND cheaper or equal, better in at least one), sorted by time.
func paretoFilter(pts []*ParetoPoint) []*ParetoPoint {
	sort.SliceStable(pts, func(a, b int) bool {
		if pts[a].Time != pts[b].Time {
			return pts[a].Time < pts[b].Time
		}
		return pts[a].Energy < pts[b].Energy
	})
	var out []*ParetoPoint
	bestEnergy := -1.0
	for _, pt := range pts {
		if bestEnergy >= 0 && pt.Energy >= bestEnergy {
			continue // dominated by an earlier (faster) point
		}
		out = append(out, pt)
		bestEnergy = pt.Energy
	}
	return out
}

// Selection is the run-time scheduler's choice for one active task.
type Selection struct {
	Curve *Curve
	Point *ParetoPoint
	// Index is Point's position in Curve.Points, so consumers keyed by
	// point position (the simulator's prepared-artifact tables) avoid a
	// pointer-identity scan over the curve.
	Index int
}

// ErrInfeasible reports that no combination of Pareto points meets the
// deadline.
var ErrInfeasible = errors.New("tcm: deadline infeasible even with the fastest points")

// Select implements the TCM run-time scheduler's greedy point selection:
// tasks run back to back, so the total execution time of the chosen
// points must fit the deadline while the summed energy is minimized.
// It starts from every task's cheapest point and repeatedly applies the
// upgrade with the best time-saved-per-extra-energy ratio until the
// deadline is met.
func Select(curves []*Curve, deadline model.Dur) ([]Selection, error) {
	idx := make([]int, len(curves)) // chosen point, counting from the cheap end
	sel := func(i int) *ParetoPoint {
		c := curves[i]
		return c.Points[len(c.Points)-1-idx[i]]
	}
	var total model.Dur
	for i := range curves {
		total += sel(i).Time
	}
	for total > deadline {
		best, bestRatio := -1, 0.0
		for i, c := range curves {
			if idx[i] >= len(c.Points)-1 {
				continue // already fastest
			}
			cur := sel(i)
			idx[i]++
			nxt := sel(i)
			idx[i]--
			dt := float64(cur.Time - nxt.Time)
			de := nxt.Energy - cur.Energy
			if dt <= 0 {
				continue
			}
			ratio := dt
			if de > 0 {
				ratio = dt / de
			} else {
				ratio = dt * 1e9 // free speedup
			}
			if best < 0 || ratio > bestRatio {
				best, bestRatio = i, ratio
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("%w (need %v, deadline %v)", ErrInfeasible, total, deadline)
		}
		total -= sel(best).Time
		idx[best]++
		total += sel(best).Time
	}
	out := make([]Selection, len(curves))
	for i, c := range curves {
		out[i] = Selection{Curve: c, Point: sel(i), Index: len(c.Points) - 1 - idx[i]}
	}
	return out, nil
}
