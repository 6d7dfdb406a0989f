// Package assign produces the *initial subtask schedule* the prefetch
// problem starts from: an assignment of subtasks to tiles and a per-tile
// execution order chosen while neglecting the reconfiguration latency,
// exactly as the TCM design-time scheduler does in the paper.
//
// The algorithm is HLFET list scheduling: ready subtasks are dispatched
// in order of their criticality weight (the longest remaining path, the
// same weights the hybrid heuristic uses), each onto the tile that lets
// it start earliest.
//
// Placement among equally good tiles matters a lot for prefetching: a
// chain packed onto a single tile can never overlap a load with its
// predecessor's execution, because reconfiguring the tile requires the
// tile to be idle. The Spread policy therefore rotates across tiles
// (least-recently-used first), which costs nothing in the ideal schedule
// and creates the gaps the prefetcher hides loads in. Pack is kept for
// the placement ablation.
package assign

import (
	"fmt"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/schedule"
)

// Placement selects among tiles that allow the same earliest start.
type Placement int

const (
	// Spread prefers the least-recently-used tile, rotating a pipeline
	// across tiles so loads can be prefetched.
	Spread Placement = iota
	// Pack prefers the lowest-numbered tile, clustering subtasks.
	Pack
)

func (p Placement) String() string {
	if p == Pack {
		return "pack"
	}
	return "spread"
}

// Options tune the initial scheduler.
type Options struct {
	// MaxTiles caps how many tiles the schedule may use (a TCM Pareto
	// point's resource budget). Zero means "all platform tiles".
	MaxTiles  int
	Placement Placement
}

// Schedule is an initial subtask schedule: the decisions the prefetch
// schedulers take as given, plus the ideal (zero-overhead) timing used
// for prefetch priorities and overhead accounting.
type Schedule struct {
	G     *graph.Graph
	Tiles int // DRHW tiles available to this schedule (k)
	ISPs  int // instruction-set processors on the platform

	// Assignment maps subtasks to processor rows: [0, Tiles) are DRHW
	// tiles, [Tiles, Tiles+ISPs) are ISPs. TileOrder has one row per
	// processor in the same numbering.
	Assignment []int
	TileOrder  [][]graph.SubtaskID

	// Ideal timing, with every reconfiguration latency neglected.
	IdealStart    []model.Time
	IdealEnd      []model.Time
	IdealMakespan model.Dur

	// Weights are the ALAP criticality weights of the graph.
	Weights []model.Dur
}

// List builds an initial schedule for g on p under the given options.
func List(g *graph.Graph, p platform.Platform, opt Options) (*Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	k := p.Tiles
	if opt.MaxTiles > 0 && opt.MaxTiles < k {
		k = opt.MaxTiles
	}
	n := g.Len()
	w, err := g.Weights()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if g.Subtask(graph.SubtaskID(i)).OnISP && p.ISPs == 0 {
			return nil, fmt.Errorf("assign: %q has ISP subtasks but the platform has no ISP", g.Name)
		}
	}

	rows := k + p.ISPs
	s := &Schedule{
		G:          g,
		Tiles:      k,
		ISPs:       p.ISPs,
		Assignment: make([]int, n),
		TileOrder:  make([][]graph.SubtaskID, rows),
		IdealStart: make([]model.Time, n),
		IdealEnd:   make([]model.Time, n),
		Weights:    w,
	}

	tileFree := make([]model.Time, rows)
	tileLastUse := make([]int, rows) // dispatch counter of last use, -1 if never
	for i := range tileLastUse {
		tileLastUse[i] = -1
	}
	readyAt := make([]model.Time, n)
	pending := make([]int, n) // unfinished predecessor count
	scheduled := make([]bool, n)
	for i := 0; i < n; i++ {
		pending[i] = len(g.Preds(graph.SubtaskID(i)))
	}

	for dispatched := 0; dispatched < n; dispatched++ {
		// Pick the ready subtask with the greatest weight; break ties
		// by earlier readiness, then by ID for determinism.
		best := graph.SubtaskID(-1)
		for i := 0; i < n; i++ {
			id := graph.SubtaskID(i)
			if scheduled[id] || pending[id] > 0 {
				continue
			}
			if best < 0 {
				best = id
				continue
			}
			switch {
			case w[id] > w[best]:
				best = id
			case w[id] == w[best] && readyAt[id] < readyAt[best]:
				best = id
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("assign: no ready subtask in %q (cycle?)", g.Name)
		}

		// Choose the processor with the earliest achievable start;
		// among equals, follow the placement policy. ISP subtasks pick
		// among ISP rows, hardware subtasks among tile rows.
		lo, hi := 0, k
		if g.Subtask(best).OnISP {
			lo, hi = k, rows
		}
		tile := lo
		bestStart := model.MaxT(readyAt[best], tileFree[lo])
		for t := lo + 1; t < hi; t++ {
			start := model.MaxT(readyAt[best], tileFree[t])
			better := start < bestStart
			if start == bestStart {
				switch opt.Placement {
				case Spread:
					better = tileLastUse[t] < tileLastUse[tile]
				case Pack:
					better = false // keep lower index
				}
			}
			if better {
				tile, bestStart = t, start
			}
		}

		s.Assignment[best] = tile
		s.TileOrder[tile] = append(s.TileOrder[tile], best)
		s.IdealStart[best] = bestStart
		s.IdealEnd[best] = bestStart.Add(g.Subtask(best).Exec)
		tileFree[tile] = s.IdealEnd[best]
		tileLastUse[tile] = dispatched
		scheduled[best] = true
		if s.IdealEnd[best].Sub(0) > s.IdealMakespan {
			s.IdealMakespan = model.Dur(s.IdealEnd[best])
		}
		for _, succ := range g.Succs(best) {
			pending[succ]--
			if readyAt[succ] < s.IdealEnd[best] {
				readyAt[succ] = s.IdealEnd[best]
			}
		}
	}
	return s, nil
}

// EngineInput assembles a schedule.Input that executes this initial
// schedule on a k-tile platform, loading exactly the subtasks listed in
// portOrder. The platform is narrowed to the schedule's tile budget so
// the engine's validation matches the decision set; callers remap
// virtual tiles to physical ones separately (see the reconfig package).
func (s *Schedule) EngineInput(p platform.Platform, portOrder []graph.SubtaskID) schedule.Input {
	p.Tiles = s.Tiles
	p.ISPs = s.ISPs
	return schedule.Input{
		G:          s.G,
		P:          p,
		Assignment: s.Assignment,
		TileOrder:  s.TileOrder,
		PortOrder:  portOrder,
	}
}

// Static builds the schedule's static constraint part on p (see
// schedule.Static): the execution DAG, validated, that every instance
// of this schedule binds its loads and floors to. Build it once per
// stored schedule and platform.
func (s *Schedule) Static(p platform.Platform) (*schedule.Static, error) {
	return schedule.NewStatic(s.EngineInput(p, nil))
}

// AllLoads returns every hardware subtask in ideal-start order — the
// canonical "nothing is resident" load set. ISP subtasks are excluded:
// they never reconfigure anything.
func (s *Schedule) AllLoads() []graph.SubtaskID {
	ids := make([]graph.SubtaskID, 0, s.G.Len())
	for i := 0; i < s.G.Len(); i++ {
		if !s.G.Subtask(graph.SubtaskID(i)).OnISP {
			ids = append(ids, graph.SubtaskID(i))
		}
	}
	s.SortByIdealStart(ids)
	return ids
}

// SortByIdealStart orders ids by their start time in the ideal schedule,
// breaking ties by descending weight and then by ID. This is the natural
// issue order for prefetching: load what executes first, prefer the more
// critical subtask when two start together.
func (s *Schedule) SortByIdealStart(ids []graph.SubtaskID) {
	// Stable insertion sort: subtask counts are small and the simulator
	// sorts load sets on every instance, so avoiding sort.SliceStable's
	// reflection allocations matters more than asymptotics. before is
	// the same strict-weak order the previous SliceStable call used, so
	// the resulting (stable) order is identical.
	before := func(ia, ib graph.SubtaskID) bool {
		if s.IdealStart[ia] != s.IdealStart[ib] {
			return s.IdealStart[ia] < s.IdealStart[ib]
		}
		if s.Weights[ia] != s.Weights[ib] {
			return s.Weights[ia] > s.Weights[ib]
		}
		return ia < ib
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && before(ids[j], ids[j-1]); j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}
