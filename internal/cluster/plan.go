package cluster

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/server"
	"drhwsched/internal/workload"
)

// Grid is one sweep request expanded into its global cell grid: the
// same expansion drhwd's /v1/sweep performs (values outer, approach
// lines inner), so a cell's global index here equals the index a
// single-node sweep of the full request would report. The planner
// additionally derives a shard key per value — the content fingerprint
// of the design-time analyses that value's cells will need — which is
// what the consistent-hash ring partitions.
type Grid struct {
	Raw    json.RawMessage // the workload document, forwarded verbatim to replicas
	Param  string          // "tiles" (default) or "seed"
	Values []int
	Lines  []string
	keys   []string // shard key per value position; nil until shardKeys
	spec   *workload.RunSpec
}

// ParseGrid validates a sweep request and expands its grid, mirroring
// the checks drhwd applies (so the coordinator refuses what a replica
// would refuse, before fanning anything out). Size bounds are the
// caller's job — Subtasks and Cells report the quantities to check.
// Shard keys are derived on first use (Key, Assign), so a caller that
// refuses an oversize grid never schedules its scenarios.
func ParseGrid(req *server.SweepRequest) (*Grid, error) {
	if len(req.Workload) == 0 {
		return nil, fmt.Errorf("sweep: missing workload document")
	}
	spec, err := workload.ParseRun(req.Workload)
	if err != nil {
		return nil, err
	}
	if len(req.Values) == 0 {
		return nil, fmt.Errorf("sweep: no values to sweep")
	}
	if req.Param != "" && req.Param != "tiles" && req.Param != "seed" {
		return nil, fmt.Errorf("sweep: unknown param %q (tiles|seed)", req.Param)
	}
	param := req.Param
	if param == "" {
		param = "tiles"
	}
	if param == "tiles" {
		p := spec.Platform
		for _, x := range req.Values {
			p.Tiles = x
			if err := p.Validate(); err != nil {
				return nil, fmt.Errorf("sweep: tile count %d out of range: %v", x, err)
			}
		}
	}
	lines := req.Approaches
	if len(lines) == 0 {
		lines = workload.Approaches()
	}
	for _, line := range lines {
		if _, err := workload.ParseApproach(line); err != nil {
			return nil, err
		}
	}
	return &Grid{
		Raw:    req.Workload,
		Param:  param,
		Values: req.Values,
		Lines:  lines,
		spec:   spec,
	}, nil
}

// Cells is the grid size.
func (g *Grid) Cells() int { return len(g.Values) * len(g.Lines) }

// Subtasks counts the workload document's subtask definitions (the
// admission-control document size).
func (g *Grid) Subtasks() int { return g.spec.Subtasks() }

// Index is the global index of the cell at value position vi, line
// position li — identical to the single-node expansion order.
func (g *Grid) Index(vi, li int) int { return vi*len(g.Lines) + li }

// Key returns the shard key of value position vi.
func (g *Grid) Key(vi int) string { return g.shardKeys()[vi] }

// shardKeys derives every value's shard key on first call. A Grid is
// used by one goroutine, so no lock guards the cache.
func (g *Grid) shardKeys() []string {
	if g.keys == nil {
		g.keys = make([]string, len(g.Values))
		for vi, x := range g.Values {
			g.keys[vi] = shardKey(g.spec, g.Param, x, vi)
		}
	}
	return g.keys
}

// Assign partitions the given value positions over the ring by shard
// key, returning node → value positions (each list ascending, so the
// sub-request sent to a replica enumerates its values in global grid
// order).
func (g *Grid) Assign(r *Ring, vis []int) map[string][]int {
	keys := g.shardKeys()
	out := map[string][]int{}
	for _, vi := range vis {
		node := r.Lookup(keys[vi])
		if node == "" {
			continue
		}
		out[node] = append(out[node], vi)
	}
	return out
}

// shardKey derives the consistent-hash key of one swept value: the
// combined engine.Fingerprint of every design-time analysis the cells
// at that value share. All approach lines of one value reuse the same
// analyses (the scheduling approach is a run-time knob, outside the
// analysis fingerprint), so hashing per value keeps a whole column of
// the grid — and its cache entries — on one replica.
//
// A seed sweep never changes the analysis inputs, so every value would
// key identically and land on a single replica; since any replica is
// equally cache-warm for such a grid, the value index is folded in to
// spread the load instead.
//
// Scheduling can fail for degenerate inputs (the replica will stream
// the failure as per-cell errors); the planner then falls back to
// hashing the raw inputs so the sweep still shards deterministically.
func shardKey(spec *workload.RunSpec, param string, x, vi int) string {
	p := spec.Platform
	if param == "tiles" {
		p.Tiles = x
	}
	h := sha256.New()
	for _, m := range spec.Mix {
		for _, g := range m.Task.Scenarios {
			sched, err := assign.List(g, p, assign.Options{Placement: assign.Spread})
			if err != nil {
				fmt.Fprintf(h, "|unschedulable:%s:%d", g.Name, g.Len())
				continue
			}
			h.Write([]byte(engine.Fingerprint(sched, p, core.Options{})))
		}
	}
	if param == "seed" {
		fmt.Fprintf(h, "|value:%d", vi)
	}
	return string(h.Sum(nil))
}
