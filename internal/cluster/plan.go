package cluster

import (
	"crypto/sha256"
	"fmt"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/server"
	"drhwsched/internal/workload"
)

// Grid is a validated sweep request (server.ParseSweep, the same
// checks and expansion drhwd's /v1/sweep applies: values outer,
// approach lines inner), so a cell's global index here equals the
// index a single-node sweep of the full request would report. The
// planner adds a shard key per value — the content fingerprint of the
// design-time analyses that value's cells will need — which is what
// the consistent-hash ring partitions. Keys are derived on first use
// (Key, Assign): ParseSweep has already refused an oversize request,
// and parsing schedules nothing.
type Grid struct {
	*server.Sweep
	keys []string // shard key per value position; nil until shardKeys
}

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
			g.keys[vi] = shardKey(g.Spec, g.Param, x, vi)
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
