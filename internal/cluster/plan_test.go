package cluster

import (
	"encoding/json"
	"testing"

	"drhwsched/internal/server"
	"drhwsched/internal/workload"
)

const planDoc = `{
  "name": "pipe",
  "platform": {"tiles": 4},
  "sim": {"approach": "hybrid", "iterations": 20, "seed": 1},
  "tasks": [{
    "name": "pipe",
    "scenarios": [{
      "subtasks": [
        {"name": "a", "exec_ms": 10},
        {"name": "b", "exec_ms": 12},
        {"name": "c", "exec_ms": 8}
      ],
      "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 2}]
    }]
  }]
}`

// parseGrid validates req under the coordinator's default bounds and
// wraps it, as handleSweep does.
func parseGrid(req *server.SweepRequest) (*Grid, error) {
	var limits Config
	limits.fillDefaults()
	sw, err := server.ParseSweep(req, limits.MaxSubtasks, limits.MaxSweepCells)
	if err != nil {
		return nil, err
	}
	return &Grid{Sweep: sw}, nil
}

func mustGrid(t *testing.T, param string, values []int, approaches []string) *Grid {
	t.Helper()
	g, err := parseGrid(&server.SweepRequest{
		Workload:   json.RawMessage(planDoc),
		Param:      param,
		Values:     values,
		Approaches: approaches,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridExpansionMatchesSingleNode(t *testing.T) {
	g := mustGrid(t, "tiles", []int{3, 4}, []string{"hybrid", "run-time"})
	if g.Cells() != 4 {
		t.Fatalf("cells = %d", g.Cells())
	}
	// drhwd expands values outer, approaches inner; indices must agree.
	wants := []struct{ vi, li, index int }{{0, 0, 0}, {0, 1, 1}, {1, 0, 2}, {1, 1, 3}}
	for _, w := range wants {
		if got := g.Index(w.vi, w.li); got != w.index {
			t.Fatalf("Index(%d,%d) = %d, want %d", w.vi, w.li, got, w.index)
		}
	}
}

func TestGridDefaultsAllApproaches(t *testing.T) {
	g := mustGrid(t, "", []int{4}, nil)
	if len(g.Lines) != len(workload.Approaches()) {
		t.Fatalf("lines = %v", g.Lines)
	}
	if g.Param != "tiles" {
		t.Fatalf("param = %q", g.Param)
	}
}

// TestGridShardKeys: a tiles sweep keys by the analysis content — every
// tile count gets its own key (its own analyses), repeated values
// share one. A seed sweep shares one analysis across the grid, so the
// value position is folded in to spread the load.
func TestGridShardKeys(t *testing.T) {
	g := mustGrid(t, "tiles", []int{3, 4, 3}, []string{"hybrid"})
	if g.Key(0) == g.Key(1) {
		t.Fatal("different tile counts must key differently")
	}
	if g.Key(0) != g.Key(2) {
		t.Fatal("equal tile counts must share a shard key")
	}
	s := mustGrid(t, "seed", []int{1, 2}, []string{"hybrid"})
	if s.Key(0) == s.Key(1) {
		t.Fatal("seed sweep must spread values across the ring")
	}
}

// TestParseGridDefersShardKeys: parsing schedules nothing, so the size
// checks run before any scenario of any value is assigned; keys appear
// on first use.
func TestParseGridDefersShardKeys(t *testing.T) {
	g := mustGrid(t, "tiles", []int{3, 4}, []string{"hybrid"})
	if g.keys != nil {
		t.Fatal("parsing derived shard keys before their first use")
	}
	if g.Key(1) == "" || len(g.keys) != 2 {
		t.Fatalf("keys after first use = %d", len(g.keys))
	}
}

func TestGridAssignCoversPending(t *testing.T) {
	g := mustGrid(t, "tiles", []int{2, 3, 4, 5, 6, 7}, []string{"hybrid"})
	ring := NewRing([]string{"http://a", "http://b"}, 64)
	got := g.Assign(ring, []int{0, 1, 2, 3, 4, 5})
	seen := map[int]bool{}
	for node, vis := range got {
		if node != "http://a" && node != "http://b" {
			t.Fatalf("unknown node %q", node)
		}
		last := -1
		for _, vi := range vis {
			if seen[vi] {
				t.Fatalf("value position %d assigned twice", vi)
			}
			seen[vi] = true
			if vi <= last {
				t.Fatalf("assignment for %s not ascending: %v", node, vis)
			}
			last = vi
		}
	}
	if len(seen) != 6 {
		t.Fatalf("assignment covered %d of 6 positions", len(seen))
	}
}

func TestGridRejects(t *testing.T) {
	cases := map[string]server.SweepRequest{
		"no workload": {Values: []int{4}},
		"no values":   {Workload: json.RawMessage(planDoc)},
		"bad param":   {Workload: json.RawMessage(planDoc), Param: "voltage", Values: []int{4}},
		"bad tiles":   {Workload: json.RawMessage(planDoc), Values: []int{0}},
		"huge tiles":  {Workload: json.RawMessage(planDoc), Values: []int{4, 1000000000}},
		"bad line":    {Workload: json.RawMessage(planDoc), Values: []int{4}, Approaches: []string{"nope"}},
		"bad doc":     {Workload: json.RawMessage(`{"tasks": 7}`), Values: []int{4}},
	}
	for name, req := range cases {
		if _, err := parseGrid(&req); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
