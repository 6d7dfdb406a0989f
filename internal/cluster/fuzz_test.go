// Fuzz coverage for the coordinator's sweep planner: ParseGrid must
// reject a malformed or out-of-range sweep request with an error —
// never a panic, and never an allocation sized by a swept value — and
// any grid it accepts must expand to exactly values × lines cells.
//
// The seed corpus under testdata/fuzz/FuzzParseGrid/ pins an oversize
// tile value, an oversize grid, a valid seed sweep, an unknown param
// and an empty body; `go test -fuzz=FuzzParseGrid ./internal/cluster`
// explores from there.
package cluster

import (
	"encoding/json"
	"testing"

	"drhwsched/internal/server"
	"drhwsched/internal/workload"
)

func FuzzParseGrid(f *testing.F) {
	var limits Config
	limits.fillDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		var req server.SweepRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		g, err := ParseGrid(&req)
		if err != nil {
			return // rejected cleanly — all the contract asks of bad input
		}
		if len(g.Values) != len(req.Values) {
			t.Fatalf("grid has %d values, request %d", len(g.Values), len(req.Values))
		}
		if len(req.Approaches) == 0 && len(g.Lines) != len(workload.Approaches()) {
			t.Fatalf("default lines = %v", g.Lines)
		}
		if g.Cells() != len(g.Values)*len(g.Lines) {
			t.Fatalf("cells = %d, want %d × %d", g.Cells(), len(g.Values), len(g.Lines))
		}
		// Every accepted tile value must make a valid platform: the
		// shard keys below schedule each scenario on it.
		if g.Param == "tiles" {
			p := g.spec.Platform
			for _, x := range g.Values {
				p.Tiles = x
				if err := p.Validate(); err != nil {
					t.Fatalf("accepted tile value %d: %v", x, err)
				}
			}
		}
		// Keys are derived only for grids the coordinator admits; an
		// oversize one is refused before any scenario is scheduled.
		if g.Subtasks() > limits.MaxSubtasks || g.Cells() > limits.MaxSweepCells {
			return
		}
		for vi := range g.Values {
			if g.Key(vi) == "" {
				t.Fatalf("value position %d has no shard key", vi)
			}
		}
	})
}
