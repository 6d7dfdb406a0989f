package core_test

import (
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/platform"
	"drhwsched/internal/workload"
)

// TestAnalyzeAllocs pins the design-time phase's allocation budget on
// the paper's six multimedia scenarios (8 tiles, Spread placement).
// The CS-selection loop evaluates many candidate load sets through
// BranchBound, every round and every search node on one static part
// and one scratch per analysis, with the search state in the scratch's
// id-indexed buffers and the delayed-subtask list in one buffer per
// analysis: a pass costs 181 allocations, and the budget is exactly
// that, so any new per-round or per-search allocation fails it.
func TestAnalyzeAllocs(t *testing.T) {
	p := platform.Default(8)
	var scheds []*assign.Schedule
	for _, task := range workload.MultimediaTasks() {
		for _, g := range task.Scenarios {
			s, err := assign.List(g, p, assign.Options{Placement: assign.Spread})
			if err != nil {
				t.Fatal(err)
			}
			scheds = append(scheds, s)
		}
	}
	if len(scheds) != 6 {
		t.Fatalf("multimedia set has %d scenarios, want 6", len(scheds))
	}
	pass := func() {
		for _, s := range scheds {
			if _, err := core.Analyze(s, p, core.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, pass); allocs > 181 {
		t.Fatalf("core.Analyze allocates %.0f objects per pass over the multimedia scenarios; budget 181", allocs)
	}
}
