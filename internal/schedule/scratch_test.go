package schedule

import (
	"math/rand"
	"testing"

	"drhwsched/internal/model"
)

// TestScratchComputeMatchesFresh reuses one Scratch across inputs of
// varying sizes and shapes — the simulator's usage pattern, each bound
// to its own Static — and pins every timeline to a fresh per-call
// Compute. Stale buffer state
// (un-reset constraint rows, oversized slices) shows up here.
func TestScratchComputeMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sc := &Scratch{}
	for trial := 0; trial < 60; trial++ {
		in := randomInput(rng, 1+rng.Intn(5))
		inst := Instance{ExecFloor: model.Time(rng.Intn(30)) * model.Time(model.Millisecond)}
		want, err := Compute(in, inst)
		if err != nil {
			t.Fatal(err)
		}
		bind(t, sc, in, inst)
		got, err := sc.Reorder(in.PortOrder, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffTimelines(got, want); d != "" {
			t.Fatalf("trial %d: scratch differs from fresh: %s", trial, d)
		}
	}
}
