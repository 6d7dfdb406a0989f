package reconfig

import (
	"fmt"
	"math/rand"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// randomMapSched builds a schedule of n chained-or-parallel subtasks
// with configurations drawn from a small shared pool (so reuse matches
// actually occur).
func randomMapSched(t *testing.T, rng *rand.Rand, n, tiles int) *assign.Schedule {
	t.Helper()
	g := graph.New(fmt.Sprintf("map%d", n))
	ids := make([]graph.SubtaskID, n)
	for i := range ids {
		cfg := graph.ConfigID(fmt.Sprintf("pool/%d", rng.Intn(4)))
		ids[i] = g.AddConfigured("s", model.Dur(2+rng.Intn(10))*model.Millisecond, cfg)
		if i > 0 && rng.Float64() < 0.5 {
			g.AddEdge(ids[rng.Intn(i)], ids[i])
		}
	}
	s, err := assign.List(g, platform.Default(tiles), assign.Options{Placement: assign.Spread})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMapIntoMatchesFreshAcrossReuse drives one MapScratch (and one
// residency map) through a sequence of placements over an evolving tile
// state — the simulator's pattern — and pins every decision to a
// fresh-buffer run. Stale scratch state (unreset taken flags, leftover
// partition buffers) shows up as a divergence.
func TestMapIntoMatchesFreshAcrossReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const tiles = 6
	stScratch := NewState(tiles)
	stFresh := NewState(tiles)
	sc := &MapScratch{}
	var res []bool
	for step := 0; step < 30; step++ {
		s := randomMapSched(t, rng, 2+rng.Intn(6), 2+rng.Intn(4))
		crit := func(id graph.SubtaskID) bool { return id%2 == 0 }
		opt := MapOptions{Critical: crit}
		if step%3 == 0 {
			opt.Critical = nil
		}

		got, err := MapInto(s, stScratch, opt, sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Map(s, stFresh, opt)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.PhysOf {
			if got.PhysOf[v] != want.PhysOf[v] {
				t.Fatalf("step %d: placements differ at virtual tile %d: %v vs %v",
					step, v, got.PhysOf, want.PhysOf)
			}
		}

		res = ResidentInto(res, s, stScratch, got)
		wantRes := Resident(s, stFresh, want)
		if len(res) != len(wantRes) {
			t.Fatalf("step %d: residency %v vs %v", step, res, wantRes)
		}
		for id := range wantRes {
			if res[id] != wantRes[id] {
				t.Fatalf("step %d: subtask %d resident %v, fresh run %v", step, id, res[id], wantRes[id])
			}
		}

		// Advance both states identically so later steps see real
		// residency histories.
		end := model.Time(step+1) * model.Time(model.Millisecond)
		endOf := func(graph.SubtaskID) model.Time { return end }
		Commit(s, stScratch, got, res, endOf)
		Commit(s, stFresh, want, wantRes, endOf)
	}
}
