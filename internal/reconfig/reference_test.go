package reconfig

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// refMap is the mapping decision as it stood when residency was a
// vector of configuration names: every reuse match compares names, and
// pass 4 rescans the free tiles for each virtual tile without a match.
// It is the reference that MapInto's handle comparisons and one-scan
// victim selection are checked against.
func refMap(s *assign.Schedule, st *State, opt MapOptions) (Mapping, error) {
	k := s.Tiles
	if k > st.Tiles() {
		return Mapping{}, fmt.Errorf("reconfig: schedule needs %d tiles, platform has %d", k, st.Tiles())
	}
	policy := opt.Policy
	if policy == nil {
		policy = LRU{}
	}
	m := Mapping{PhysOf: make([]int, k)}
	taken := make([]bool, st.Tiles())
	for v := range m.PhysOf {
		m.PhysOf[v] = -1
	}
	for t := range taken {
		taken[t] = opt.Allowed != nil
	}
	for _, t := range opt.Allowed {
		if t < 0 || t >= st.Tiles() {
			return Mapping{}, fmt.Errorf("reconfig: allowed tile %d outside platform of %d tiles", t, st.Tiles())
		}
		taken[t] = false
	}
	claim := func(v, t int) {
		m.PhysOf[v] = t
		taken[t] = true
	}
	var busyCrit, busyRest []int
	for v := 0; v < k; v++ {
		if len(s.TileOrder[v]) == 0 {
			continue
		}
		if first := s.TileOrder[v][0]; opt.Critical != nil && opt.Critical(first) {
			busyCrit = append(busyCrit, v)
		} else {
			busyRest = append(busyRest, v)
		}
	}
	byWeight := func(vs []int) {
		slices.SortStableFunc(vs, func(a, b int) int {
			wa, wb := s.Weights[s.TileOrder[a][0]], s.Weights[s.TileOrder[b][0]]
			switch {
			case wa > wb:
				return -1
			case wa < wb:
				return 1
			}
			return a - b
		})
	}
	byWeight(busyCrit)
	byWeight(busyRest)
	match := func(v int) bool {
		cfg := s.G.Subtask(s.TileOrder[v][0]).Config
		for t := 0; t < st.Tiles(); t++ {
			if taken[t] {
				continue
			}
			if c := st.Config(t); c != "" && c == cfg {
				claim(v, t)
				return true
			}
		}
		return false
	}
	var initTiles []int
	for _, v := range busyCrit {
		if !match(v) {
			initTiles = append(initTiles, v)
		}
	}
	for _, v := range initTiles {
		best := -1
		for t := 0; t < st.Tiles(); t++ {
			if taken[t] {
				continue
			}
			if best < 0 || st.LastUse[t] < st.LastUse[best] {
				best = t
			}
		}
		if best < 0 {
			return Mapping{}, fmt.Errorf("reconfig: ran out of physical tiles")
		}
		claim(v, best)
	}
	var unmatched []int
	for _, v := range busyRest {
		if !match(v) {
			unmatched = append(unmatched, v)
		}
	}
	for _, v := range unmatched {
		firstEmpty := -1
		var others []int
		for t := 0; t < st.Tiles(); t++ {
			if taken[t] {
				continue
			}
			if st.Config(t) == "" {
				if firstEmpty < 0 {
					firstEmpty = t
				}
			} else {
				others = append(others, t)
			}
		}
		var pick int
		switch {
		case firstEmpty >= 0:
			pick = firstEmpty
		case len(others) > 0:
			pick = policy.Victim(st, others, opt.Future)
		default:
			return Mapping{}, fmt.Errorf("reconfig: ran out of physical tiles")
		}
		claim(v, pick)
	}
	next := 0
	for v := 0; v < k; v++ {
		if m.PhysOf[v] >= 0 {
			continue
		}
		for next < st.Tiles() && taken[next] {
			next++
		}
		if next < st.Tiles() {
			claim(v, next)
		} else if len(opt.Allowed) > 0 {
			m.PhysOf[v] = opt.Allowed[0]
		} else {
			m.PhysOf[v] = 0
		}
	}
	return m, nil
}

// refResident is Resident comparing configuration names.
func refResident(s *assign.Schedule, st *State, m Mapping) []bool {
	res := make([]bool, s.G.Len())
	for v := 0; v < s.Tiles; v++ {
		cur := st.Config(m.PhysOf[v])
		for _, id := range s.TileOrder[v] {
			if cfg := s.G.Subtask(id).Config; cfg == cur {
				res[id] = true
			} else {
				cur = cfg
			}
		}
	}
	return res
}

// refCommit is Commit recording configurations by name.
func refCommit(s *assign.Schedule, st *State, m Mapping, resident []bool, endOf func(graph.SubtaskID) model.Time) {
	for v := 0; v < s.Tiles; v++ {
		phys := m.PhysOf[v]
		for _, id := range s.TileOrder[v] {
			if end := endOf(id); resident != nil && resident[id] {
				st.Touch(phys, end)
			} else {
				st.Set(phys, s.G.Subtask(id).Config, end)
			}
		}
	}
}

// sameState reports whether two states hold the same residency and
// times on every tile, comparing configurations by name.
func sameState(a, b *State) bool {
	if a.Tiles() != b.Tiles() {
		return false
	}
	for t := 0; t < a.Tiles(); t++ {
		if a.Config(t) != b.Config(t) || a.LastUse[t] != b.LastUse[t] || a.LoadedAt[t] != b.LoadedAt[t] {
			return false
		}
	}
	return true
}

// TestMapMatchesReference checks MapInto, ResidentInto and Commit
// against the name-comparing reference over random schedules drawn
// from one shared configuration pool (so graphs reuse each other's
// tiles), random prior states with some empty and some foreign tiles,
// random Allowed claims and critical sets, and every replacement
// policy. Each case chains several instances through one scratch and
// one pair of states, so later decisions see committed histories.
// Seeded Random policies on both sides must also stay in step: the
// policy has to see the same candidates, the same number of times.
func TestMapMatchesReference(t *testing.T) {
	const pool = 5
	cfg := func(rng *rand.Rand) graph.ConfigID {
		if rng.Intn(6) == 0 {
			return graph.ConfigID(fmt.Sprintf("foreign/%d", rng.Intn(3)))
		}
		return graph.ConfigID(fmt.Sprintf("pool/cfg%d", rng.Intn(pool)))
	}
	policies := []func(seed int64) Policy{
		func(int64) Policy { return LRU{} },
		func(int64) Policy { return FIFO{} },
		func(int64) Policy { return Belady{} },
		func(seed int64) Policy { return Random{Rng: rand.New(rand.NewSource(seed))} },
	}
	rng := rand.New(rand.NewSource(2026))
	sc := &MapScratch{}
	var res []bool
	decisions := 0
	for c := 0; c < 300; c++ {
		tiles := 1 + rng.Intn(10)
		got, want := NewState(tiles), NewState(tiles)
		for t := 0; t < tiles; t++ {
			if rng.Float64() < 0.7 {
				c, at := cfg(rng), model.Time(rng.Int63n(1000))
				got.Set(t, c, at)
				want.Set(t, c, at)
			}
		}
		seed := rng.Int63()
		mk := policies[c%len(policies)]
		gotPol, wantPol := mk(seed), mk(seed)
		clock := model.Time(1000)
		for step := 0; step < 6; step++ {
			g := graph.Generate(rng, graph.GenSpec{
				Name: "pool", Subtasks: 1 + rng.Intn(14), MaxWidth: 1 + rng.Intn(4),
				MinExec: model.MS(1), MaxExec: model.MS(10), EdgeProb: 0.2,
				SharedCfg: pool,
			})
			s, err := assign.List(g, platform.Default(1+rng.Intn(tiles)), assign.Options{})
			if err != nil {
				t.Fatal(err)
			}
			crit := make([]bool, g.Len())
			for i := range crit {
				crit[i] = rng.Intn(3) == 0
			}
			opt := MapOptions{Critical: func(id graph.SubtaskID) bool { return crit[id] }}
			if rng.Intn(4) == 0 {
				opt.Critical = nil
			}
			if rng.Intn(2) == 0 {
				opt.Allowed = rng.Perm(tiles)[:1+rng.Intn(tiles)]
			}
			for i := rng.Intn(6); i > 0; i-- {
				opt.Future = append(opt.Future, cfg(rng))
			}
			gotOpt, wantOpt := opt, opt
			gotOpt.Policy, wantOpt.Policy = gotPol, wantPol

			wantM, wantErr := refMap(s, want, wantOpt)
			gotM, gotErr := MapInto(s, got, gotOpt, sc)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("case %d step %d: error %v, reference %v", c, step, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			decisions++
			if !slices.Equal(gotM.PhysOf, wantM.PhysOf) {
				t.Fatalf("case %d step %d (%s, allowed %v): PhysOf %v, reference %v",
					c, step, gotPol.Name(), opt.Allowed, gotM.PhysOf, wantM.PhysOf)
			}
			res = ResidentInto(res, s, got, gotM)
			wantRes := refResident(s, want, wantM)
			if !slices.Equal(res, wantRes) {
				t.Fatalf("case %d step %d: resident %v, reference %v", c, step, res, wantRes)
			}
			endOf := func(id graph.SubtaskID) model.Time { return clock.Add(model.Dur(id) * model.Millisecond) }
			Commit(s, got, gotM, res, endOf)
			refCommit(s, want, wantM, wantRes, endOf)
			if !sameState(got, want) {
				t.Fatalf("case %d step %d: state after commit %v, reference %v", c, step, configs(got), configs(want))
			}
			clock = clock.Add(100 * model.Millisecond)
		}
		if r, ok := gotPol.(Random); ok && r.Rng.Int63() != wantPol.(Random).Rng.Int63() {
			t.Fatalf("case %d: seeded Random policies drifted apart", c)
		}
	}
	if decisions < 1000 {
		t.Fatalf("only %d decisions compared", decisions)
	}
}

// allocSched builds a schedule that uses every one of tiles virtual
// tiles, with configurations from a shared pool so a decision mixes
// reuse matches, initialization steals and victims.
func allocSched(tb testing.TB, tiles int) (*assign.Schedule, *State) {
	tb.Helper()
	g := graph.New("alloc")
	for i := 0; i < 2*tiles; i++ {
		g.AddConfigured("s", model.MS(float64(1+i%5)), graph.ConfigID(fmt.Sprintf("pool/%d", i%(tiles+3))))
	}
	s, err := assign.List(g, platform.Default(tiles), assign.Options{Placement: assign.Spread})
	if err != nil {
		tb.Fatal(err)
	}
	st := NewState(tiles)
	for t := 0; t < tiles; t++ {
		if t%4 != 3 {
			st.Set(t, graph.ConfigID(fmt.Sprintf("pool/%d", (2*t)%(tiles+3))), model.Time(t*7%11))
		}
	}
	return s, st
}

// TestMapIntoAllocs pins the per-instance reuse and replacement path
// (MapInto, ResidentInto, Commit) at zero allocations per warm decision
// at 16 tiles, with the whole fabric available, under a claim, and
// with Belady reading a lookahead.
func TestMapIntoAllocs(t *testing.T) {
	const tiles = 16
	s, st := allocSched(t, tiles)
	crit := func(id graph.SubtaskID) bool { return id%3 == 0 }
	endOf := func(id graph.SubtaskID) model.Time { return model.Time(100 + id) }
	claim := make([]int, 0, tiles)
	for t := 0; t < tiles; t += 2 {
		claim = append(claim, t)
	}
	future := make([]graph.ConfigID, 10)
	for i := range future {
		future[i] = graph.ConfigID(fmt.Sprintf("pool/%d", 3*i%(tiles+3)))
	}
	for _, tc := range []struct {
		name    string
		allowed []int
		sched   *assign.Schedule
		policy  Policy
		future  []graph.ConfigID
	}{
		{"full", nil, s, nil, nil},
		{"allowed", claim, randomMapSched(t, rand.New(rand.NewSource(5)), 12, len(claim)), nil, nil},
		{"belady", nil, s, Belady{}, future},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := &MapScratch{}
			var res []bool
			opt := MapOptions{Policy: tc.policy, Critical: crit, Allowed: tc.allowed, Future: tc.future}
			decide := func() {
				m, err := MapInto(tc.sched, st, opt, sc)
				if err != nil {
					t.Fatal(err)
				}
				res = ResidentInto(res, tc.sched, st, m)
				Commit(tc.sched, st, m, res, endOf)
			}
			decide()
			if allocs := testing.AllocsPerRun(100, decide); allocs != 0 {
				t.Fatalf("a warm decision allocates %.1f objects; want 0", allocs)
			}
		})
	}
}

// BenchmarkMapInto measures one warm mapping decision on a fixed tile
// state: reuse matches, initialization steals and LRU victims.
func BenchmarkMapInto(b *testing.B) {
	for _, tiles := range []int{8, 16} {
		b.Run(fmt.Sprintf("tiles=%d", tiles), func(b *testing.B) {
			s, st := allocSched(b, tiles)
			crit := func(id graph.SubtaskID) bool { return id%3 == 0 }
			opt := MapOptions{Critical: crit}
			sc := &MapScratch{}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := MapInto(s, st, opt, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
