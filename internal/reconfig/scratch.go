package reconfig

import (
	"fmt"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
)

// MapScratch holds the working buffers of one Map decision so the
// simulator's per-instance loop can place tiles without allocating. The
// Mapping returned by MapInto aliases the scratch and is valid until the
// next MapInto call on the same scratch. The zero value is ready to use;
// a MapScratch must not be shared between goroutines.
type MapScratch struct {
	physOf    []int
	taken     []bool
	busyCrit  []int
	busyRest  []int
	initTiles []int
	unmatched []int
	others    []int
}

// MapInto is Map with caller-owned scratch buffers; the returned
// Mapping's PhysOf slice is owned by sc.
func MapInto(s *assign.Schedule, st *State, opt MapOptions, sc *MapScratch) (Mapping, error) {
	k := s.Tiles
	if k > st.Tiles() {
		return Mapping{}, fmt.Errorf("reconfig: schedule needs %d tiles, platform has %d", k, st.Tiles())
	}
	policy := opt.Policy
	if policy == nil {
		policy = LRU{}
	}

	if cap(sc.physOf) < k {
		sc.physOf = make([]int, k)
	}
	if cap(sc.taken) < st.Tiles() {
		sc.taken = make([]bool, st.Tiles())
	}
	m := Mapping{PhysOf: sc.physOf[:k]}
	taken := sc.taken[:st.Tiles()]
	for v := range m.PhysOf {
		m.PhysOf[v] = -1
	}
	// A restricted Allowed set is implemented by pre-claiming every
	// other tile: all the passes below (reuse matches, drain scans,
	// victim candidates, parking) already skip taken tiles, so none of
	// them can touch a tile outside the claim.
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

	// Partition the busy virtual tiles by the criticality of their
	// first subtask, each group in descending weight order.
	busyCrit, busyRest := sc.busyCrit[:0], sc.busyRest[:0]
	for v := 0; v < k; v++ {
		if len(s.TileOrder[v]) == 0 {
			continue
		}
		first := s.TileOrder[v][0]
		if opt.Critical != nil && opt.Critical(first) {
			busyCrit = append(busyCrit, v)
		} else {
			busyRest = append(busyRest, v)
		}
	}
	// Stable insertion sort by descending first-subtask weight (index
	// tie-break): identical ordering to sort.SliceStable under the same
	// comparator, without the reflection allocation.
	byWeight := func(vs []int) {
		for i := 1; i < len(vs); i++ {
			for j := i; j > 0; j-- {
				wa := s.Weights[s.TileOrder[vs[j-1]][0]]
				wb := s.Weights[s.TileOrder[vs[j]][0]]
				if wa > wb || (wa == wb && vs[j-1] < vs[j]) {
					break
				}
				vs[j-1], vs[j] = vs[j], vs[j-1]
			}
		}
	}
	byWeight(busyCrit)
	byWeight(busyRest)
	sc.busyCrit, sc.busyRest = busyCrit[:0], busyRest[:0]

	match := func(v int) bool {
		cfg := s.G.Subtask(s.TileOrder[v][0]).Config
		// The taken filter comes first — before the element read, so a
		// restricted Allowed set never reads residency outside the
		// claim, like every other pass.
		for t := range st.Configs {
			if taken[t] {
				continue
			}
			if c := st.Configs[t]; c != "" && c == cfg {
				claim(v, t)
				return true
			}
		}
		return false
	}

	// Pass 1: critical reuse matches.
	initTiles := sc.initTiles[:0]
	for _, v := range busyCrit {
		if !match(v) {
			initTiles = append(initTiles, v)
		}
	}
	sc.initTiles = initTiles[:0]
	// Pass 2: unmatched critical subtasks need initialization loads;
	// give them the earliest-draining tiles so the inter-task window
	// can hide those loads. Empty tiles have a zero LastUse and win
	// automatically.
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
	// Pass 3: non-critical reuse matches on what remains.
	unmatched := sc.unmatched[:0]
	for _, v := range busyRest {
		if !match(v) {
			unmatched = append(unmatched, v)
		}
	}
	sc.unmatched = unmatched[:0]
	// Pass 4: replacement policy picks victims for the rest. Empty
	// tiles are preferred outright — evicting nothing is always safe.
	for _, v := range unmatched {
		firstEmpty := -1
		others := sc.others[:0]
		for t := 0; t < st.Tiles(); t++ {
			if taken[t] {
				continue
			}
			if st.Configs[t] == "" {
				if firstEmpty < 0 {
					firstEmpty = t
				}
			} else {
				others = append(others, t)
			}
		}
		sc.others = others[:0]
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

	// Pass 5: park idle virtual tiles on leftovers. With the full
	// fabric available there is always a distinct leftover per idle
	// tile (k never exceeds the tile count); under a restricted claim
	// the leftovers can run out, in which case parking reuses a claimed
	// tile — parked rows are inert (they execute nothing, are never
	// committed, and their availability floor is never consulted), so
	// duplicates are harmless.
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

// ResidentInto is Resident writing into a caller-owned map (cleared
// first), so the reuse module's per-instance query reuses one map for a
// whole simulation run. Passing nil allocates as Resident does.
func ResidentInto(res map[graph.SubtaskID]bool, s *assign.Schedule, st *State, m Mapping) map[graph.SubtaskID]bool {
	if res == nil {
		res = make(map[graph.SubtaskID]bool)
	} else {
		clear(res)
	}
	for v := 0; v < s.Tiles; v++ {
		cur := st.Configs[m.PhysOf[v]]
		for _, id := range s.TileOrder[v] {
			cfg := s.G.Subtask(id).Config
			if cfg == cur {
				res[id] = true
			} else {
				cur = cfg
			}
		}
	}
	return res
}
