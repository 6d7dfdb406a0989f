package reconfig

import (
	"fmt"
	"slices"
	"unique"

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
	empty     []int
	occupied  []int
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

	keys := s.G.ConfigKeys()
	match := func(v int) bool {
		// Graph handles are never zero, so an empty tile never
		// matches. The taken filter comes first, so a restricted
		// Allowed set never reads residency outside the claim, like
		// every other pass.
		cfg := keys[s.TileOrder[v][0]]
		for t, c := range st.keys {
			if c == cfg && !taken[t] {
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
	// The free tiles are split once into ascending empty and occupied
	// lists, and each claim removes its tile, so the policy sees the
	// same candidates as a rescan of the free tiles per virtual tile.
	empty, occupied := sc.empty[:0], sc.occupied[:0]
	if len(unmatched) > 0 {
		for t, c := range st.keys {
			switch {
			case taken[t]:
			case c == (unique.Handle[graph.ConfigID]{}):
				empty = append(empty, t)
			default:
				occupied = append(occupied, t)
			}
		}
	}
	sc.empty, sc.occupied = empty[:0], occupied[:0]
	for _, v := range unmatched {
		var pick int
		switch {
		case len(empty) > 0:
			pick, empty = empty[0], empty[1:]
		case len(occupied) > 0:
			pick = policy.Victim(st, occupied, opt.Future)
			if i := slices.Index(occupied, pick); i >= 0 {
				occupied = append(occupied[:i], occupied[i+1:]...)
			}
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

// ResidentInto is Resident writing into a caller-owned vector (cleared
// and resized first), so the reuse module's per-instance query reuses
// one buffer for a whole simulation run. Passing nil allocates as
// Resident does.
func ResidentInto(res []bool, s *assign.Schedule, st *State, m Mapping) []bool {
	n := s.G.Len()
	if cap(res) < n {
		res = make([]bool, n)
	} else {
		res = res[:n]
		clear(res)
	}
	keys := s.G.ConfigKeys()
	for v := 0; v < s.Tiles; v++ {
		cur := st.keys[m.PhysOf[v]]
		for _, id := range s.TileOrder[v] {
			cfg := keys[id]
			if cfg == cur {
				res[id] = true
			} else {
				cur = cfg
			}
		}
	}
	return res
}
