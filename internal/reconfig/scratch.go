package reconfig

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"unique"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
)

// Plan is the design-time half of the replacement module: everything
// about a mapping decision that depends only on the schedule and its
// CS set, computed once per stored schedule and shared read-only by
// every instance (and every goroutine) that maps it.
//
// It lists the busy virtual tiles in the order the mapping passes visit
// them, each with its first subtask's configuration handle, and the
// idle virtual tiles that are parked. It also holds the static part of
// the reuse module's answer: within an instance, a subtask that is not
// first on its tile finds its configuration resident exactly when its
// predecessor on the tile has the same configuration, whatever the
// fabric held before. Only first-on-tile residency is read from the
// fabric at run time.
type Plan struct {
	tiles int
	// busy holds the virtual tiles that execute anything: the nCrit
	// tiles whose first subtask is critical, then the rest, each group
	// by descending first-subtask weight (virtual index breaks ties).
	busy  []planTile
	nCrit int
	// idle holds the virtual tiles that execute nothing, ascending.
	idle []int
	// within is the static residency vector, indexed by subtask ID:
	// true for a subtask that follows a same-configuration subtask on
	// its tile. First-on-tile entries are false.
	within []bool
}

// planTile is one busy virtual tile of a Plan.
type planTile struct {
	v     int
	first graph.SubtaskID
	key   unique.Handle[graph.ConfigID]
}

// NewPlan builds the mapping plan of s. critical reports whether a
// subtask is in the CS set (see MapOptions.Critical); nil means none is.
func NewPlan(s *assign.Schedule, critical func(graph.SubtaskID) bool) *Plan {
	keys := s.G.ConfigKeys()
	p := &Plan{
		tiles:  s.Tiles,
		busy:   make([]planTile, 0, s.Tiles),
		within: make([]bool, s.G.Len()),
	}
	for v := 0; v < s.Tiles; v++ {
		order := s.TileOrder[v]
		if len(order) == 0 {
			p.idle = append(p.idle, v)
		}
		for j := 1; j < len(order); j++ {
			p.within[order[j]] = keys[order[j]] == keys[order[j-1]]
		}
	}
	byWeight := func(a, b planTile) int { return cmp.Compare(s.Weights[b.first], s.Weights[a.first]) }
	for _, crit := range [...]bool{true, false} {
		from := len(p.busy)
		for v := 0; v < s.Tiles; v++ {
			if order := s.TileOrder[v]; len(order) > 0 && (critical != nil && critical(order[0])) == crit {
				p.busy = append(p.busy, planTile{v: v, first: order[0], key: keys[order[0]]})
			}
		}
		slices.SortStableFunc(p.busy[from:], byWeight)
		if crit {
			p.nCrit = len(p.busy)
		}
	}
	return p
}

// MapScratch holds the working buffers of one Map decision so the
// simulator's per-instance loop can place tiles without allocating. The
// Mapping returned by MapInto aliases the scratch and is valid until the
// next MapInto call on the same scratch. The zero value is ready to use;
// a MapScratch must not be shared between goroutines.
type MapScratch struct {
	physOf []int
	// free is the set of physical tiles still open to this decision:
	// bit t%64 of word t/64 is set while tile t is inside the claim and
	// not yet taken.
	free      []uint64
	initTiles []int
	unmatched []int
	empty     []int
	occupied  []int
}

// MapInto places the plan's virtual tiles on physical tiles with
// caller-owned scratch buffers; the returned Mapping's PhysOf slice is
// owned by sc. Criticality comes from the plan: opt.Critical is read
// only by Map, which builds the plan from it.
func MapInto(p *Plan, st *State, opt MapOptions, sc *MapScratch) (Mapping, error) {
	k, n := p.tiles, st.Tiles()
	if k > n {
		return Mapping{}, fmt.Errorf("reconfig: schedule needs %d tiles, platform has %d", k, n)
	}
	policy := opt.Policy
	if policy == nil {
		policy = LRU{}
	}

	if cap(sc.physOf) < k {
		sc.physOf = make([]int, k)
	}
	words := (n + 63) / 64
	if cap(sc.free) < words {
		sc.free = make([]uint64, words)
	}
	m := Mapping{PhysOf: sc.physOf[:k]}
	free := sc.free[:words]
	// A restricted Allowed set is the free set: every pass below
	// (reuse matches, drain scans, victim candidates, parking) reads
	// only free tiles, so none of them can touch a tile outside the
	// claim.
	if opt.Allowed == nil {
		for w := range free {
			free[w] = ^uint64(0)
		}
		if r := n % 64; r != 0 {
			free[words-1] = 1<<r - 1
		}
	} else {
		clear(free)
		for _, t := range opt.Allowed {
			if t < 0 || t >= n {
				return Mapping{}, fmt.Errorf("reconfig: allowed tile %d outside platform of %d tiles", t, n)
			}
			free[t>>6] |= 1 << (t & 63)
		}
	}
	claim := func(v, t int) {
		m.PhysOf[v] = t
		free[t>>6] &^= 1 << (t & 63)
	}
	// match claims the lowest free tile holding the configuration.
	// Graph handles are never zero, so an empty tile never matches.
	match := func(pt planTile) bool {
		for w, word := range free {
			for ; word != 0; word &= word - 1 {
				if t := w<<6 | bits.TrailingZeros64(word); st.keys[t] == pt.key {
					claim(pt.v, t)
					return true
				}
			}
		}
		return false
	}

	// Pass 1: critical reuse matches.
	initTiles := sc.initTiles[:0]
	for _, pt := range p.busy[:p.nCrit] {
		if !match(pt) {
			initTiles = append(initTiles, pt.v)
		}
	}
	sc.initTiles = initTiles[:0]
	// Pass 2: unmatched critical subtasks need initialization loads;
	// give them the earliest-draining tiles so the inter-task window
	// can hide those loads. Empty tiles have a zero LastUse and win
	// automatically.
	for _, v := range initTiles {
		best := -1
		for w, word := range free {
			for ; word != 0; word &= word - 1 {
				if t := w<<6 | bits.TrailingZeros64(word); best < 0 || st.LastUse[t] < st.LastUse[best] {
					best = t
				}
			}
		}
		if best < 0 {
			return Mapping{}, fmt.Errorf("reconfig: ran out of physical tiles")
		}
		claim(v, best)
	}
	// Pass 3: non-critical reuse matches on what remains.
	unmatched := sc.unmatched[:0]
	for _, pt := range p.busy[p.nCrit:] {
		if !match(pt) {
			unmatched = append(unmatched, pt.v)
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
		for w, word := range free {
			for ; word != 0; word &= word - 1 {
				if t := w<<6 | bits.TrailingZeros64(word); st.keys[t] == (unique.Handle[graph.ConfigID]{}) {
					empty = append(empty, t)
				} else {
					occupied = append(occupied, t)
				}
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

	// Pass 5: park idle virtual tiles on the leftovers, ascending.
	// With the full fabric available there is always a distinct
	// leftover per idle tile (k never exceeds the tile count); under a
	// restricted claim the leftovers can run out, in which case parking
	// reuses a claimed tile — parked rows are inert (they execute
	// nothing, are never committed, and their availability floor is
	// never consulted), so duplicates are harmless.
	idle := p.idle
	for w := 0; w < words && len(idle) > 0; w++ {
		for word := free[w]; word != 0 && len(idle) > 0; word &= word - 1 {
			m.PhysOf[idle[0]] = w<<6 | bits.TrailingZeros64(word)
			idle = idle[1:]
		}
	}
	spare := 0
	if len(opt.Allowed) > 0 {
		spare = opt.Allowed[0]
	}
	for _, v := range idle {
		m.PhysOf[v] = spare
	}
	return m, nil
}

// ResidentInto is Resident writing into a caller-owned vector (resized
// first), so the reuse module's per-instance query reuses one buffer
// for a whole simulation run. Passing nil allocates as Resident does.
// m must place the plan's schedule.
func ResidentInto(res []bool, p *Plan, st *State, m Mapping) []bool {
	if cap(res) < len(p.within) {
		res = make([]bool, len(p.within))
	}
	res = res[:len(p.within)]
	copy(res, p.within)
	for _, pt := range p.busy {
		res[pt.first] = st.keys[m.PhysOf[pt.v]] == pt.key
	}
	return res
}
