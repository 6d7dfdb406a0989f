// Package reconfig implements the run-time reuse and replacement
// modules that flank the prefetch module in the paper's scheduling flow
// (Fig. 2, detailed in the authors' DAC'04 work [6]).
//
// The reuse module answers "which subtasks of this instance already have
// their configuration on a tile?". The replacement module answers "which
// physical tile should each load target?", trying to maximize the
// percentage of reused configurations — both for this instance (mapping
// virtual tiles onto the physical tiles that hold their configurations)
// and for future ones (evicting the least valuable configurations
// first, under a pluggable policy).
//
// Initial schedules are computed in a *virtual* tile space (tile indices
// 0..k-1 chosen by the design-time scheduler). Because all tiles are
// identical, the run-time system is free to permute them; Map picks the
// permutation.
//
// Like the prefetch heuristic it flanks, the replacement module is
// split between design time and run time. A Plan, built once per stored
// schedule, fixes everything the schedule and its CS set decide: the
// order in which the mapping passes visit the busy virtual tiles, their
// first configurations, and which subtasks find their configuration
// left on the tile by their predecessor. The run-time half, MapInto and
// ResidentInto, then reads only what the fabric decides: which free
// tiles hold which configuration, and how long ago each was used.
package reconfig

import (
	"math/rand"
	"unique"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
)

// State tracks what is resident on every physical tile.
//
// Residency is held as interned configuration handles
// (graph.Graph.ConfigKey), so the per-instance reuse checks compare
// handles; names are read back through Config only at the edges
// (lookahead policies, fabric admission, trace events).
type State struct {
	// keys holds the configuration on each tile; the zero handle
	// means the tile has never been configured.
	keys []unique.Handle[graph.ConfigID]
	// LastUse is the last time the tile executed or loaded anything.
	LastUse []model.Time
	// LoadedAt is when the current configuration was loaded.
	LoadedAt []model.Time
}

// NewState returns an all-empty tile state.
func NewState(tiles int) *State {
	return &State{
		keys:     make([]unique.Handle[graph.ConfigID], tiles),
		LastUse:  make([]model.Time, tiles),
		LoadedAt: make([]model.Time, tiles),
	}
}

// Reset returns the state to all-empty in place, without allocating —
// the cold start of a fresh fabric, reused across independent
// simulation replications.
func (st *State) Reset() {
	clear(st.keys)
	clear(st.LastUse)
	clear(st.LoadedAt)
}

// Tiles reports the number of physical tiles tracked.
func (st *State) Tiles() int { return len(st.keys) }

// Config returns the configuration resident on tile, or "" if the tile
// has never been configured.
func (st *State) Config(tile int) graph.ConfigID {
	if k := st.keys[tile]; k != (unique.Handle[graph.ConfigID]{}) {
		return k.Value()
	}
	return ""
}

// Key returns the interned handle of the configuration resident on
// tile; the zero handle means the tile is empty. It equals
// graph.Graph.ConfigKey of every subtask with that configuration.
func (st *State) Key(tile int) unique.Handle[graph.ConfigID] { return st.keys[tile] }

// Set records that tile now holds cfg, loaded at the given time. An
// empty cfg empties the tile.
func (st *State) Set(tile int, cfg graph.ConfigID, at model.Time) {
	var k unique.Handle[graph.ConfigID]
	if cfg != "" {
		k = unique.Make(cfg)
	}
	st.set(tile, k, at)
}

func (st *State) set(tile int, k unique.Handle[graph.ConfigID], at model.Time) {
	st.keys[tile] = k
	st.LoadedAt[tile] = at
	st.LastUse[tile] = at
}

// Touch records that tile was used (executed on) at the given time
// without changing its configuration.
func (st *State) Touch(tile int, at model.Time) {
	if at > st.LastUse[tile] {
		st.LastUse[tile] = at
	}
}

// Policy selects which tile to sacrifice when a load needs a target and
// no tile holding the wanted configuration is available.
type Policy interface {
	Name() string
	// Victim picks one tile from candidates (never empty, ascending,
	// read-only). future lists the configurations of upcoming
	// subtasks, nearest first, for lookahead policies; it may be nil.
	Victim(st *State, candidates []int, future []graph.ConfigID) int
}

// Lookahead is implemented by the policies that read Victim's future
// argument. The simulator builds the upcoming configuration stream
// only for them; every other policy receives nil.
type Lookahead interface {
	Policy
	ReadsFuture()
}

// LRU evicts the tile that has been idle longest — the paper's default
// replacement behaviour.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "lru" }

// Victim implements Policy.
func (LRU) Victim(st *State, candidates []int, _ []graph.ConfigID) int {
	best := candidates[0]
	for _, t := range candidates[1:] {
		if st.LastUse[t] < st.LastUse[best] {
			best = t
		}
	}
	return best
}

// FIFO evicts the tile whose configuration is oldest.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Victim implements Policy.
func (FIFO) Victim(st *State, candidates []int, _ []graph.ConfigID) int {
	best := candidates[0]
	for _, t := range candidates[1:] {
		if st.LoadedAt[t] < st.LoadedAt[best] {
			best = t
		}
	}
	return best
}

// Belady evicts the configuration whose next use lies farthest in the
// known future (never used again beats everything). With the TCM
// run-time scheduler publishing the upcoming task sequence, this is the
// strongest reuse-preserving policy available.
type Belady struct{}

// Name implements Policy.
func (Belady) Name() string { return "belady" }

// ReadsFuture implements Lookahead.
func (Belady) ReadsFuture() {}

// Victim implements Policy.
func (Belady) Victim(st *State, candidates []int, future []graph.ConfigID) int {
	best, bestDist := candidates[0], -1
	for _, t := range candidates {
		// Empty tiles are free victims, like configurations never
		// used again; otherwise the distance is the first use.
		dist := 1 << 30
		if c := st.Config(t); c != "" {
			for i, f := range future {
				if f == c {
					dist = i
					break
				}
			}
		}
		if dist > bestDist || (dist == bestDist && st.LastUse[t] < st.LastUse[best]) {
			best, bestDist = t, dist
		}
	}
	return best
}

// Random evicts uniformly at random; the ablation baseline.
type Random struct{ Rng *rand.Rand }

// Name implements Policy.
func (Random) Name() string { return "random" }

// Victim implements Policy.
func (r Random) Victim(_ *State, candidates []int, _ []graph.ConfigID) int {
	if r.Rng == nil {
		return candidates[0]
	}
	return candidates[r.Rng.Intn(len(candidates))]
}

// Mapping is a placement of a schedule's virtual tiles onto distinct
// physical tiles.
type Mapping struct {
	// PhysOf maps each virtual tile to its physical tile.
	PhysOf []int
}

// MapOptions tune the mapping decision.
type MapOptions struct {
	// Policy picks victims for virtual tiles without a reuse match.
	// Nil means LRU.
	Policy Policy
	// Critical reports whether a subtask is in the CS set; reusing a
	// critical subtask saves initialization time, not just energy, so
	// matching them gets priority. May be nil. Map builds its Plan
	// from it; MapInto reads the criticality fixed in its Plan instead.
	Critical func(graph.SubtaskID) bool
	// Future lists upcoming configurations for lookahead policies.
	Future []graph.ConfigID
	// Allowed restricts the mapping to these physical tiles — the
	// instance's fabric claim under hardware multitasking. Tiles
	// outside the set are never reuse matches, never offered to the
	// replacement policy as victims, and never parking targets (so an
	// executing or load-pending tile of a concurrent instance cannot be
	// disturbed). Nil means every tile of the state is available, which
	// reproduces the single-instance behaviour exactly.
	Allowed []int
}

// Map places the schedule's virtual tiles on physical tiles.
//
// The goals, in priority order, mirror the paper's replacement module:
//
//  1. Critical first-on-tile subtasks find their configuration resident
//     (saving initialization-phase time, not just energy).
//  2. Critical subtasks that must be loaded anyway land on the tiles
//     that drain earliest, so the initialization phase fits into the
//     previous task's idle reconfiguration window. This may steal a
//     tile that would have given a *non-critical* subtask a reuse hit:
//     that reuse only saved energy (its load was hidden by
//     construction), while an exposed initialization load costs real
//     time.
//  3. Non-critical first-on-tile subtasks reuse what is left.
//  4. Everything else takes eviction victims under the replacement
//     policy; empty tiles are preferred outright.
//
// Virtual tiles that execute nothing are parked on the leftover
// physical tiles so the configurations there survive for future tasks.
func Map(s *assign.Schedule, st *State, opt MapOptions) (Mapping, error) {
	// A fresh scratch per call keeps the returned mapping unaliased;
	// hot loops build the plan once and reuse buffers via MapInto.
	return MapInto(NewPlan(s, opt.Critical), st, opt, new(MapScratch))
}

// Resident reports, per subtask, whether its configuration is already on
// its mapped physical tile when its turn comes: either carried over from
// the previous task (first on the tile) or left by an earlier same-
// configuration subtask of this very instance. The result is indexed by
// subtask ID.
func Resident(s *assign.Schedule, st *State, m Mapping) []bool {
	return ResidentInto(nil, NewPlan(s, nil), st, m)
}

// Commit updates the state after the instance ran: each busy tile holds
// the configuration of the last subtask it executed, loads refresh
// LoadedAt, and LastUse advances to the tile's final activity. resident
// is the instance's residency vector (nil: nothing was resident).
func Commit(s *assign.Schedule, st *State, m Mapping, resident []bool, endOf func(graph.SubtaskID) model.Time) {
	keys := s.G.ConfigKeys()
	for v := 0; v < s.Tiles; v++ {
		order := s.TileOrder[v]
		if len(order) == 0 {
			continue
		}
		phys := m.PhysOf[v]
		for _, id := range order {
			end := endOf(id)
			if resident != nil && resident[id] {
				st.Touch(phys, end)
			} else {
				st.set(phys, keys[id], end)
			}
		}
	}
}
