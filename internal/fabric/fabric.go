// Package fabric owns the shared run-time state of the reconfigurable
// platform: which configuration is resident on every tile
// (reconfig.State), when every tile, reconfiguration port and ISP
// becomes available, which tiles are currently held by an in-flight
// task instance, and the replacement policy that picks eviction
// victims. Before this package existed that state was smeared across
// the simulation kernel (availability vectors, a scalar port clock) and
// reconfig.State; pulling it behind one type is what lets the kernel
// run several task instances concurrently on disjoint tile partitions —
// the online hardware-multitasking model of Sanchez-Elez & Roman
// (arXiv:1301.3281) and of task-based preemptive partial
// reconfiguration (arXiv:2301.07615) — without any caller reaching into
// another instance's tiles.
//
// An instance's evaluated schedule.Timeline is the only thing that
// carries availability to the next instance, for every scheduling
// approach: Availability is the one reader (with PortFree for the
// ports), Advance the one writer of tiles, ISPs and ports.
//
// Admission is a pluggable seam (Allocation): Serial grants the whole
// fabric to one instance at a time (the paper's original execution
// model), Partition carves the tiles into fixed blocks, and Greedy
// claims any free tiles, preferring ones that already hold wanted
// configurations. A Fabric is not safe for concurrent use; the
// simulation kernel drives it from a single goroutine.
package fabric

import (
	"fmt"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/schedule"
)

// Fabric is the shared platform run-time state.
type Fabric struct {
	p      platform.Platform
	policy reconfig.Policy

	state    *reconfig.State
	tileFree []model.Time // per physical tile, when it drains
	portFree []model.Time // per reconfiguration port, when it goes idle
	ispFree  []model.Time // per ISP, when it drains

	busy     []bool // tile held by an in-flight instance
	freeN    int    // count of non-busy tiles
	inflight int    // instances currently holding a claim (possibly empty)
}

// New builds an all-idle fabric for p under the given replacement
// policy (nil means LRU, the default module).
func New(p platform.Platform, policy reconfig.Policy) *Fabric {
	if policy == nil {
		policy = reconfig.LRU{}
	}
	return &Fabric{
		p:        p,
		policy:   policy,
		state:    reconfig.NewState(p.Tiles),
		tileFree: make([]model.Time, p.Tiles),
		portFree: make([]model.Time, p.Ports),
		ispFree:  make([]model.Time, p.ISPs),
		busy:     make([]bool, p.Tiles),
		freeN:    p.Tiles,
	}
}

// Reset returns the fabric to the all-idle, nothing-resident state of
// New, in place and without allocating. The parallel simulation kernel
// calls it between independent Monte-Carlo replications so one fabric
// per shard serves every iteration. Resetting with claims still in
// flight is a bug and panics.
func (f *Fabric) Reset() {
	if f.inflight != 0 {
		panic(fmt.Sprintf("fabric: reset with %d instances in flight", f.inflight))
	}
	f.state.Reset()
	for i := range f.tileFree {
		f.tileFree[i] = 0
	}
	for i := range f.portFree {
		f.portFree[i] = 0
	}
	for i := range f.ispFree {
		f.ispFree[i] = 0
	}
	for i := range f.busy {
		f.busy[i] = false
	}
	f.freeN = f.p.Tiles
}

// Tiles, Ports and ISPs report the resource counts.
func (f *Fabric) Tiles() int { return f.p.Tiles }

// Ports reports the reconfiguration-controller count.
func (f *Fabric) Ports() int { return f.p.Ports }

// ISPs reports the instruction-set-processor count.
func (f *Fabric) ISPs() int { return f.p.ISPs }

// State exposes the residency state (what configuration sits on each
// tile). The reuse and replacement modules read and commit through it.
func (f *Fabric) State() *reconfig.State { return f.state }

// Policy is the replacement-policy hook victims are picked with.
func (f *Fabric) Policy() reconfig.Policy { return f.policy }

// Availability fills dst (reused, grown as needed) with the
// per-processor drain times of an instance of s placed by m, its
// schedule.Instance.TileFree: virtual tile v reads physical tile
// m.PhysOf[v], and ISP row s.Tiles+i reads ISP i.
func (f *Fabric) Availability(s *assign.Schedule, m reconfig.Mapping, dst []model.Time) []model.Time {
	rows := len(s.TileOrder)
	if cap(dst) < rows {
		dst = make([]model.Time, rows)
	}
	dst = dst[:rows]
	for v := 0; v < s.Tiles; v++ {
		dst[v] = f.tileFree[m.PhysOf[v]]
	}
	for v := s.Tiles; v < rows; v++ {
		dst[v] = f.ispFree[v-s.Tiles]
	}
	return dst
}

// Advance commits an instance's evaluated timeline tl (of s placed by
// m): every processor row that executed drains at the end of its last
// execution, which is the row's last activity because each row
// executes in TileOrder and a load always ends before its own
// execution starts; the ports take tl.PortFreeAfter. Tile and ISP
// availability only ever moves forward.
func (f *Fabric) Advance(s *assign.Schedule, m reconfig.Mapping, tl *schedule.Timeline) {
	for v, row := range s.TileOrder {
		if len(row) == 0 {
			continue
		}
		end := tl.ExecEnd[row[len(row)-1]]
		if v < s.Tiles {
			t := m.PhysOf[v]
			f.tileFree[t] = model.MaxT(f.tileFree[t], end)
		} else {
			i := v - s.Tiles
			f.ispFree[i] = model.MaxT(f.ispFree[i], end)
		}
	}
	copy(f.portFree, tl.PortFreeAfter)
}

// PortFree exposes the per-port availability timeline. Callers must
// treat the slice as read-only; Advance writes it.
func (f *Fabric) PortFree() []model.Time { return f.portFree }

// MinPortFree reports the earliest instant any reconfiguration port is
// idle — the floor the inter-task optimization may prefetch from.
func (f *Fabric) MinPortFree() model.Time {
	min := f.portFree[0]
	for _, t := range f.portFree[1:] {
		if t < min {
			min = t
		}
	}
	return min
}

// InUse reports whether tile t is held by an in-flight instance. Tiles
// in use are never granted to another instance and never offered to the
// replacement policy as eviction victims.
func (f *Fabric) InUse(t int) bool { return f.busy[t] }

// FreeTiles reports how many tiles are not held by any instance.
func (f *Fabric) FreeTiles() int { return f.freeN }

// InFlight reports how many instances currently hold a claim.
func (f *Fabric) InFlight() int { return f.inflight }

// Acquire asks the allocation policy to grant need tiles for an
// instance wanting the given configurations, appending the claimed
// physical tiles to dst (pass a reused buffer with length 0). On
// success the claimed tiles are marked in use and the claim counts as
// in flight — Release must be called exactly once per successful
// Acquire, even for an empty claim (an all-ISP instance). A false
// return means the instance must wait for a release.
func (f *Fabric) Acquire(a Allocation, need int, cfgs []graph.ConfigID, dst []int) ([]int, bool) {
	claim, ok := a.Grant(f, need, cfgs, dst)
	if !ok {
		return dst, false
	}
	for _, t := range claim {
		if f.busy[t] {
			panic(fmt.Sprintf("fabric: allocation %q granted in-use tile %d", a.Name(), t))
		}
		f.busy[t] = true
		f.freeN--
	}
	f.inflight++
	return claim, true
}

// Release returns a claim's tiles to the free pool when its instance
// completes.
func (f *Fabric) Release(claim []int) {
	for _, t := range claim {
		if !f.busy[t] {
			panic(fmt.Sprintf("fabric: releasing tile %d that is not in use", t))
		}
		f.busy[t] = false
		f.freeN++
	}
	f.inflight--
}
