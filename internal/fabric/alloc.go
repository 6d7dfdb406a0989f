package fabric

import "drhwsched/internal/graph"

// Allocation is the admission-policy seam: given an instance's tile
// need (its count of busy virtual tiles) and the configurations it will
// execute, grant a set of free physical tiles or report that the
// instance must queue until a release. Implementations must be
// deterministic (ties broken by lowest tile index) and must never grant
// a tile that is in use, so an executing or load-pending tile can never
// become another instance's mapping target or eviction victim.
//
// Any need up to the fabric's tile count must be grantable on an idle
// fabric; together with FIFO admission in the kernel this rules out
// starvation — when everything retires, the whole fabric is free.
type Allocation interface {
	// Name identifies the mode on the wire ("serial", "partition",
	// "greedy").
	Name() string
	// Grant appends the claimed physical tiles to dst and reports
	// success. On failure dst is returned unchanged.
	Grant(f *Fabric, need int, cfgs []graph.ConfigID, dst []int) ([]int, bool)
}

// Serial grants the entire fabric to one instance at a time — the
// paper's original execution model, in which every task instance owns
// the whole FPGA. Under Serial the kernel's event loop degenerates to
// the sequential back-to-back replay, bit for bit.
type Serial struct{}

// Name implements Allocation.
func (Serial) Name() string { return "serial" }

// Grant implements Allocation: all tiles, or nothing while any other
// instance (even an all-ISP one holding no tiles) is in flight.
func (Serial) Grant(f *Fabric, _ int, _ []graph.ConfigID, dst []int) ([]int, bool) {
	if f.InFlight() > 0 || f.FreeTiles() < f.Tiles() {
		return dst, false
	}
	for t := 0; t < f.Tiles(); t++ {
		dst = append(dst, t)
	}
	return dst, true
}

// Partition carves the fabric into Blocks fixed, equally sized tile
// blocks (the last block absorbs the remainder). An instance claims the
// first run of consecutive free blocks large enough for its need —
// whole blocks, so unused tiles inside a claimed block stay idle
// (the fragmentation cost of fixed partitioning). Blocks = 1 makes the
// whole fabric one block: serial admission through the partition path.
type Partition struct {
	// Blocks is the partition count; it must be in [1, tiles].
	Blocks int
}

// Name implements Allocation.
func (Partition) Name() string { return "partition" }

// blockBounds returns block b's tile range [lo, hi).
func (a Partition) blockBounds(tiles, b int) (int, int) {
	size := tiles / a.Blocks
	lo := b * size
	hi := lo + size
	if b == a.Blocks-1 {
		hi = tiles
	}
	return lo, hi
}

// Grant implements Allocation: first-fit over runs of consecutive free
// blocks.
func (a Partition) Grant(f *Fabric, need int, _ []graph.ConfigID, dst []int) ([]int, bool) {
	if need <= 0 {
		return dst, true
	}
	tiles := f.Tiles()
	for start := 0; start < a.Blocks; start++ {
		got := 0
		end := start
		for ; end < a.Blocks && got < need; end++ {
			lo, hi := a.blockBounds(tiles, end)
			free := true
			for t := lo; t < hi; t++ {
				if f.InUse(t) {
					free = false
					break
				}
			}
			if !free {
				break
			}
			got += hi - lo
		}
		if got < need {
			continue
		}
		for b := start; b < end; b++ {
			lo, hi := a.blockBounds(tiles, b)
			for t := lo; t < hi; t++ {
				dst = append(dst, t)
			}
		}
		return dst, true
	}
	return dst, false
}

// Greedy claims exactly need free tiles anywhere on the fabric,
// preferring tiles that already hold one of the instance's wanted
// configurations (preserving reuse), then the free tiles that have been
// idle longest (so recently used residencies survive for their owners).
type Greedy struct{}

// Name implements Allocation.
func (Greedy) Name() string { return "greedy" }

// Grant implements Allocation.
func (Greedy) Grant(f *Fabric, need int, cfgs []graph.ConfigID, dst []int) ([]int, bool) {
	if need <= 0 {
		return dst, true
	}
	if f.FreeTiles() < need {
		return dst, false
	}
	base := len(dst)
	st := f.State()
	// Pass 1: free tiles already holding a wanted configuration, in
	// ascending tile order.
	for t := 0; t < f.Tiles() && len(dst)-base < need; t++ {
		if f.InUse(t) || st.Config(t) == "" {
			continue
		}
		for _, c := range cfgs {
			if st.Config(t) == c {
				dst = append(dst, t)
				break
			}
		}
	}
	// Pass 2: fill with the least recently used remaining free tiles
	// (lowest index on ties).
	for len(dst)-base < need {
		best := -1
		for t := 0; t < f.Tiles(); t++ {
			if f.InUse(t) || claimed(dst[base:], t) {
				continue
			}
			if best < 0 || st.LastUse[t] < st.LastUse[best] {
				best = t
			}
		}
		dst = append(dst, best)
	}
	return dst, true
}

func claimed(claim []int, t int) bool {
	for _, c := range claim {
		if c == t {
			return true
		}
	}
	return false
}
