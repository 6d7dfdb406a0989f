package fabric

import (
	"slices"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/schedule"
)

func testFabric(tiles int) *Fabric {
	p := platform.Default(tiles)
	p.Ports = 2
	p.ISPs = 1
	return New(p, nil)
}

func acquire(t *testing.T, f *Fabric, a Allocation, need int, cfgs []graph.ConfigID) []int {
	t.Helper()
	claim, ok := f.Acquire(a, need, cfgs, nil)
	if !ok {
		t.Fatalf("%s: acquire(%d) refused with %d free tiles", a.Name(), need, f.FreeTiles())
	}
	return claim
}

func TestSerialGrantsWholeFabricExclusively(t *testing.T) {
	f := testFabric(4)
	claim := acquire(t, f, Serial{}, 2, nil)
	if len(claim) != 4 {
		t.Fatalf("serial claim = %v, want all 4 tiles", claim)
	}
	if _, ok := f.Acquire(Serial{}, 1, nil, nil); ok {
		t.Fatal("serial admitted a second instance while one is in flight")
	}
	f.Release(claim)
	if f.FreeTiles() != 4 || f.InFlight() != 0 {
		t.Fatalf("after release: %d free, %d in flight", f.FreeTiles(), f.InFlight())
	}
}

func TestSerialExcludesZeroTileInstances(t *testing.T) {
	// Even an instance needing no tiles (all-ISP) owns the whole fabric
	// in serial mode: the paper's model runs one instance at a time.
	f := testFabric(2)
	claim := acquire(t, f, Serial{}, 0, nil)
	if _, ok := f.Acquire(Serial{}, 1, nil, nil); ok {
		t.Fatal("serial admitted alongside an in-flight zero-tile instance")
	}
	f.Release(claim)
	if _, ok := f.Acquire(Serial{}, 1, nil, nil); !ok {
		t.Fatal("serial refused an idle fabric")
	}
}

func TestPartitionBlocksAndQueueing(t *testing.T) {
	f := testFabric(8)
	a := Partition{Blocks: 2}
	c1 := acquire(t, f, a, 3, nil)
	if want := []int{0, 1, 2, 3}; !equalInts(c1, want) {
		t.Fatalf("first claim = %v, want block 0 = %v", c1, want)
	}
	c2 := acquire(t, f, a, 4, nil)
	if want := []int{4, 5, 6, 7}; !equalInts(c2, want) {
		t.Fatalf("second claim = %v, want block 1 = %v", c2, want)
	}
	// Fabric full: a third instance queues.
	if _, ok := f.Acquire(a, 1, nil, nil); ok {
		t.Fatal("partition granted tiles on a fully claimed fabric")
	}
	f.Release(c1)
	c3 := acquire(t, f, a, 1, nil)
	if want := []int{0, 1, 2, 3}; !equalInts(c3, want) {
		t.Fatalf("reclaim = %v, want freed block 0 = %v", c3, want)
	}
}

func TestPartitionSpansConsecutiveBlocks(t *testing.T) {
	// A need larger than one block takes a run of consecutive free
	// blocks — here the whole fabric.
	f := testFabric(8)
	a := Partition{Blocks: 4}
	claim := acquire(t, f, a, 5, nil)
	if len(claim) != 6 { // three 2-tile blocks cover need 5
		t.Fatalf("claim %v spans %d tiles, want 6 (three blocks)", claim, len(claim))
	}
	// Remainder block sizing: 7 tiles in 2 blocks -> 3 + 4.
	g := testFabric(7)
	b := Partition{Blocks: 2}
	c1 := acquire(t, g, b, 3, nil)
	c2 := acquire(t, g, b, 4, nil)
	if len(c1) != 3 || len(c2) != 4 {
		t.Fatalf("remainder blocks sized %d and %d, want 3 and 4", len(c1), len(c2))
	}
}

func TestGreedyPrefersWantedConfigsThenLRU(t *testing.T) {
	f := testFabric(4)
	st := f.State()
	st.Set(0, "a", model.Time(40*model.Millisecond))
	st.Set(1, "b", model.Time(10*model.Millisecond))
	st.Set(2, "c", model.Time(30*model.Millisecond))
	st.Set(3, "d", model.Time(20*model.Millisecond))

	// Wants "c": tile 2 first despite being recently used, then the
	// least recently used free tile (tile 1).
	claim := acquire(t, f, Greedy{}, 2, []graph.ConfigID{"c"})
	if want := []int{2, 1}; !equalInts(claim, want) {
		t.Fatalf("greedy claim = %v, want %v (config match, then LRU)", claim, want)
	}
}

func TestInUseTilesNeverGranted(t *testing.T) {
	for _, a := range []Allocation{Partition{Blocks: 4}, Greedy{}} {
		f := testFabric(8)
		held := acquire(t, f, a, 3, nil)
		second := acquire(t, f, a, 4, nil)
		for _, t2 := range second {
			for _, t1 := range held {
				if t1 == t2 {
					t.Fatalf("%s: tile %d granted to two in-flight instances (%v, %v)",
						a.Name(), t1, held, second)
				}
			}
		}
	}
}

// TestTimelinesAdvanceMonotonically drives the one reader and the one
// writer: Advance moves every processor row that executed to the end of
// its last execution, through the mapping for tiles and directly for
// ISPs, never backwards, and copies the ports from PortFreeAfter;
// Availability reads the rows back through a (possibly different)
// mapping.
func TestTimelinesAdvanceMonotonically(t *testing.T) {
	ms := func(n int) model.Time { return model.Time(n * int(model.Millisecond)) }
	f := testFabric(3)
	// Two virtual tiles and one ISP row: tile 0 runs a then b, tile 1
	// nothing, the ISP c.
	s := &assign.Schedule{
		Tiles:     2,
		TileOrder: [][]graph.SubtaskID{{0, 1}, nil, {2}},
	}
	m := reconfig.Mapping{PhysOf: []int{2, 0}}
	tl := &schedule.Timeline{
		ExecEnd:       []model.Time{ms(4), ms(9), ms(6)},
		PortFreeAfter: []model.Time{ms(2), ms(7)},
	}
	f.Advance(s, m, tl)
	if got, want := f.Availability(s, m, nil), []model.Time{ms(9), 0, ms(6)}; !slices.Equal(got, want) {
		t.Fatalf("availability after advance = %v, want %v", got, want)
	}
	if got := f.MinPortFree(); got != ms(2) {
		t.Fatalf("MinPortFree = %v, want 2ms", got)
	}
	if got := f.PortFree(); got[1] != ms(7) {
		t.Fatalf("port 1 free at %v, want 7ms", got[1])
	}

	// An earlier timeline moves no row backwards; the ports take the
	// timeline's vector as it is.
	tl.ExecEnd = []model.Time{ms(1), ms(3), ms(2)}
	tl.PortFreeAfter = []model.Time{ms(8), ms(7)}
	f.Advance(s, m, tl)
	swapped := reconfig.Mapping{PhysOf: []int{0, 2}}
	dst := make([]model.Time, 1, 8)
	got := f.Availability(s, swapped, dst)
	if want := []model.Time{0, ms(9), ms(6)}; !slices.Equal(got, want) {
		t.Fatalf("availability through the swapped mapping = %v, want %v", got, want)
	}
	if &got[0] != &dst[0] {
		t.Fatal("Availability did not reuse a buffer with room")
	}
	if got := f.MinPortFree(); got != ms(7) {
		t.Fatalf("MinPortFree = %v, want 7ms", got)
	}
	if f.Policy().Name() != (reconfig.LRU{}).Name() {
		t.Fatalf("default policy = %q, want lru", f.Policy().Name())
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
