// Seed-splitting tests: distinct iterations never share a stream, the
// stream draw order is documented and pinned, and the legacy sequential
// path's RNG discipline (PR 4's pinned Bernoulli order) is untouched by
// the sharded machinery.
package sim

import (
	"math/rand"
	"testing"
)

// TestStreamStateNoCollisions: the per-iteration draw streams of one
// run seed are pairwise distinct over 1e6 iteration indices (injective
// by construction — golden-ratio multiply then a bijective mix — this
// test guards the construction against edits).
func TestStreamStateNoCollisions(t *testing.T) {
	if testing.Short() {
		t.Skip("1e6-index collision scan")
	}
	const n = 1_000_000
	seen := make(map[uint64]struct{}, n)
	for i := int64(0); i < n; i++ {
		s := streamState(1, drawDomain, i)
		if _, dup := seen[s]; dup {
			t.Fatalf("iterations share draw stream state %#x (index %d)", s, i)
		}
		seen[s] = struct{}{}
	}
}

// TestStreamStateDomainsDisjoint: the draw, policy and phase streams of
// the same (seed, index) never coincide, so consumers cannot observe
// each other's sequences.
func TestStreamStateDomainsDisjoint(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		for i := int64(0); i < 1000; i++ {
			d := streamState(seed, drawDomain, i)
			p := streamState(seed, policyDomain, i)
			ph := streamState(seed, phaseDomain, i)
			if d == p || d == ph || p == ph {
				t.Fatalf("seed %d index %d: stream domains collide (%#x %#x %#x)", seed, i, d, p, ph)
			}
		}
	}
}

// TestStreamStateSeedSensitivity: different run seeds give different
// streams for the same iteration.
func TestStreamStateSeedSensitivity(t *testing.T) {
	if streamState(1, drawDomain, 5) == streamState(2, drawDomain, 5) {
		t.Fatal("seeds 1 and 2 share iteration 5's draw stream")
	}
}

// TestStreamRandDocumentedOrder pins the documented draw order of a
// stream: iteration i's generator is a splitmix64 source seeded with
// streamState(Seed, drawDomain, i), consumed through math/rand.Rand.
// These constants are the contract the shard-invariance suite rests on;
// changing the derivation is a breaking change to every sharded run's
// numbers and must show up here first.
func TestStreamRandDocumentedOrder(t *testing.T) {
	src := &splitmixSource{state: streamState(1, drawDomain, 0)}
	got := [3]uint64{src.Uint64(), src.Uint64(), src.Uint64()}
	want := [3]uint64{0x32031582160b9745, 0x5bf81ad0298a45b5, 0x673a406a99b4d6b6}
	if got != want {
		t.Fatalf("splitmix stream (seed 1, draw domain, iteration 0) drifted:\n got  %#x\n want %#x", got, want)
	}

	// Re-pointing a rand.Rand at a stream (the per-iteration reseed of
	// the hot path) is equivalent to a fresh generator on that stream.
	r := rand.New(&splitmixSource{})
	reseedStream(r, 1, drawDomain, 0)
	fresh := newStreamRand(1, drawDomain, 0)
	for i := 0; i < 16; i++ {
		if a, b := r.Float64(), fresh.Float64(); a != b {
			t.Fatalf("draw %d: reseeded stream %v != fresh stream %v", i, a, b)
		}
	}
}

// TestLegacyBernoulliDrawOrderPinned pins the Bernoulli draw
// discipline — the pre-kernel order (one Float64 per task, a Shuffle,
// no draw for single-scenario tasks) — that the indexed source runs on
// every iteration's own stream. It isolates the arrival layer so an
// edit to the draw fails here with a readable diff, not as an opaque
// aggregate drift.
func TestLegacyBernoulliDrawOrderPinned(t *testing.T) {
	src, err := Bernoulli{P: 0.8}.Start(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var got [][]int
	for i := 0; i < 4; i++ {
		got = append(got, append([]int(nil), src.Draw(rng, nil)...))
	}
	want := [][]int{
		{2, 4, 0, 3},
		{4, 2, 0, 1},
		{4, 0, 3, 2, 1},
		{1, 4, 0, 2},
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("draw %d: got %v, want %v (legacy RNG order drifted)", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("draw %d: got %v, want %v (legacy RNG order drifted)", i, got[i], want[i])
			}
		}
	}
}

// TestIndexedDrawMatchesByIndex: an IndexedSource draw depends only on
// the iteration index — drawing out of order, skipping, or re-drawing
// yields identical arrivals.
func TestIndexedDrawMatchesByIndex(t *testing.T) {
	processes := []struct {
		name string
		a    ShardableArrivals
	}{
		{"bernoulli", Bernoulli{P: 0.7}},
		{"onoff", DefaultOnOff},
		{"trace", Trace{Iterations: [][]int{{0, 1}, {2}, {}}}},
	}
	const iters = 64
	for _, pc := range processes {
		t.Run(pc.name, func(t *testing.T) {
			forward, err := pc.a.StartSharded(3, iters, 9)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(&splitmixSource{})
			ref := make([][]int, iters)
			for i := 0; i < iters; i++ {
				reseedStream(rng, 9, drawDomain, int64(i))
				ref[i] = append([]int(nil), forward.DrawAt(i, rng, nil)...)
			}
			backward, err := pc.a.StartSharded(3, iters, 9)
			if err != nil {
				t.Fatal(err)
			}
			for i := iters - 1; i >= 0; i -= 3 { // reverse order, with gaps
				reseedStream(rng, 9, drawDomain, int64(i))
				got := backward.DrawAt(i, rng, nil)
				if len(got) != len(ref[i]) {
					t.Fatalf("iteration %d: order-dependent draw: %v vs %v", i, got, ref[i])
				}
				for j := range got {
					if got[j] != ref[i][j] {
						t.Fatalf("iteration %d: order-dependent draw: %v vs %v", i, got, ref[i])
					}
				}
			}
		})
	}
}
