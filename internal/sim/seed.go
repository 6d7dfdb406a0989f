package sim

import "math/rand"

// Deterministic seed splitting for the sharded execution mode.
//
// Sharded runs give every iteration its own RNG stream, derived from
// (Options.Seed, iteration index) by counter hashing — no stream ever
// observes another's position, so an iteration's draws are a pure
// function of the run seed and its index, independent of which worker
// executes it and in what order. Three stream domains keep independent
// consumers off each other's streams: the per-iteration arrival and
// scenario draws, the per-iteration random-replacement-policy draws,
// and the on-off arrival process's Markov phase precomputation.
//
// The derivation is splitmix64 (Steele, Lea & Flood, OOPSLA 2014): for
// a fixed domain, index -> state is index*golden (odd multiplier, a
// bijection mod 2^64) XORed into a seed-and-domain-dependent constant
// and passed through the bijective mix64 finalizer — so two distinct
// iteration indices can never share a stream state. TestStreamSeed
// checks the no-collision property over 1e6 indices.
//
// The streams themselves are full-64-bit-state splitmix64 generators
// implementing rand.Source64. math/rand's default rngSource reduces its
// seed modulo 2^31-1, which would alias distinct stream states onto
// identical sequences roughly every 2^31 streams — a birthday collision
// every few tens of thousands of iterations — so it cannot carry the
// stream identity; splitmix64 state is the identity.

// Stream domains. Arbitrary odd 64-bit constants; only their
// distinctness matters.
const (
	drawDomain   uint64 = 0xd1b54a32d192ed03 // arrival + scenario draws of one iteration
	policyDomain uint64 = 0x8cb92ba72f3d8dd7 // random-replacement draws of one iteration
	phaseDomain  uint64 = 0xa24baed4963ee407 // on-off Markov phase precomputation
)

const golden uint64 = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// streamState derives the generator state of stream (domain, index) of
// run seed. For a fixed seed and domain it is injective in index.
func streamState(seed int64, domain uint64, index int64) uint64 {
	return mix64(mix64(uint64(seed)+golden) ^ domain ^ (golden * uint64(index)))
}

// splitmixSource is a splitmix64 rand.Source64: 64-bit state, one
// add-and-mix per output. Seed(s) jumps directly to state s — unlike
// rngSource, every distinct state is a distinct stream — which is what
// lets one rand.Rand per shard be re-pointed at each iteration's stream
// without allocating.
type splitmixSource struct {
	state uint64
}

func (s *splitmixSource) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

// newStreamRand returns a rand.Rand positioned at the start of stream
// (domain, index) of seed.
func newStreamRand(seed int64, domain uint64, index int64) *rand.Rand {
	return rand.New(&splitmixSource{state: streamState(seed, domain, index)})
}

// reseedStream re-points r (which must wrap a splitmixSource) at the
// start of stream (domain, index) of seed, without allocating.
func reseedStream(r *rand.Rand, seed int64, domain uint64, index int64) {
	r.Seed(int64(streamState(seed, domain, index)))
}
