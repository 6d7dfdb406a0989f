package sim

import (
	"fmt"
	"math/rand"
)

// Arrivals is the workload-drawing seam of the simulation kernel: it
// decides which applications of the mix arrive in each iteration and in
// which order they run. The paper's §7 experiment is one fixed shape —
// an independent Bernoulli draw per application — but conclusions about
// reuse and replacement depend on the arrival pattern (bursty phases
// keep working sets hot; trace replay pins a measured pattern), so the
// process is pluggable.
//
// An Arrivals value is immutable configuration and safe to share across
// concurrent runs (the engine reuses one value for every cell of a
// sweep); all per-run state lives in the sources it starts. The kernel
// only draws by index, so a process must also implement
// ShardableArrivals to run; Start and ArrivalSource remain for callers
// that drive a sequential source themselves.
type Arrivals interface {
	// Name identifies the process on the wire (workload JSON, CLI).
	Name() string
	// Start validates the process against the mix size and returns a
	// fresh per-run source. tasks is the number of applications in the
	// mix (always ≥ 1).
	Start(tasks int) (ArrivalSource, error)
}

// ArrivalSource produces one iteration's arrivals at a time. Sources
// are stateful (Markov chains, trace cursors) and belong to exactly one
// run.
type ArrivalSource interface {
	// Draw appends the iteration's task indices, in execution order, to
	// dst (passed with length 0, reused across iterations) and returns
	// the extended slice. rng is the run's seeded generator; a source
	// must derive all randomness from it so runs stay reproducible. An
	// empty result is an idle iteration.
	Draw(rng *rand.Rand, dst []int) []int
}

// ShardableArrivals is the kernel's arrival seam: a process that can
// produce any iteration's arrivals by index, independently of the
// iterations drawn before it, which is what lets every run cut its
// iteration stream into replications. All built-in processes implement
// it; a custom Arrivals that does not is rejected by Validate at every
// Parallelism.
type ShardableArrivals interface {
	Arrivals
	// StartSharded validates the process for a run of the given mix
	// size, iteration count and seed, and returns a fresh indexed
	// source. Sequential cross-iteration state (the on-off Markov
	// phase) is precomputed here from a dedicated seed stream, so every
	// worker derives the identical sequence. Each worker calls
	// StartSharded itself; an IndexedSource belongs to one worker.
	StartSharded(tasks, iterations int, seed int64) (IndexedSource, error)
}

// IndexedSource draws iterations by index: DrawAt(i, ...) returns the
// same arrivals whether or not any other index was drawn before it, on
// this source or another worker's.
type IndexedSource interface {
	// DrawAt appends iteration iter's task indices, in execution
	// order, to dst and returns the extended slice. rng is positioned
	// at the start of iteration iter's draw stream; all randomness must
	// come from it.
	DrawAt(iter int, rng *rand.Rand, dst []int) []int
}

// Bernoulli is the paper's §7 arrival process and the default: each
// application appears independently with probability P, at least one
// always runs, and the order is shuffled uniformly. Draw consumes its
// generator exactly as the pre-kernel simulator did; the kernel runs
// the same draw on each iteration's own stream.
type Bernoulli struct {
	// P is the per-application inclusion probability; zero or negative
	// means the paper's 0.8.
	P float64
}

// Name implements Arrivals.
func (Bernoulli) Name() string { return "bernoulli" }

// Start implements Arrivals.
func (b Bernoulli) Start(tasks int) (ArrivalSource, error) {
	p := b.P
	if p <= 0 {
		p = 0.8
	}
	if p > 1 {
		return nil, fmt.Errorf("sim: bernoulli arrival probability %v > 1", b.P)
	}
	return &bernoulliSource{p: p, tasks: tasks}, nil
}

type bernoulliSource struct {
	p     float64
	tasks int
	buf   []int // shuffle target, aliased by the last Draw result
}

func (s *bernoulliSource) Draw(rng *rand.Rand, dst []int) []int {
	for mi := 0; mi < s.tasks; mi++ {
		if rng.Float64() < s.p {
			dst = append(dst, mi)
		}
	}
	if len(dst) == 0 {
		dst = append(dst, rng.Intn(s.tasks))
	}
	s.buf = dst
	rng.Shuffle(len(dst), s.swap)
	return dst
}

// swap is a method value so Draw does not allocate a fresh closure per
// iteration.
func (s *bernoulliSource) swap(i, j int) { s.buf[i], s.buf[j] = s.buf[j], s.buf[i] }

// StartSharded implements ShardableArrivals. Bernoulli draws are
// already independent per iteration, so the indexed source is the
// sequential draw fed by the iteration's stream.
func (b Bernoulli) StartSharded(tasks, iterations int, seed int64) (IndexedSource, error) {
	src, err := b.Start(tasks)
	if err != nil {
		return nil, err
	}
	return &bernoulliIndexed{src.(*bernoulliSource)}, nil
}

type bernoulliIndexed struct{ *bernoulliSource }

func (s *bernoulliIndexed) DrawAt(_ int, rng *rand.Rand, dst []int) []int {
	return s.Draw(rng, dst)
}

// OnOff is a bursty, Markov-modulated arrival process: a two-state
// (on/off) chain modulates the per-application inclusion probability,
// producing busy phases (large working sets, heavy port contention)
// alternating with quiet phases (residency decays between bursts) —
// the phase-varying workloads that flip reuse/replacement conclusions.
//
// Every field is literal — a zero probability means exactly zero (an
// always-idle state, a transition that never fires) — so start from
// DefaultOnOff for the tuned burst/gap shape and override from there.
type OnOff struct {
	// POn and POff are the per-application inclusion probabilities in
	// the on and off states.
	POn, POff float64
	// OnToOff and OffToOn are the per-iteration transition
	// probabilities.
	OnToOff, OffToOn float64
	// StartOff starts the chain in the off state.
	StartOff bool
}

// DefaultOnOff is the tuned bursty process: saturated on-phases of
// ≈10 iterations (POn 0.95, OnToOff 0.10) alternating with quiet gaps
// of ≈4 (POff 0.15, OffToOn 0.25).
var DefaultOnOff = OnOff{POn: 0.95, POff: 0.15, OnToOff: 0.10, OffToOn: 0.25}

// Name implements Arrivals.
func (OnOff) Name() string { return "onoff" }

// Start implements Arrivals.
func (o OnOff) Start(tasks int) (ArrivalSource, error) {
	for _, p := range []float64{o.POn, o.POff, o.OnToOff, o.OffToOn} {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("sim: on-off probability %v out of [0,1]", p)
		}
	}
	return &onOffSource{
		onOffDraw: onOffDraw{pOn: o.POn, pOff: o.POff, tasks: tasks},
		onToOff:   o.OnToOff,
		offToOn:   o.OffToOn,
		on:        !o.StartOff,
	}, nil
}

// onOffDraw is the per-iteration inclusion draw both on-off sources
// share: every application under the phase's probability, then a
// shuffle.
type onOffDraw struct {
	pOn, pOff float64
	tasks     int
	buf       []int
}

func (d *onOffDraw) draw(on bool, rng *rand.Rand, dst []int) []int {
	p := d.pOff
	if on {
		p = d.pOn
	}
	for mi := 0; mi < d.tasks; mi++ {
		if rng.Float64() < p {
			dst = append(dst, mi)
		}
	}
	if len(dst) == 0 && on && p > 0 {
		// Busy phases never idle (unless POn is literally zero); quiet
		// phases may.
		dst = append(dst, rng.Intn(d.tasks))
	}
	d.buf = dst
	rng.Shuffle(len(dst), d.swap)
	return dst
}

func (d *onOffDraw) swap(i, j int) { d.buf[i], d.buf[j] = d.buf[j], d.buf[i] }

type onOffSource struct {
	onOffDraw
	onToOff, offToOn float64
	on               bool
}

func (s *onOffSource) Draw(rng *rand.Rand, dst []int) []int {
	// Transition first, then draw under the new state's probability.
	if s.on {
		if rng.Float64() < s.onToOff {
			s.on = false
		}
	} else {
		if rng.Float64() < s.offToOn {
			s.on = true
		}
	}
	return s.draw(s.on, rng, dst)
}

// StartSharded implements ShardableArrivals. The Markov phase sequence
// is the one sequential dependency of this process, so it is
// precomputed for the whole run from the dedicated phase stream of the
// run seed — every shard derives the identical sequence — and DrawAt
// then draws iteration i's inclusions under phases[i] from the
// iteration's own stream. (This differs from Draw by construction:
// transition draws do not share a generator with inclusion draws.)
func (o OnOff) StartSharded(tasks, iterations int, seed int64) (IndexedSource, error) {
	if _, err := o.Start(tasks); err != nil {
		return nil, err
	}
	if iterations <= 0 {
		return nil, fmt.Errorf("sim: on-off sharded start needs a positive iteration count, got %d", iterations)
	}
	phases := make([]bool, iterations)
	rng := newStreamRand(seed, phaseDomain, 0)
	on := !o.StartOff
	for i := range phases {
		// Transition first, then record the state the iteration draws
		// under, matching the sequential source.
		if on {
			if rng.Float64() < o.OnToOff {
				on = false
			}
		} else {
			if rng.Float64() < o.OffToOn {
				on = true
			}
		}
		phases[i] = on
	}
	return &onOffIndexed{onOffDraw{pOn: o.POn, pOff: o.POff, tasks: tasks}, phases}, nil
}

type onOffIndexed struct {
	onOffDraw
	phases []bool
}

func (s *onOffIndexed) DrawAt(iter int, rng *rand.Rand, dst []int) []int {
	return s.draw(s.phases[iter], rng, dst)
}

// Trace replays a recorded arrival log: iteration i runs exactly the
// task indices of entry i mod len(Iterations), in order. It consumes no
// randomness (scenario draws still do), so a trace pins the arrival
// pattern while the rest of the run stays seed-controlled. Empty
// entries are idle iterations.
type Trace struct {
	Iterations [][]int
}

// Name implements Arrivals.
func (Trace) Name() string { return "trace" }

// Start implements Arrivals.
func (t Trace) Start(tasks int) (ArrivalSource, error) {
	if len(t.Iterations) == 0 {
		return nil, fmt.Errorf("sim: empty arrival trace")
	}
	for i, entry := range t.Iterations {
		for _, mi := range entry {
			if mi < 0 || mi >= tasks {
				return nil, fmt.Errorf("sim: arrival trace entry %d references task %d of %d", i, mi, tasks)
			}
		}
	}
	return &traceSource{entries: t.Iterations}, nil
}

type traceSource struct {
	entries [][]int
	pos     int
}

func (s *traceSource) Draw(_ *rand.Rand, dst []int) []int {
	dst = append(dst, s.entries[s.pos]...)
	s.pos++
	if s.pos == len(s.entries) {
		s.pos = 0
	}
	return dst
}

// StartSharded implements ShardableArrivals: the trace cursor at
// iteration i is simply i mod len(entries), so indexed replay is the
// sequential replay.
func (t Trace) StartSharded(tasks, iterations int, seed int64) (IndexedSource, error) {
	if _, err := t.Start(tasks); err != nil {
		return nil, err
	}
	return &traceIndexed{entries: t.Iterations}, nil
}

type traceIndexed struct {
	entries [][]int
}

func (s *traceIndexed) DrawAt(iter int, _ *rand.Rand, dst []int) []int {
	return append(dst, s.entries[iter%len(s.entries)]...)
}
