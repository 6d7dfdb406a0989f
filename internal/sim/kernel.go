package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
	"unique"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/fabric"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/obs"
	"drhwsched/internal/platform"
	"drhwsched/internal/prefetch"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/schedule"
	"drhwsched/internal/stats"
	"drhwsched/internal/tcm"
)

// The simulation kernel is staged: design-time preparation builds the
// prepared-artifact tables once (newKernel); then every iteration runs
// the same four stages — the arrival source draws the iteration's task
// set and order, point selection picks one prepared artifact per
// arrival (TCM energy-aware selection in deadline mode), the
// event-driven execute stage admits the arrivals onto fabric claims and
// retires their completions, and accounting folds the outcome into the
// aggregate, the streaming tail estimators, and the optional Observer.
//
// All shared platform run-time state — tile residency, per-tile /
// per-port / per-ISP availability, the replacement-policy hook — lives
// in the fabric layer (internal/fabric). The execute stage is an event
// loop over it: arrivals are admitted FIFO onto disjoint tile claims
// granted by the configured admission policy (Options.Multitask), run
// against their claim plus the shared port and ISP timelines, and
// complete independently; an arrival whose claim does not fit queues
// until an in-flight instance releases tiles. Under the default serial
// admission every claim is the whole fabric, the loop degenerates to
// the back-to-back replay of the paper's one-instance-owns-the-FPGA
// model (TestMultitaskSerialBitIdentical pins the equivalence).
//
// All per-instance working memory lives in the kernel's scratch, so the
// hot path performs no allocations after the first iterations warm the
// buffers (BenchmarkSimRun and TestSimRunAllocs track this, for the
// serial and multitask paths both).

// kernel carries one run's state across the stages. The master kernel
// owns the prepared artifacts and the final aggregate and runs the
// replications itself when one worker does; otherwise each worker
// drives its own shard kernel — a full copy of the run-time state
// (fabric, scratch, generators, estimators) over the shared read-only
// design-time tables — so the single-goroutine hot path below runs
// unchanged on every kernel.
type kernel struct {
	mix  []TaskMix
	p    platform.Platform
	opt  Options
	prep [][]*scenPrep
	res  *Result // the aggregate, or the running replication's partial

	// rng is re-pointed at each iteration's draw stream, and polRng
	// (random replacement policy only) at its policy stream; isrc is
	// the indexed arrival source.
	rng    *rand.Rand
	polRng *rand.Rand
	isrc   IndexedSource

	fab        *fabric.Fabric
	alloc      fabric.Allocation
	modeName   string
	partitions int
	clock      model.Time

	useReuse  bool
	interTask bool
	// lookahead is set when the policy reads the upcoming
	// configuration stream (reconfig.Lookahead); only then is it built.
	lookahead bool

	// workers is the resolved Parallelism: 0 for one whole-run
	// replication, >= 1 for 32-iteration replications on that many
	// workers.
	workers int

	mkQ *stats.Sketch // per-iteration makespan tail (ms)
	ovQ *stats.Sketch // per-iteration overhead tail (ms)
	qdQ *stats.Sketch // per-instance queueing-delay tail (ms)
	rtQ *stats.Sketch // per-instance response-time tail (ms)

	maxInFlight int
	peakQueued  int
	ispBusy     []model.Dur // per-ISP accumulated busy time

	// rec is the observability seam: nil on every untraced run (the
	// hot path pays one pointer check), the Options.Trace recorder
	// otherwise. curIter tags emitted events with the iteration;
	// traceBase is the sum of the end clocks of the replications
	// before the running one, which every event is shifted by.
	rec       *obs.Recorder
	curIter   int
	traceBase model.Time

	sc scratch
}

// flight is one admitted, not-yet-retired instance of the execute
// stage's event loop: the fabric tiles it holds and when it completes.
type flight struct {
	seq   int // admission order, the retire tie-break
	end   model.Time
	claim []int // physical tiles held until retirement (reused buffer)
}

// scratch is the per-run reusable working memory of the hot path: the
// buffers the pre-kernel simulator allocated fresh for every task
// instance (tile availability vectors, load sets, the hybrid plan,
// lookahead streams, the residency vector, the in-flight table of the
// event loop) plus the scratches of the layers below (tile mapping and
// the prefetch evaluation every approach runs on).
type scratch struct {
	todo      []int
	instances []*prepared
	curves    []*tcm.Curve
	scens     []int
	tileFree  []model.Time
	loads     []graph.SubtaskID
	future    []graph.ConfigID
	resident  []bool
	flights   []flight
	inst      instance

	plan  core.InstancePlan
	mapSc reconfig.MapScratch
	pfSc  prefetch.Scratch

	// tl is the current instance's timeline; endOfFn reads it so the
	// replacement state commit needs no per-instance closure.
	tl          *schedule.Timeline
	curAnalysis *core.Analysis
	endOfFn     func(graph.SubtaskID) model.Time
	criticalFn  func(graph.SubtaskID) bool

	// memo replays the no-prefetch, design-time-prefetch and run-time
	// decisions of this run: it keys them by the prepared statics, so
	// it lives and dies with the kernel and is never pooled across runs.
	memo prefetch.Memo
}

// validateWeights rejects degenerate scenario-weight vectors up front:
// an all-zero or negative vector would silently bias drawScenario to
// the last scenario.
func validateWeights(mix []TaskMix) error {
	for _, m := range mix {
		w := m.ScenarioWeights
		if w == nil {
			continue
		}
		if len(w) != len(m.Task.Scenarios) {
			return fmt.Errorf("sim: task %q has %d scenario weights for %d scenarios",
				m.Task.Name, len(w), len(m.Task.Scenarios))
		}
		total := 0.0
		for si, x := range w {
			if x < 0 || math.IsNaN(x) {
				return fmt.Errorf("sim: task %q scenario weight %d is %v (weights must be non-negative)",
					m.Task.Name, si, x)
			}
			total += x
		}
		if total <= 0 {
			return fmt.Errorf("sim: task %q scenario weights sum to %v (at least one must be positive)",
				m.Task.Name, total)
		}
	}
	return nil
}

// Validate reports the error a Run with these inputs would fail with
// before any simulation work happens: platform validity, a non-empty
// mix, degenerate scenario weights, the multitask admission
// configuration, the Parallelism value, and the arrival process
// (started against the mix size, iteration count and seed). Streaming
// callers use it to reject a bad request before committing a success
// status to the wire; Run performs the same checks itself.
func Validate(mix []TaskMix, p platform.Platform, opt Options) error {
	_, _, err := validate(mix, p, opt)
	return err
}

// validate is Validate returning what it resolved: a kernel carrying
// the inputs with the iteration default applied, the admission mode
// and the worker count, and the started arrival source, which the
// master kernel then draws from.
func validate(mix []TaskMix, p platform.Platform, opt Options) (*kernel, IndexedSource, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if len(mix) == 0 {
		return nil, nil, fmt.Errorf("sim: empty task mix")
	}
	if err := validateWeights(mix); err != nil {
		return nil, nil, err
	}
	k := &kernel{mix: mix, p: p, opt: opt}
	var err error
	if k.alloc, k.modeName, k.partitions, err = opt.Multitask.resolve(p.Tiles); err != nil {
		return nil, nil, err
	}
	if k.workers, err = opt.effectiveWorkers(); err != nil {
		return nil, nil, err
	}
	if k.opt.Iterations <= 0 {
		k.opt.Iterations = 1000
	}
	isrc, err := startArrivals(k.opt, len(mix))
	if err != nil {
		return nil, nil, err
	}
	return k, isrc, nil
}

// startArrivals starts the run's indexed arrival source over
// opt.Iterations: Options.Arrivals, or the Bernoulli default under
// InclusionProb.
func startArrivals(opt Options, tasks int) (IndexedSource, error) {
	arrivals := opt.Arrivals
	if arrivals == nil {
		arrivals = Bernoulli{P: opt.InclusionProb}
	}
	sa, ok := arrivals.(ShardableArrivals)
	if !ok {
		return nil, fmt.Errorf("sim: arrival process %q has no indexed per-iteration draw (ShardableArrivals)",
			arrivals.Name())
	}
	return sa.StartSharded(tasks, opt.Iterations, opt.Seed)
}

// newKernel validates the inputs, resolves defaults, and runs the
// design-time preparation stage.
func newKernel(mix []TaskMix, p platform.Platform, opt Options) (*kernel, error) {
	// validate is the single source of truth for what a run rejects —
	// streaming servers rely on Validate matching this constructor
	// exactly.
	k, isrc, err := validate(mix, p, opt)
	if err != nil {
		return nil, err
	}
	analyze := opt.Analyzer
	if analyze == nil {
		analyze = core.Analyze
	}
	k.useReuse = opt.Approach == RunTime || opt.Approach == RunTimeInterTask || opt.Approach == Hybrid
	k.interTask = opt.Approach == RunTimeInterTask ||
		(opt.Approach == Hybrid && !opt.DisableInterTask)
	k.rec = opt.Trace

	var prep0 time.Time
	if k.rec != nil {
		prep0 = time.Now()
	}
	if err := k.prepare(analyze); err != nil {
		return nil, err
	}
	if k.rec != nil {
		k.rec.Record(obs.Event{
			Kind: obs.KindStage, Iter: -1, Tile: -1, Port: -1, ISP: -1,
			Detail: "prepare", WallUS: time.Since(prep0).Microseconds(),
		})
	}

	k.initRunState(isrc)
	return k, nil
}

// initRunState gives the kernel its private run-time state: the
// iteration and policy generators, the indexed arrival source, the
// fabric, the tail sketches and the scratch closures.
func (k *kernel) initRunState(isrc IndexedSource) {
	k.rng = rand.New(&splitmixSource{})
	k.isrc = isrc
	k.ispBusy = make([]model.Dur, k.p.ISPs)
	policy := k.opt.Policy
	if policy == nil {
		policy = reconfig.LRU{}
	}
	_, k.lookahead = policy.(reconfig.Lookahead)
	if _, ok := policy.(reconfig.Random); ok {
		// The one stateful policy: every kernel draws victims from its
		// own generator, re-pointed per iteration (iterate), so victim
		// choices stay a function of the iteration alone.
		k.polRng = rand.New(&splitmixSource{})
		policy = reconfig.Random{Rng: k.polRng}
	}
	k.fab = fabric.New(k.p, policy)
	// A run on several workers merges its shards' sketches into the
	// master's; merging is exact and order-invariant.
	k.mkQ = stats.NewSketch(0)
	k.ovQ = stats.NewSketch(0)
	k.qdQ = stats.NewSketch(0)
	k.rtQ = stats.NewSketch(0)
	k.bindScratch()
}

// bindScratch installs the per-kernel scratch closures the hot path
// hands to the layers below without allocating per instance. Each
// kernel binds its own set over its own scratch.
func (k *kernel) bindScratch() {
	k.sc.endOfFn = func(id graph.SubtaskID) model.Time { return k.sc.tl.ExecEnd[id] }
	k.sc.criticalFn = func(id graph.SubtaskID) bool { return k.sc.curAnalysis.IsCritical(id) }
}

// prepare is the design-time stage: schedule (and in deadline mode,
// Pareto-explore) every (task, scenario) pair and build the prepared
// artifacts every approach replays at run time.
func (k *kernel) prepare(analyze AnalyzeFunc) error {
	mix, p, opt := k.mix, k.p, k.opt
	prep := make([][]*scenPrep, len(mix))
	var critSum float64
	var critN int
	account := func(pr *prepared) {
		if pr.analysis != nil {
			critSum += pr.analysis.CriticalFraction()
			critN++
		}
	}
	if opt.Deadline > 0 {
		// TCM mode: explore the Pareto curves once, prepare every
		// selectable point.
		tasks := make([]*tcm.Task, len(mix))
		for mi := range mix {
			tasks[mi] = mix[mi].Task
		}
		ds, err := tcm.DesignTime(tasks, p, tcm.DTOptions{Placement: assign.Spread})
		if err != nil {
			return fmt.Errorf("sim: TCM design time: %w", err)
		}
		for mi, m := range mix {
			if err := k.canceled(); err != nil {
				return fmt.Errorf("sim: canceled during design-time preparation: %w", err)
			}
			prep[mi] = make([]*scenPrep, len(m.Task.Scenarios))
			for si := range m.Task.Scenarios {
				curve := ds.Curve(mi, si)
				sp := &scenPrep{curve: curve}
				for _, pt := range curve.Points {
					pr, err := makePrepared(pt.Sched, p, opt.Approach, analyze)
					if err != nil {
						return err
					}
					account(pr)
					sp.points = append(sp.points, pr)
				}
				prep[mi][si] = sp
			}
		}
	} else {
		for mi, m := range mix {
			if err := k.canceled(); err != nil {
				return fmt.Errorf("sim: canceled during design-time preparation: %w", err)
			}
			prep[mi] = make([]*scenPrep, len(m.Task.Scenarios))
			for si, g := range m.Task.Scenarios {
				s, err := assign.List(g, p, assign.Options{Placement: assign.Spread})
				if err != nil {
					return fmt.Errorf("sim: scheduling %q: %w", g.Name, err)
				}
				pr, err := makePrepared(s, p, opt.Approach, analyze)
				if err != nil {
					return err
				}
				account(pr)
				prep[mi][si] = &scenPrep{points: []*prepared{pr}}
			}
		}
	}
	k.prep = prep

	k.res = &Result{Approach: opt.Approach, Tiles: p.Tiles, Iterations: opt.Iterations}
	if critN > 0 {
		k.res.CriticalPct = 100 * critSum / float64(critN)
	}
	return nil
}

func (k *kernel) canceled() error {
	if k.opt.Context == nil {
		return nil
	}
	return k.opt.Context.Err()
}

// iterate runs one iteration: stage 1 draws its application set and
// order from the iteration's own streams (the TCM run-time scheduler
// identifies the current scenario of every running task before
// selecting points), stages 2–4 select, execute and account, folding
// the outcome into k.res and the tail estimators. It returns the
// iteration's record.
func (k *kernel) iterate(iter int) (IterationRecord, error) {
	k.curIter = iter
	reseedStream(k.rng, k.opt.Seed, drawDomain, int64(iter))
	if k.polRng != nil {
		reseedStream(k.polRng, k.opt.Seed, policyDomain, int64(iter))
	}
	todo := k.isrc.DrawAt(iter, k.rng, k.sc.todo[:0])
	k.sc.todo = todo

	// Stage 2: select one prepared artifact per arrival.
	var stage0 time.Time
	if k.rec != nil {
		stage0 = time.Now()
	}
	instances, miss, err := k.selectInstances(todo)
	if err != nil {
		return IterationRecord{}, err
	}
	if miss {
		k.res.DeadlineMisses++
	}
	if k.rec != nil {
		k.record(obs.Event{
			Kind: obs.KindStage, Iter: iter, Tile: -1, Port: -1, ISP: -1,
			Start: k.clock, End: k.clock,
			Detail: "select", WallUS: time.Since(stage0).Microseconds(),
		})
		stage0 = time.Now()
	}

	// Stage 3: event-driven execution over the fabric.
	clock0 := k.clock
	loads0, reuses0 := k.res.Loads, k.res.Reuses
	over0 := k.res.ActualTotal - k.res.IdealTotal
	peak, err := k.executeIteration(instances)
	if err != nil {
		return IterationRecord{}, err
	}
	if peak > k.maxInFlight {
		k.maxInFlight = peak
	}
	if k.rec != nil {
		k.record(obs.Event{
			Kind: obs.KindStage, Iter: iter, Tile: -1, Port: -1, ISP: -1,
			Start: clock0, End: k.clock,
			Detail: "execute", WallUS: time.Since(stage0).Microseconds(),
		})
	}

	// Stage 4: per-iteration accounting.
	rec := IterationRecord{
		Iteration:    iter,
		Instances:    len(instances),
		MaxInFlight:  peak,
		Makespan:     k.clock.Sub(clock0),
		Overhead:     (k.res.ActualTotal - k.res.IdealTotal) - over0,
		Loads:        k.res.Loads - loads0,
		Reuses:       k.res.Reuses - reuses0,
		DeadlineMiss: miss,
	}
	k.mkQ.Add(rec.Makespan.Milliseconds())
	k.ovQ.Add(rec.Overhead.Milliseconds())
	return rec, nil
}

// selectInstances is the point-selection stage: scenario draws plus, in
// deadline mode, the TCM energy-aware Pareto point selection.
func (k *kernel) selectInstances(todo []int) ([]*prepared, bool, error) {
	sc := &k.sc
	if cap(sc.instances) < len(todo) {
		sc.instances = make([]*prepared, len(todo))
	}
	instances := sc.instances[:len(todo)]
	if k.opt.Deadline <= 0 {
		for i, mi := range todo {
			si := drawScenario(k.rng, k.mix[mi])
			instances[i] = k.prep[mi][si].points[0]
		}
		return instances, false, nil
	}
	if cap(sc.curves) < len(todo) {
		sc.curves = make([]*tcm.Curve, len(todo))
		sc.scens = make([]int, len(todo))
	}
	curves := sc.curves[:len(todo)]
	scens := sc.scens[:len(todo)]
	for i, mi := range todo {
		scens[i] = drawScenario(k.rng, k.mix[mi])
		curves[i] = k.prep[mi][scens[i]].curve
	}
	sel, err := tcm.Select(curves, k.opt.Deadline)
	if err != nil {
		// Even the fastest points miss: record it and degrade to the
		// fastest combination.
		for i, mi := range todo {
			instances[i] = k.prep[mi][scens[i]].points[0]
			k.res.PointEnergy += curves[i].Fastest().Energy
		}
		return instances, true, nil
	}
	for i := range sel {
		instances[i] = k.prep[todo[i]][scens[i]].points[sel[i].Index]
		k.res.PointEnergy += sel[i].Point.Energy
	}
	return instances, false, nil
}

// executeIteration is the event-driven execute stage: the iteration's
// instances all arrive at the current clock, are admitted FIFO onto
// fabric claims granted by the admission policy (head-of-line blocking
// keeps the execution order deterministic), run the moment they are
// admitted, and retire in completion order, releasing their tiles for
// the queued remainder. It returns the iteration's peak in-flight
// count.
//
// Under serial admission every claim is the whole fabric, so exactly
// one instance is in flight at a time and the loop reproduces the
// sequential back-to-back replay bit for bit.
func (k *kernel) executeIteration(instances []*prepared) (int, error) {
	sc := &k.sc
	arrival := k.clock
	flights := sc.flights[:0]
	now := arrival
	peak := 0
	qi := 0
	for qi < len(instances) || len(flights) > 0 {
		// Admission: grant claims to the queue head while one fits.
		for qi < len(instances) {
			pr := instances[qi]
			n := len(flights)
			if n < cap(flights) {
				flights = flights[:n+1]
			} else {
				flights = append(flights, flight{})
			}
			fl := &flights[n]
			claim, ok := k.fab.Acquire(k.alloc, pr.busyTiles, pr.cfgs, fl.claim[:0])
			fl.claim = claim
			if !ok {
				flights = flights[:n]
				break
			}
			end, err := k.runInstance(pr, instances[qi:], now, claim)
			if err != nil {
				sc.flights = flights[:0]
				return peak, err
			}
			fl.seq = qi
			fl.end = end
			qi++
			k.qdQ.Add(now.Sub(arrival).Milliseconds())
			k.rtQ.Add(end.Sub(arrival).Milliseconds())
			if len(flights) > peak {
				peak = len(flights)
			}
			if k.rec != nil {
				seq := k.res.Instances - 1 // runInstance just accounted it
				name := pr.sched.G.Name
				if now > arrival {
					k.record(obs.Event{
						Kind: obs.KindQueue, Iter: k.curIter, Seq: seq, Task: name,
						Tile: -1, Port: -1, ISP: -1, Start: arrival, End: now,
					})
				}
				k.record(obs.Event{
					Kind: obs.KindAdmit, Iter: k.curIter, Seq: seq, Task: name,
					Tile: -1, Port: -1, ISP: -1, Start: now, End: now,
				})
				k.record(obs.Event{
					Kind: obs.KindRetire, Iter: k.curIter, Seq: seq, Task: name,
					Tile: -1, Port: -1, ISP: -1, Start: now, End: end,
					Ideal: k.sc.inst.ideal, Overhead: k.sc.inst.overhead,
				})
			}
		}
		if queued := len(instances) - qi; queued > k.peakQueued {
			k.peakQueued = queued
		}
		if len(flights) == 0 {
			// The queue head cannot be admitted even on an idle fabric:
			// its schedule needs more tiles than any claim can span.
			pr := instances[qi]
			sc.flights = flights
			return peak, fmt.Errorf("sim: instance %q needs %d tiles but %s admission cannot grant them on %d tiles",
				pr.sched.G.Name, pr.busyTiles, k.modeName, k.p.Tiles)
		}
		// Retirement: advance to the earliest completion (admission
		// order on ties) and release its tiles.
		best := 0
		for i := 1; i < len(flights); i++ {
			if flights[i].end < flights[best].end ||
				(flights[i].end == flights[best].end && flights[i].seq < flights[best].seq) {
				best = i
			}
		}
		now = flights[best].end
		k.fab.Release(flights[best].claim)
		last := len(flights) - 1
		flights[best], flights[last] = flights[last], flights[best]
		flights = flights[:last]
	}
	sc.flights = flights
	if now > k.clock {
		k.clock = now
	}
	return peak, nil
}

// runInstance executes one admitted instance starting at start on the
// claimed tiles: reuse + replacement restricted to the claim, replay
// under the selected approach against the shared port and ISP
// timelines, then accounting and the eager fabric-state commit (safe
// because concurrent claims are disjoint). upcoming is the queued
// remainder of this iteration (this instance first), whose loads make
// the lookahead stream of a reconfig.Lookahead policy. It returns the
// instance's completion time.
func (k *kernel) runInstance(pr *prepared, upcoming []*prepared, start model.Time, claim []int) (model.Time, error) {
	sc := &k.sc
	res := k.res
	s := pr.sched
	f := k.fab

	// Model the run-time scheduler's own CPU cost.
	if k.opt.SchedulerCost {
		cost := schedulerCost(k.opt.Approach, s.G.Len())
		res.SchedCost += cost
		start = start.Add(cost)
	}

	// Reuse + replacement modules (virtual -> physical), confined to
	// the claimed tiles.
	var critical func(graph.SubtaskID) bool
	if pr.analysis != nil {
		sc.curAnalysis = pr.analysis
		critical = sc.criticalFn
	}
	var future []graph.ConfigID
	if k.lookahead {
		future = sc.future[:0]
		for _, up := range upcoming {
			for _, id := range up.sched.AllLoads() {
				future = append(future, up.sched.G.Subtask(id).Config)
			}
		}
		sc.future = future
	}
	mapping, err := reconfig.MapInto(s, f.State(), reconfig.MapOptions{
		Policy: f.Policy(), Critical: critical, Future: future, Allowed: claim,
	}, &sc.mapSc)
	if err != nil {
		return 0, err
	}
	var resident []bool
	if k.useReuse {
		sc.resident = reconfig.ResidentInto(sc.resident, s, f.State(), mapping)
		resident = sc.resident
	}

	loadFloor := start
	if k.interTask {
		loadFloor = model.MinT(f.MinPortFree(), start)
	}
	sc.tileFree = f.Availability(s, mapping, sc.tileFree)

	// Port availability before this instance runs: if the controller
	// is still draining earlier work past our start, any loads we
	// issue are contending for it (traced as a port stall).
	var portBusyUntil model.Time
	if k.rec != nil {
		portBusyUntil = f.MinPortFree()
	}

	// The one set of boundary conditions every approach gets. PortFree
	// is the fabric's shared per-port timeline, which the commit below
	// advances, so concurrently admitted instances contend for the
	// controllers.
	inst, err := k.execute(pr, schedule.Instance{
		ExecFloor: start,
		LoadFloor: loadFloor,
		TileFree:  sc.tileFree,
		PortFree:  f.PortFree(),
	}, resident)
	if err != nil {
		return 0, fmt.Errorf("sim: executing %q: %w", s.G.Name, err)
	}

	// Account. Reuse and load statistics are relative to the hardware
	// (loadable) subtasks.
	res.Instances++
	res.Subtasks += pr.hw
	res.IdealTotal += inst.ideal
	res.ActualTotal += inst.ideal + inst.overhead
	res.Loads += inst.loads
	res.InitLoads += inst.initLoads
	for _, r := range resident {
		if r {
			res.Reuses++
		}
	}
	res.Cancelled += inst.cancelled
	res.LoadEnergy += float64(inst.loads) * k.p.LoadEnergy
	res.SavedLoads += pr.hw - inst.loads
	res.PrefetchHits += inst.prefetchHits
	res.DemandMisses += inst.demandMisses

	// Emit the instance's fabric events before the state commit below
	// overwrites the residency the victim attribution reads.
	if k.rec != nil {
		k.traceInstance(pr, mapping, start, portBusyUntil)
	}

	// Advance the shared fabric state from the evaluated timeline:
	// tiles, ISPs and every port, the same way for every approach. The
	// commit is eager — at admission, not retirement — which is exact
	// because concurrent claims are disjoint: only this instance can
	// touch its tiles' residency and availability until it releases
	// them.
	f.Advance(s, mapping, sc.tl)
	if k.useReuse {
		reconfig.Commit(s, f.State(), mapping, resident, sc.endOfFn)
	}
	return inst.end, nil
}

// execute replays one prepared artifact within bounds under the selected
// approach, writing into the scratch instance and leaving the evaluated
// timeline in sc.tl. Each approach is a prefetch scheduler and a load
// list; all but hybrid replay their decisions from the run's memo (see
// prefetch.Memo for why hybrid does not). It does not touch the fabric:
// runInstance commits the timeline.
func (k *kernel) execute(pr *prepared, bounds schedule.Instance, resident []bool) (*instance, error) {
	sc := &k.sc
	s := pr.sched

	var r *prefetch.Result
	var err error
	var init, cancelled int
	switch k.opt.Approach {
	case Hybrid:
		pr.analysis.PlanInto(&sc.plan, resident)
		init, cancelled = len(sc.plan.InitLoads), len(sc.plan.Cancelled)
		r, err = prefetch.Phased{Init: init}.ScheduleScratch(s, pr.static, sc.plan.Loads(), bounds, &sc.pfSc)
	case NoPrefetch:
		r, err = sc.memo.Schedule(prefetch.OnDemand{}, s, pr.static, sc.hardwareLoads(s, resident), bounds, &sc.pfSc)
	case DesignTimePrefetch:
		r, err = sc.memo.Schedule(prefetch.FixedOrder{}, s, pr.static, pr.dtOrder, bounds, &sc.pfSc)
	case RunTime, RunTimeInterTask:
		r, err = sc.memo.Schedule(prefetch.List{}, s, pr.static, sc.hardwareLoads(s, resident), bounds, &sc.pfSc)
	default:
		return nil, fmt.Errorf("sim: unknown approach %v", k.opt.Approach)
	}
	if err != nil {
		return nil, err
	}
	inst := &sc.inst
	*inst = instance{
		ideal:     r.Ideal,
		overhead:  r.Overhead,
		end:       r.Timeline.End,
		loads:     len(r.PortOrder),
		initLoads: init,
		cancelled: cancelled,
	}
	k.countInstance(s, r.Timeline, inst)
	sc.tl = r.Timeline
	return inst, nil
}

// countInstance attributes the instance's timeline loads (prefetch
// hit vs demand miss) and accumulates per-ISP busy time. It runs on
// every path, traced or not — pure integer arithmetic over the
// timeline, no allocations — so the /metrics families exist without
// tracing.
func (k *kernel) countInstance(s *assign.Schedule, tl *schedule.Timeline, inst *instance) {
	for i := 0; i < s.G.Len(); i++ {
		id := graph.SubtaskID(i)
		v := s.Assignment[id]
		if v >= s.Tiles {
			k.ispBusy[v-s.Tiles] += tl.ExecEnd[id].Sub(tl.ExecStart[id])
			continue
		}
		if tl.LoadStart[id] != schedule.NoEvent {
			if tl.ExecStart[id] > tl.LoadEnd[id] {
				inst.prefetchHits++
			} else {
				inst.demandMisses++
			}
		}
	}
}

// traceInstance emits the admitted instance's fabric events: loads with
// prefetch attribution (hybrid initialization loads, the loaded
// critical subtasks, tagged "init") and replacement-victim picks (read
// against the pre-commit residency), per-tile executions, per-ISP busy
// intervals, and the port stall if the controller was still draining at
// task start. Only called when tracing is on.
func (k *kernel) traceInstance(pr *prepared, mapping reconfig.Mapping, start, portBusyUntil model.Time) {
	sc := &k.sc
	s := pr.sched
	tl := sc.tl
	seq := k.res.Instances - 1
	name := s.G.Name
	state := k.fab.State()
	hybrid := k.opt.Approach == Hybrid
	for v := 0; v < s.Tiles; v++ {
		phys := mapping.PhysOf[v]
		prev := state.Key(phys)
		for _, id := range s.TileOrder[v] {
			sub := s.G.Subtask(id)
			if tl.LoadStart[id] != schedule.NoEvent {
				key := s.G.ConfigKey(id)
				if prev != (unique.Handle[graph.ConfigID]{}) && prev != key {
					k.record(obs.Event{
						Kind: obs.KindVictim, Iter: k.curIter, Seq: seq, Task: name,
						Subtask: sub.Name, Config: string(prev.Value()), Detail: string(sub.Config),
						Tile: phys, Port: -1, ISP: -1,
						Start: tl.LoadStart[id], End: tl.LoadStart[id],
					})
				}
				prev = key
				var detail string
				if hybrid && pr.analysis.IsCritical(id) {
					detail = "init"
				}
				k.record(obs.Event{
					Kind: obs.KindLoad, Iter: k.curIter, Seq: seq, Task: name,
					Subtask: sub.Name, Config: string(sub.Config), Detail: detail,
					Tile: phys, Port: tl.LoadPort[id], ISP: -1,
					Start: tl.LoadStart[id], End: tl.LoadEnd[id],
					Prefetch: tl.ExecStart[id] > tl.LoadEnd[id],
				})
			}
			k.record(obs.Event{
				Kind: obs.KindExec, Iter: k.curIter, Seq: seq, Task: name,
				Subtask: sub.Name, Config: string(sub.Config),
				Tile: phys, Port: -1, ISP: -1,
				Start: tl.ExecStart[id], End: tl.ExecEnd[id],
			})
		}
	}
	for v := s.Tiles; v < len(s.TileOrder); v++ {
		for _, id := range s.TileOrder[v] {
			sub := s.G.Subtask(id)
			k.record(obs.Event{
				Kind: obs.KindISPBusy, Iter: k.curIter, Seq: seq, Task: name,
				Subtask: sub.Name, Tile: -1, Port: -1, ISP: v - s.Tiles,
				Start: tl.ExecStart[id], End: tl.ExecEnd[id],
			})
		}
	}
	if sc.inst.loads > 0 && portBusyUntil > start {
		k.record(obs.Event{
			Kind: obs.KindPortStall, Iter: k.curIter, Seq: seq, Task: name,
			Tile: -1, Port: -1, ISP: -1,
			Start: start, End: portBusyUntil,
		})
	}
}

// record shifts ev from the running replication's clock onto the run's
// timeline and records it. Only called when tracing is on.
func (k *kernel) record(ev obs.Event) {
	ev.Start += k.traceBase
	ev.End += k.traceBase
	k.rec.Record(ev)
}

// hardwareLoads lists, in the scratch buffer, the hardware subtasks of s
// that resident (nil: nothing) does not hold, in ID order: the load set
// the run-time schedulers order (each sorts its own copy).
func (sc *scratch) hardwareLoads(s *assign.Schedule, resident []bool) []graph.SubtaskID {
	loads := sc.loads[:0]
	for i := 0; i < s.G.Len(); i++ {
		id := graph.SubtaskID(i)
		if (resident == nil || !resident[id]) && !s.G.Subtask(id).OnISP {
			loads = append(loads, id)
		}
	}
	sc.loads = loads
	return loads
}

// finish folds the tail estimators into the aggregate.
func (k *kernel) finish() *Result {
	res := k.res
	if res.IdealTotal > 0 {
		res.OverheadPct = model.Pct(res.ActualTotal-res.IdealTotal, res.IdealTotal)
	}
	if res.Subtasks > 0 {
		res.ReusePct = 100 * float64(res.Reuses) / float64(res.Subtasks)
	}
	res.IterMakespan = Tail{
		P50: k.mkQ.Quantile(0.5),
		P95: k.mkQ.Quantile(0.95),
		P99: k.mkQ.Quantile(0.99),
	}
	res.IterOverhead = Tail{
		P50: k.ovQ.Quantile(0.5),
		P95: k.ovQ.Quantile(0.95),
		P99: k.ovQ.Quantile(0.99),
	}
	res.QueueDelay = Tail{
		P50: k.qdQ.Quantile(0.5),
		P95: k.qdQ.Quantile(0.95),
		P99: k.qdQ.Quantile(0.99),
	}
	res.ResponseTime = Tail{
		P50: k.rtQ.Quantile(0.5),
		P95: k.rtQ.Quantile(0.95),
		P99: k.rtQ.Quantile(0.99),
	}
	res.MultitaskMode = k.modeName
	res.Partitions = k.partitions
	res.MaxInFlight = k.maxInFlight
	res.PeakQueued = k.peakQueued
	res.ISPBusy = k.ispBusy
	if k.workers > 0 {
		res.Execution = "sharded"
	} else {
		res.Execution = "sequential"
	}
	res.Workers = k.workers
	return res
}
