// Package sim executes dynamic application mixes on the modelled DRHW
// platform and accounts the reconfiguration overhead, reproducing the
// experimental setup of the paper's §7: many iterations, a randomly
// varying set and order of applications per iteration, per-frame
// scenario selection, and tile state carried across every task instance
// so the reuse, prefetch and replacement modules interact exactly as
// they do in the TCM run-time flow of Fig. 2.
//
// The simulator is a staged kernel (see kernel.go): design-time
// preparation, then per iteration a pluggable arrival draw (Arrivals),
// Pareto point selection, event-driven instance execution over the
// shared fabric layer (internal/fabric) on reusable scratch buffers,
// and accounting that feeds streaming tail estimators and an optional
// per-iteration Observer. One chunk executor (parallel.go) drives that
// body for every run: the iteration stream is cut into replications,
// each starting on a cold fabric, and every iteration draws from its
// own counter-derived random streams (seed.go). Options.Parallelism
// picks the cut — one whole-run replication by default, 32-iteration
// replications spread over N workers otherwise. Options.Multitask
// selects how instances are admitted onto the fabric: serially (the
// paper's one-instance-owns-the-FPGA model, the default) or
// concurrently onto disjoint tile claims (partition / greedy online
// hardware multitasking), with per-instance queueing-delay and
// response-time tails in the Result.
//
// Five scheduling approaches are selectable, matching the five
// simulations of §7:
//
//   - NoPrefetch: loads on demand, no reuse — the 23 % / 71 % baselines;
//   - DesignTimePrefetch: an optimal prefetch schedule fixed at design
//     time; reuse is impossible because the design time cannot know
//     what will be resident — the 7 % / 25 % baselines;
//   - RunTime: the run-time list-scheduling heuristic of [7] plus the
//     reuse and replacement modules;
//   - RunTimeInterTask: RunTime plus the inter-task optimization (the
//     idle reconfiguration tail prefetches the next task);
//   - Hybrid: the paper's hybrid design-time/run-time heuristic.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/obs"
	"drhwsched/internal/platform"
	"drhwsched/internal/prefetch"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/schedule"
	"drhwsched/internal/tcm"
)

// Approach selects the scheduling flow under test.
type Approach int

// The five simulated flows of the paper's §7.
const (
	NoPrefetch Approach = iota
	DesignTimePrefetch
	RunTime
	RunTimeInterTask
	Hybrid
)

// String names the approach as the paper does.
func (a Approach) String() string {
	switch a {
	case NoPrefetch:
		return "no-prefetch"
	case DesignTimePrefetch:
		return "design-time-prefetch"
	case RunTime:
		return "run-time"
	case RunTimeInterTask:
		return "run-time+inter-task"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("approach(%d)", int(a))
	}
}

// TaskMix is one application in the simulated mix.
type TaskMix struct {
	Task *tcm.Task
	// ScenarioWeights biases the per-instance scenario draw (e.g. the
	// MPEG frame-type mix). Nil means uniform. Non-nil weights must
	// match the scenario count, be non-negative, and sum to a positive
	// total; Run rejects degenerate vectors up front.
	ScenarioWeights []float64
}

// AutoParallelism asks Run to pick the worker count itself: one per
// available CPU, with the 32-iteration replications of any explicit
// worker count, so its results equal those of Parallelism 1. The
// chosen count is recorded in Result.Workers.
const AutoParallelism = -1

// Options configure a simulation run.
type Options struct {
	Approach   Approach
	Iterations int // paper: 1000
	Seed       int64

	// Parallelism selects how the iteration stream is cut into
	// replications and how many workers run them. Every run goes
	// through the same chunk executor: a replication starts on a cold
	// fabric at clock zero and chains tile residency, availability
	// timelines and the clock across its iterations (the paper's §7
	// model), and every iteration draws from its own counter-derived
	// random streams (seed.go), so a replication's outcome is a pure
	// function of the inputs, Seed and its position.
	//
	// 0 (the default) runs the whole iteration stream as one
	// replication on the caller's goroutine — the paper's single warm
	// chain.
	//
	// A value >= 1 cuts the stream into 32-iteration replications and
	// distributes them across that many workers. Aggregates do not
	// depend on the worker count: every Parallelism >= 1 yields
	// bit-identical Results (scalars exactly, tails from the same
	// merged sketch). 0 and 1 differ in semantics, not only in speed:
	// residency chains across the whole run at 0, across a replication
	// at 1. AutoParallelism (-1) uses one worker per available CPU. The
	// resolved worker count lands in Result.Workers.
	//
	// Every admission mode replicates this way: partition and greedy
	// runs drain their in-flight set at every iteration boundary, so a
	// replication boundary is an iteration boundary. The arrival
	// process must draw iterations by index (ShardableArrivals; the
	// built-in Bernoulli, OnOff and Trace processes all do) at every
	// Parallelism.
	Parallelism int

	// Policy is the replacement policy (nil: LRU, the default module).
	// A policy that implements reconfig.Lookahead, such as Belady,
	// receives the upcoming configuration stream of the iteration (the
	// queued instances, this one first); every other policy receives a
	// nil stream.
	Policy reconfig.Policy
	// InclusionProb is the chance each application appears in an
	// iteration ("the applications executed during each iteration vary
	// randomly"); zero means 0.8. At least one always runs. It
	// parameterizes the default Bernoulli process and is ignored when
	// Arrivals is set.
	InclusionProb float64
	// Arrivals selects the workload arrival process: nil means the
	// paper's Bernoulli draw (under InclusionProb). OnOff produces
	// bursty Markov-modulated phases; Trace replays a recorded log.
	Arrivals Arrivals
	// Multitask selects the fabric admission mode of the execute
	// stage. The zero value (serial) replays instances one at a time on
	// the whole fabric, exactly as the paper does; partition and greedy
	// modes admit an iteration's instances onto disjoint tile claims so
	// several run concurrently, queueing when nothing fits.
	Multitask Multitask
	// Observer, when non-nil, receives one IterationRecord per
	// iteration, synchronously and in order. Observation never alters
	// results.
	Observer Observer
	// Trace, when non-nil, records run-time fabric events (instance
	// admission/queueing/retirement, reconfiguration loads with
	// prefetch-hit vs demand-miss attribution, per-tile executions,
	// per-ISP busy intervals, port stalls, replacement victims) and
	// kernel stage timings into the recorder's bounded ring. Tracing
	// never alters results — a traced run's aggregates are
	// bit-identical to the untraced run — and a nil recorder costs
	// one pointer check on the hot path (the allocation budgets pin
	// this). Tracing works at every Parallelism: a traced run executes
	// its replications in order on the caller's goroutine, and shifts
	// each replication's events by the end clocks of the ones before
	// it, so the recorder holds one timeline.
	Trace *obs.Recorder
	// DisableInterTask turns the inter-task optimization off for the
	// Hybrid approach (ablation A2). RunTime/RunTimeInterTask are
	// distinct approaches already.
	DisableInterTask bool
	// SchedulerCost, when true, models the CPU time of the run-time
	// scheduling computation itself and adds it to the task start (the
	// paper's motivation for the hybrid split: the [7] heuristic costs
	// O(N log N) per task, the hybrid run-time phase O(N)). The modelled
	// cost is charged for every decision, whether or not the host
	// replays it from its decision table (prefetch.Memo): it models the
	// paper's hardware, not the host.
	SchedulerCost bool
	// Deadline, when positive, activates the TCM run-time scheduler of
	// the paper's Fig. 2: every iteration the Pareto points of the
	// drawn task scenarios are selected to minimize energy while the
	// iteration's tasks, run back to back, fit the deadline. Zero
	// keeps the default of always using the fastest (widest) point.
	Deadline model.Dur
	// Analyzer computes (or retrieves) the design-time analysis of one
	// schedule. Nil means core.Analyze directly; internal/engine
	// injects its memoizing cache here so repeated runs and parameter
	// sweeps skip design-time phases they have already paid for. An
	// Analyzer must return artifacts equivalent to core.Analyze's —
	// the run's results do not depend on which one served them.
	Analyzer AnalyzeFunc
	// Context, when non-nil, cancels the run: it is checked between
	// design-time preparations and between iterations, and the run
	// returns the context's error. Cancellation never alters results —
	// a run that completes is identical with or without a Context —
	// which is how per-request deadlines of the drhwd service reach
	// into long simulations.
	Context context.Context
}

// effectiveWorkers resolves the Parallelism knob: 0 is the whole-run
// replication, any positive count is 32-iteration replications on that
// many workers, and AutoParallelism picks one worker per CPU.
func (o Options) effectiveWorkers() (int, error) {
	switch {
	case o.Parallelism == AutoParallelism:
		return runtime.GOMAXPROCS(0), nil
	case o.Parallelism >= 0:
		return o.Parallelism, nil
	default:
		return 0, fmt.Errorf("sim: parallelism %d is invalid (0 whole run, %d auto, or a positive worker count)",
			o.Parallelism, AutoParallelism)
	}
}

// AnalyzeFunc computes or retrieves the design-time analysis of a
// schedule on a platform.
type AnalyzeFunc func(*assign.Schedule, platform.Platform, core.Options) (*core.Analysis, error)

// Result aggregates a simulation.
type Result struct {
	Approach   Approach
	Tiles      int
	Iterations int

	IdealTotal  model.Dur
	ActualTotal model.Dur
	// OverheadPct is the paper's metric: the execution-time increase
	// caused by reconfigurations, as a percentage of the ideal time.
	OverheadPct float64

	Instances  int
	Loads      int // reconfigurations actually performed
	InitLoads  int // loads issued by hybrid initialization phases
	Reuses     int // subtasks that found their configuration resident
	Cancelled  int // design-time loads cancelled at run time
	Subtasks   int // subtask instances executed
	ReusePct   float64
	LoadEnergy float64 // mJ spent reconfiguring
	SavedLoads int     // loads avoided vs. loading everything

	// PrefetchHits and DemandMisses attribute every performed load:
	// a hit is a reconfiguration fully hidden behind computation (the
	// execution started strictly after the load completed — the load
	// cost the task nothing), a miss is a load the execution was
	// waiting on (it started the instant the load finished).
	// PrefetchHits + DemandMisses == Loads.
	PrefetchHits int
	DemandMisses int

	// PeakQueued is the peak number of instances waiting for fabric
	// admission behind the in-flight set (0 whenever every arrival
	// was admitted immediately).
	PeakQueued int

	// ISPBusy is the total busy time of each instruction-set
	// processor, indexed by ISP.
	ISPBusy []model.Dur

	// IterMakespan and IterOverhead summarize the per-iteration
	// makespan and reconfiguration-overhead distributions (streaming
	// P50/P95/P99, milliseconds) — the tail behaviour a mean cannot
	// show.
	IterMakespan Tail
	IterOverhead Tail

	// QueueDelay and ResponseTime summarize the per-instance admission
	// wait (arrival to fabric claim) and sojourn (arrival to
	// completion) distributions in milliseconds. Under the serial
	// default the queueing delay is the time spent behind the
	// iteration's earlier instances; multitask modes shrink it by
	// admitting instances onto disjoint tile claims concurrently.
	QueueDelay   Tail
	ResponseTime Tail

	// MultitaskMode is the canonical admission-mode name the run
	// executed under ("serial", "partition", "greedy"); Partitions is
	// the partition count (0 outside partition mode); MaxInFlight is
	// the peak number of instances concurrently on the fabric (1 under
	// serial whenever any instance ran).
	MultitaskMode string
	Partitions    int
	MaxInFlight   int

	// Execution names how the run was cut: "sequential" (one whole-run
	// replication, Parallelism 0) or "sharded" (32-iteration
	// replications, Parallelism >= 1). Workers records the resolved
	// worker count — the explicit Parallelism, or the CPU count
	// AutoParallelism chose — and stays 0 at Parallelism 0. Workers is
	// the one field that legitimately varies with the worker count:
	// every other field of a sharded Result is bit-identical for every
	// Parallelism >= 1, and the shard-invariance suite normalizes
	// Workers before comparing whole Results.
	Execution string
	Workers   int

	// CriticalPct is the average share of critical subtasks across the
	// analyses used (meaningful for Hybrid only).
	CriticalPct float64

	// SchedCost is the modelled run-time scheduler CPU time in total.
	SchedCost model.Dur

	// DeadlineMisses counts iterations whose fastest point combination
	// could not meet Options.Deadline (the selector then falls back to
	// the fastest points). Zero when no deadline was set.
	DeadlineMisses int
	// PointEnergy sums the TCM energy estimates of the selected Pareto
	// points (only accumulated in deadline mode).
	PointEnergy float64

	// CacheHits and CacheMisses count the design-time analysis cache
	// lookups made on behalf of this run when it was driven through an
	// internal/engine Engine; both stay zero for direct sim.Run calls.
	// CacheHitRate is CacheHits over total lookups (0 when none).
	CacheHits    int
	CacheMisses  int
	CacheHitRate float64
}

// prepared caches the design-time artifacts of one concrete schedule
// (one Pareto point of one task scenario).
type prepared struct {
	sched *assign.Schedule
	// static is the schedule's constraint DAG on the platform, built
	// once here and shared read-only by every instance and shard.
	static   *schedule.Static
	analysis *core.Analysis    // reuse-aware approaches
	dtOrder  []graph.SubtaskID // DesignTimePrefetch port order
	hw       int               // hardware (loadable) subtask count
	// busyTiles is the number of virtual tiles that execute anything —
	// the fabric claim an instance of this schedule needs; cfgs is its
	// distinct hardware configuration set (reuse-aware admission).
	busyTiles int
	cfgs      []graph.ConfigID
}

// scenPrep holds everything prepared for one (task, scenario) pair: the
// TCM Pareto curve (deadline mode only) and one prepared artifact per
// selectable point. In the default widest mode there is exactly one.
type scenPrep struct {
	curve  *tcm.Curve
	points []*prepared
}

// makePrepared builds the per-schedule artifacts an approach needs.
// analyze serves the design-time analyses (core.Analyze or a memoizing
// wrapper).
func makePrepared(s *assign.Schedule, p platform.Platform, approach Approach, analyze AnalyzeFunc) (*prepared, error) {
	st, err := s.Static(p)
	if err != nil {
		return nil, fmt.Errorf("sim: preparing %q: %w", s.G.Name, err)
	}
	pr := &prepared{sched: s, static: st}
	for _, st := range s.G.Subtasks() {
		if !st.OnISP {
			pr.hw++
			found := false
			for _, c := range pr.cfgs {
				if c == st.Config {
					found = true
					break
				}
			}
			if !found {
				pr.cfgs = append(pr.cfgs, st.Config)
			}
		}
	}
	for v := 0; v < s.Tiles; v++ {
		if len(s.TileOrder[v]) > 0 {
			pr.busyTiles++
		}
	}
	switch approach {
	case Hybrid, RunTime, RunTimeInterTask:
		// The reuse-aware approaches share the replacement module,
		// which consumes the design-time criticality analysis (the
		// paper's Fig. 2 flow applies the same reuse and replacement
		// modules around every prefetch heuristic).
		a, err := analyze(s, p, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("sim: analyzing %q: %w", s.G.Name, err)
		}
		pr.analysis = a
	case DesignTimePrefetch:
		r, err := (prefetch.BranchBound{}).ScheduleScratch(s, pr.static, s.AllLoads(), schedule.Instance{}, new(prefetch.Scratch))
		if err != nil {
			return nil, fmt.Errorf("sim: design-time prefetch %q: %w", s.G.Name, err)
		}
		pr.dtOrder = r.PortOrder
	}
	return pr, nil
}

// Run simulates the mix under the options and returns the aggregate.
func Run(mix []TaskMix, p platform.Platform, opt Options) (*Result, error) {
	k, err := newKernel(mix, p, opt)
	if err != nil {
		return nil, err
	}
	return k.run()
}

// instance is the outcome of one task arrival.
type instance struct {
	ideal        model.Dur
	overhead     model.Dur
	end          model.Time
	loads        int
	initLoads    int
	cancelled    int
	prefetchHits int // loads hidden behind computation
	demandMisses int // loads the execution stalled on
}

// drawScenario samples a scenario index under the mix's weights (which
// Run has already validated as non-degenerate).
func drawScenario(rng *rand.Rand, m TaskMix) int {
	n := len(m.Task.Scenarios)
	if n == 1 {
		return 0
	}
	if m.ScenarioWeights == nil {
		return rng.Intn(n)
	}
	var total float64
	for _, w := range m.ScenarioWeights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range m.ScenarioWeights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return n - 1
}

// schedulerCost models the CPU time of the run-time scheduling
// computation, calibrated to the paper's report that scheduling 20
// tasks of 14 subtasks with the [7] heuristic takes under 0.1 ms:
// ≈0.09 µs · N·log2(N) per task. The hybrid run-time phase only walks
// the stored orders once: ≈0.02 µs · N.
func schedulerCost(ap Approach, n int) model.Dur {
	if n < 2 {
		n = 2
	}
	switch ap {
	case RunTime, RunTimeInterTask:
		c := model.Dur(0.09*float64(n)*math.Log2(float64(n)) + 0.5)
		return model.MaxD(c, 2*model.Microsecond)
	case Hybrid:
		c := model.Dur(0.02*float64(n) + 0.5)
		return model.MaxD(c, model.Microsecond)
	default:
		return 0
	}
}
