// Package drhwsched is a library for scheduling run-time
// reconfigurations of dynamically reconfigurable hardware (DRHW), a
// faithful reimplementation of:
//
//	J. Resano, D. Mozos, F. Catthoor.
//	"A Hybrid Prefetch Scheduling Heuristic to Minimize at Run-Time
//	the Reconfiguration Overhead of Dynamically Reconfigurable
//	Hardware", DATE 2005.
//
// The package exposes the building blocks as type and function aliases
// over the implementation packages:
//
//   - task graphs (NewGraph) and the tile platform (DefaultPlatform);
//   - the initial list scheduler that neglects reconfigurations
//     (ListSchedule);
//   - the prefetch schedulers: OnDemand (no prefetch), List (the
//     run-time heuristic of the authors' earlier work) and BranchBound
//     (optimal);
//   - the paper's contribution: Analyze, which computes the minimal
//     Critical Subtask set and the stored design-time schedule, and
//     Analysis.Execute, the O(N) run-time phase with load
//     cancellation and the inter-task optimization, which takes the
//     residency vector and returns one timeline per instance,
//     initialization loads included;
//   - the reuse/replacement state (NewTileState, MapTiles, Resident,
//     whose per-subtask residency vector Execute and Plan take);
//   - the fabric layer (NewFabric): the shared platform run-time state
//     behind pluggable admission policies, enabling online hardware
//     multitasking — several task instances resident on disjoint tile
//     claims at once (Multitask, SerialAllocation /
//     PartitionAllocation / GreedyAllocation);
//   - the system simulator (Simulate) that reproduces the paper's
//     experiments;
//   - the concurrent experiment engine (NewEngine) that memoizes
//     design-time analyses and fans simulation batches out over a
//     worker pool;
//   - the scheduling service (NewServer, ListenAndServe): the HTTP/JSON
//     daemon of cmd/drhwd, serving analyze/simulate/sweep over one
//     shared engine with admission control and streaming sweeps;
//   - the cluster coordinator (NewCoordinator): the daemon of
//     cmd/drhwcoord, sharding sweeps across a pool of drhwd replicas
//     by analysis fingerprint on a consistent-hash ring, merging the
//     cell streams and retrying failed replicas; the engine's analysis
//     cache sits behind the AnalysisStore seam (NewLRUStore is the
//     default), so replicas can plug in shared backends — NewPeerStore
//     is the tiered one drhwd runs, filling cold caches from warm
//     peer replicas before recomputing.
//
// # Quick start
//
//	g := drhwsched.NewGraph("pipeline")
//	a := g.AddSubtask("stage-a", 10*drhwsched.Millisecond)
//	b := g.AddSubtask("stage-b", 10*drhwsched.Millisecond)
//	g.AddEdge(a, b)
//
//	p := drhwsched.DefaultPlatform(3) // 3 tiles, 4 ms loads, 1 port
//	s, _ := drhwsched.ListSchedule(g, p, drhwsched.ScheduleOptions{})
//	analysis, _ := drhwsched.Analyze(s, p, drhwsched.AnalyzeOptions{})
//	run, _ := analysis.Execute(drhwsched.RunBounds{}, nil) // start at 0, all idle
//	fmt.Println(run.Overhead) // reconfiguration overhead of a cold start
//
// See the examples directory for complete programs.
package drhwsched

import (
	"context"
	"io"

	"drhwsched/internal/assign"
	"drhwsched/internal/cluster"
	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/fabric"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/obs"
	"drhwsched/internal/peerstore"
	"drhwsched/internal/platform"
	"drhwsched/internal/prefetch"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/schedule"
	"drhwsched/internal/server"
	"drhwsched/internal/sim"
	"drhwsched/internal/tcm"
)

// Time and duration quantities (microsecond-resolution integers).
type (
	// Time is an absolute instant on the simulated clock.
	Time = model.Time
	// Dur is a span of simulated time.
	Dur = model.Dur
)

// Duration units.
const (
	Microsecond = model.Microsecond
	Millisecond = model.Millisecond
	Second      = model.Second
)

// MS converts (possibly fractional) milliseconds to a Dur.
func MS(ms float64) Dur { return model.MS(ms) }

// Task graphs.
type (
	// Graph is a task's subtask DAG.
	Graph = graph.Graph
	// SubtaskID identifies a subtask within its graph.
	SubtaskID = graph.SubtaskID
	// ConfigID identifies a reconfigurable-hardware configuration
	// (bitstream); subtasks sharing a ConfigID can reuse each other's
	// tile state.
	ConfigID = graph.ConfigID
)

// NewGraph creates an empty task graph.
func NewGraph(name string) *Graph { return graph.New(name) }

// Platform description.
type Platform = platform.Platform

// DefaultPlatform returns the paper's platform: n tiles, 4 ms
// reconfiguration latency, one reconfiguration controller.
func DefaultPlatform(n int) Platform { return platform.Default(n) }

// Initial scheduling (the schedule the prefetch problem starts from).
type (
	// Schedule is an initial subtask schedule computed while
	// neglecting reconfiguration latency.
	Schedule = assign.Schedule
	// ScheduleOptions tune the initial list scheduler.
	ScheduleOptions = assign.Options
)

// Placement policies of the initial scheduler.
const (
	// PlaceSpread rotates pipelines across tiles so loads can be
	// prefetched (the default).
	PlaceSpread = assign.Spread
	// PlacePack clusters subtasks onto few tiles (ablation only).
	PlacePack = assign.Pack
)

// ListSchedule builds the initial schedule for g on p.
func ListSchedule(g *Graph, p Platform, opt ScheduleOptions) (*Schedule, error) {
	return assign.List(g, p, opt)
}

// Prefetch schedulers.
type (
	// PrefetchScheduler orders configuration loads on the
	// reconfiguration controller. Its one method runs on a schedule's
	// static part (Schedule.Static) and a reusable PrefetchScratch.
	PrefetchScheduler = prefetch.Scheduler
	// PrefetchScratch holds a prefetch scheduler's reusable buffers.
	PrefetchScratch = prefetch.Scratch
	// StaticSchedule is a schedule's constraint DAG on a platform,
	// built once by Schedule.Static.
	StaticSchedule = schedule.Static
	// PrefetchBounds are one task instance's boundary conditions:
	// schedule.Instance, the same type as RunBounds.
	PrefetchBounds = schedule.Instance
	// PrefetchResult is an evaluated prefetch schedule.
	PrefetchResult = prefetch.Result
	// OnDemand loads every configuration when its subtask is ready
	// (the "without prefetch" baseline).
	OnDemand = prefetch.OnDemand
	// ListPrefetch is the near-optimal O(N log N) run-time heuristic.
	ListPrefetch = prefetch.List
	// BranchBound finds the optimal load order.
	BranchBound = prefetch.BranchBound
)

// The hybrid design-time/run-time heuristic (the paper's contribution).
type (
	// Analysis is the stored design-time artifact: the Critical
	// Subtask set and the optimal schedule of the remaining loads.
	Analysis = core.Analysis
	// AnalyzeOptions tune the design-time phase.
	AnalyzeOptions = core.Options
	// RunBounds are a task arrival's boundary conditions:
	// schedule.Instance, the same type as PrefetchBounds. ExecFloor is
	// the task start, LoadFloor when the reconfiguration circuitry goes
	// idle (before ExecFloor under the inter-task optimization),
	// TileFree when each tile drains and PortFree each controller.
	RunBounds = schedule.Instance
	// RunResult is the evaluated execution of one arrival.
	RunResult = core.RunResult
	// InstancePlan is the run-time phase's O(N) output.
	InstancePlan = core.InstancePlan
)

// Analyze runs the design-time phase of the hybrid heuristic.
func Analyze(s *Schedule, p Platform, opt AnalyzeOptions) (*Analysis, error) {
	return core.Analyze(s, p, opt)
}

// Reuse and replacement.
type (
	// TileState tracks the configurations resident on physical tiles.
	TileState = reconfig.State
	// TileMapping places a schedule's virtual tiles onto physical
	// tiles.
	TileMapping = reconfig.Mapping
	// MapTileOptions tune the placement.
	MapTileOptions = reconfig.MapOptions
	// ReplacementPolicy selects eviction victims.
	ReplacementPolicy = reconfig.Policy
	// LRU, FIFO, Belady and RandomPolicy are the provided policies.
	LRU          = reconfig.LRU
	FIFO         = reconfig.FIFO
	Belady       = reconfig.Belady
	RandomPolicy = reconfig.Random
)

// NewTileState returns an all-empty tile state.
func NewTileState(tiles int) *TileState { return reconfig.NewState(tiles) }

// Fabric layer: the shared platform run-time state (tile residency,
// per-tile/per-port/per-ISP availability, in-use flags) behind the
// pluggable admission policies of online hardware multitasking.
type (
	// Fabric owns the shared run-time state of the platform.
	Fabric = fabric.Fabric
	// FabricAllocation is the admission-policy seam granting disjoint
	// tile claims to task instances.
	FabricAllocation = fabric.Allocation
	// SerialAllocation grants the whole fabric to one instance at a
	// time (the paper's model); PartitionAllocation carves the tiles
	// into fixed blocks; GreedyAllocation claims free tiles anywhere,
	// preferring resident configurations.
	SerialAllocation = fabric.Serial
	// PartitionAllocation admits instances onto fixed tile blocks.
	PartitionAllocation = fabric.Partition
	// GreedyAllocation claims exactly the needed free tiles anywhere.
	GreedyAllocation = fabric.Greedy
	// Multitask selects the simulation kernel's fabric admission mode
	// (sim.Options.Multitask / the workload JSON "sim.multitask"
	// block).
	Multitask = sim.Multitask
)

// NewFabric builds an all-idle fabric for p under the given replacement
// policy (nil means LRU).
func NewFabric(p Platform, policy ReplacementPolicy) *Fabric { return fabric.New(p, policy) }

// MultitaskModes lists the admission-mode wire names ("serial",
// "partition", "greedy").
func MultitaskModes() []string { return sim.MultitaskModes() }

// MapTiles chooses the virtual-to-physical tile placement maximizing
// (critical-first) reuse.
func MapTiles(s *Schedule, st *TileState, opt MapTileOptions) (TileMapping, error) {
	return reconfig.Map(s, st, opt)
}

// Resident reports which subtasks need no load under a mapping, as a
// vector indexed by subtask ID — the residency argument of
// Analysis.Execute and Analysis.Plan, where nil means nothing resident.
func Resident(s *Schedule, st *TileState, m TileMapping) []bool {
	return reconfig.Resident(s, st, m)
}

// TCM environment.
type (
	// Task is a dynamic task with one graph per scenario.
	Task = tcm.Task
	// ParetoPoint is one design-time (time, energy) solution.
	ParetoPoint = tcm.ParetoPoint
	// Curve is a scenario's Pareto curve.
	Curve = tcm.Curve
	// DesignSpace holds every curve of a task set.
	DesignSpace = tcm.DesignSpace
	// DTOptions tune the design-time exploration.
	DTOptions = tcm.DTOptions
)

// NewTask builds a task from its scenario graphs.
func NewTask(name string, scenarios ...*Graph) *Task { return tcm.NewTask(name, scenarios...) }

// DesignTime explores the Pareto curves of a task set.
func DesignTime(tasks []*Task, p Platform, opt DTOptions) (*DesignSpace, error) {
	return tcm.DesignTime(tasks, p, opt)
}

// System simulation.
type (
	// SimOptions configure a simulation run.
	SimOptions = sim.Options
	// SimResult aggregates a simulation.
	SimResult = sim.Result
	// TaskMix is one application in the simulated mix.
	TaskMix = sim.TaskMix
	// Approach selects the scheduling flow under test.
	Approach = sim.Approach

	// Arrivals is the pluggable workload arrival process of the
	// simulation kernel; ArrivalSource is its per-run stream.
	Arrivals = sim.Arrivals
	// ArrivalSource produces one iteration's arrivals at a time.
	ArrivalSource = sim.ArrivalSource
	// BernoulliArrivals is the paper's §7 default draw; OnOffArrivals a
	// bursty Markov-modulated process; TraceArrivals replays a log.
	BernoulliArrivals = sim.Bernoulli
	// OnOffArrivals is the bursty Markov-modulated on-off process.
	OnOffArrivals = sim.OnOff
	// TraceArrivals replays a recorded arrival log.
	TraceArrivals = sim.Trace
	// IterationRecord is the kernel's per-iteration observation;
	// SimObserver receives one per iteration.
	IterationRecord = sim.IterationRecord
	// SimObserver receives per-iteration records during a run.
	SimObserver = sim.Observer
	// TailSummary holds streaming P50/P95/P99 estimates (milliseconds).
	TailSummary = sim.Tail
)

// The five simulated scheduling flows of the paper's §7.
const (
	NoPrefetch         = sim.NoPrefetch
	DesignTimePrefetch = sim.DesignTimePrefetch
	RunTime            = sim.RunTime
	RunTimeInterTask   = sim.RunTimeInterTask
	Hybrid             = sim.Hybrid
)

// AutoParallelism, assigned to SimOptions.Parallelism, cuts the
// iteration stream into 32-iteration replications spread over one
// worker per CPU, under every fabric admission mode (serial, partition
// and greedy) and with tracing on or off. Its aggregates equal those of
// every explicit worker count; the resolved count is recorded in
// SimResult.Workers.
const AutoParallelism = sim.AutoParallelism

// Simulate runs a dynamic application mix on the modelled platform.
func Simulate(mix []TaskMix, p Platform, opt SimOptions) (*SimResult, error) {
	return sim.Run(mix, p, opt)
}

// Run-time observability: event tracing and trace-context propagation.
type (
	// TraceRecorder collects simulation events into a bounded ring
	// when assigned to SimOptions.Trace, at every Parallelism. Nil is
	// valid and means tracing off with zero hot-path cost.
	TraceRecorder = obs.Recorder
	// TraceEvent is one recorded occurrence: admissions, queue waits,
	// retirements, reconfiguration loads (with prefetch-hit vs
	// demand-miss attribution), executions, ISP busy intervals, port
	// stalls, eviction victims, kernel stage timings.
	TraceEvent = obs.Event
	// TraceSummary aggregates an event slice (Summarize).
	TraceSummary = obs.Summary
	// TraceParent is a W3C trace-context identity (trace ID + span
	// ID), the correlation token the services propagate.
	TraceParent = obs.TraceParent
)

// NewTraceRecorder builds a recorder holding up to capacity events
// (<= 0: a default of 64Ki); once full, new events are dropped and
// counted, never blocking the simulation.
func NewTraceRecorder(capacity int) *TraceRecorder { return obs.NewRecorder(capacity) }

// SummarizeTrace aggregates recorded events into per-kind counts and
// totals that cross-check the run's SimResult.
func SummarizeTrace(events []TraceEvent) TraceSummary { return obs.Summarize(events) }

// ExportChromeTrace writes events as Chrome trace-event JSON, loadable
// in Perfetto or chrome://tracing: one track per tile, port and ISP,
// with flow arrows linking each load to the execution it fed.
func ExportChromeTrace(w io.Writer, events []TraceEvent, dropped int64) error {
	return obs.ChromeTrace(w, events, dropped)
}

// NewTraceParent mints a fresh W3C trace identity; Child() derives
// spans from it. ParseTraceParent parses an incoming traceparent
// header value (obs.Header names the header).
func NewTraceParent() TraceParent { return obs.NewTrace() }

// ParseTraceParent strictly parses a version-00 traceparent value.
func ParseTraceParent(s string) (TraceParent, error) { return obs.ParseTraceParent(s) }

// Concurrent batch-experiment engine.
type (
	// Engine memoizes design-time analyses in a bounded LRU cache and
	// fans independent simulation runs out over a worker pool. Use
	// Engine.Simulate for single runs (results gain cache statistics)
	// and Engine.Sweep/Engine.Batch for experiment grids.
	Engine = engine.Engine
	// EngineConfig sizes an engine's worker pool and analysis cache.
	EngineConfig = engine.Config
	// SweepRun is one cell of an experiment grid: a simulation recorded
	// at sweep value X under series line Line.
	SweepRun = engine.Run
	// SweepResult pairs a grid cell with its outcome.
	SweepResult = engine.RunResult
	// CacheStats snapshots the engine's analysis-cache counters.
	CacheStats = engine.CacheStats
	// AnalysisStore is the engine's pluggable analysis-cache backend
	// (Get/Put/Stats). The engine deduplicates concurrent misses above
	// the store, so implementations only need plain lookup semantics.
	AnalysisStore = engine.Store
)

// NewEngine creates an engine. The zero config means GOMAXPROCS
// workers and a 256-entry analysis cache; create one engine per
// process so every run shares the cache.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// NewLRUStore returns the default analysis-cache backend: a bounded
// in-memory LRU (capacity <= 0 means 256 entries).
func NewLRUStore(capacity int) AnalysisStore { return engine.NewLRUStore(capacity) }

// Cross-replica peer fill (the tiered analysis store).
type (
	// PeerStore is the tiered AnalysisStore every drhwd runs by
	// default: local LRU, then a rendezvous-ranked fetch from peer
	// replicas' /v1/analysis/{fingerprint}, then fall through to
	// compute. SetPeers updates the peer set live (the coordinator
	// pushes it on every membership change).
	PeerStore = peerstore.Store
	// PeerStoreConfig sizes the local tier and tunes peer fetching.
	PeerStoreConfig = peerstore.Config
)

// NewPeerStore builds a tiered analysis store; pass it to the engine
// via EngineConfig.Store and to the server via ServerConfig.PeerStore
// (which serves /v1/analysis and /v1/peers from it).
func NewPeerStore(cfg PeerStoreConfig) *PeerStore { return peerstore.New(cfg) }

// Scheduling service (the drhwd daemon's serving layer).
type (
	// Server is the HTTP/JSON scheduling service over a shared engine:
	// POST /v1/analyze, /v1/simulate, /v1/sweep (streaming NDJSON), GET
	// /healthz and /metrics, with admission control and graceful drain.
	// It implements http.Handler.
	Server = server.Server
	// ServerConfig sizes the service: shared engine, in-flight and
	// document bounds, per-request timeout, drain budget.
	ServerConfig = server.Config
)

// NewServer builds a scheduling service (the zero config is fully
// usable: fresh engine, 2×GOMAXPROCS in-flight slots, 60 s request
// deadline). Mount it on any mux, or run it with ListenAndServe.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// ListenAndServe runs a scheduling service on addr until ctx is
// canceled, then drains in-flight requests. Equivalent to
// NewServer(cfg).ListenAndServe(ctx, addr); cmd/drhwd is this plus
// flags and signal handling.
func ListenAndServe(ctx context.Context, addr string, cfg ServerConfig) error {
	return server.New(cfg).ListenAndServe(ctx, addr)
}

// Cluster coordination (the drhwcoord daemon's fabric).
type (
	// Coordinator shards /v1/sweep grids across a pool of drhwd
	// replicas by analysis fingerprint on a consistent-hash ring,
	// merges the replicas' NDJSON cell streams (global indices
	// preserved) and retries undelivered cells on surviving replicas
	// when a replica dies or stalls. It implements http.Handler.
	Coordinator = cluster.Coordinator
	// CoordinatorConfig names the replica pool and tunes sharding,
	// admission, stream-idle detection and retry backoff.
	CoordinatorConfig = cluster.Config
)

// NewCoordinator builds a coordinator over cfg.Replicas (at least one
// drhwd base URL is required). Mount it on any mux, or run it with its
// ListenAndServe; cmd/drhwcoord is this plus flags and signal
// handling.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) { return cluster.New(cfg) }
