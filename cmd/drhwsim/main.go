// Command drhwsim runs one simulation of a workload on the modelled
// DRHW platform and prints the aggregate reconfiguration statistics.
//
// Usage:
//
//	drhwsim [-workload multimedia|pocketgl] [-config file.json] [-export]
//	        [-approach A] [-tiles N] [-isps N] [-iterations N] [-seed S]
//	        [-policy P] [-schedcost] [-no-intertask] [-deadline MS]
//	        [-arrivals A] [-trace file.json] [-trace-out file.json]
//	        [-multitask M] [-partitions N] [-parallelism P]
//
// The accepted names for -approach, -policy, -arrivals and -multitask
// come from the internal/workload registries (the exact sets the JSON
// parsers accept), so `drhwsim -h` always lists every mode that
// actually parses.
//
// -config replaces the built-in workload with a JSON document in the
// internal/workload schema; -export prints the selected built-in
// workload as such a document and exits, so built-ins can be dumped,
// edited, and fed back in.
//
// -arrivals selects the workload arrival process: the paper's Bernoulli
// draw (default), a bursty Markov-modulated on-off process, or
// trace-driven replay. -trace names a JSON file holding the arrival log
// (an array of iterations, each an array of task indices, e.g.
// [[0,2],[1],[]]) and implies -arrivals trace.
//
// -multitask selects the fabric admission mode: serial whole-fabric
// ownership (the paper's model, the default), fixed tile partitions
// (-partitions, default 2), or greedy free-tile claims. Concurrent
// modes report the peak in-flight count and per-instance queueing-delay
// and response-time percentiles.
//
// -trace-out records the run's fabric and kernel events and writes a
// Chrome trace-event JSON file — load it in Perfetto or
// chrome://tracing to see per-tile loads (prefetch hits vs demand
// misses), executions, port stalls, evictions, and ISP activity on a
// shared timeline. Event tracing needs the sequential path, so
// -trace-out conflicts with an explicit -parallelism.
//
// -parallelism shards the iteration stream across P worker goroutines
// with counter-derived per-iteration RNG streams; aggregates are
// bit-identical for every P >= 1 (-1 uses one worker per CPU) under
// every multitask admission mode. 0 (the default) keeps the sequential
// reference path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"drhwsched/internal/engine"
	"drhwsched/internal/model"
	"drhwsched/internal/obs"
	"drhwsched/internal/platform"
	"drhwsched/internal/sim"
	"drhwsched/internal/tcm"
	"drhwsched/internal/workload"
)

func main() {
	var (
		wl          = flag.String("workload", "multimedia", "workload: multimedia|pocketgl (ignored with -config)")
		config      = flag.String("config", "", "JSON workload file (see internal/workload JSON schema)")
		export      = flag.Bool("export", false, "print the selected built-in workload as JSON and exit")
		approach    = flag.String("approach", "hybrid", "scheduling approach: "+workload.Usage(workload.Approaches()))
		tiles       = flag.Int("tiles", 8, "number of DRHW tiles")
		isps        = flag.Int("isps", 1, "number of instruction-set processors")
		iterations  = flag.Int("iterations", 1000, "iterations")
		seed        = flag.Int64("seed", 1, "random seed")
		policy      = flag.String("policy", "lru", "replacement policy: "+workload.Usage(workload.Policies()))
		schedCost   = flag.Bool("schedcost", false, "model the run-time scheduler's own CPU cost")
		noInterTask = flag.Bool("no-intertask", false, "disable the inter-task optimization (hybrid only)")
		deadlineMS  = flag.Float64("deadline", 0, "per-iteration deadline in ms; >0 activates TCM energy-aware point selection")
		arrivals    = flag.String("arrivals", "bernoulli", "arrival process: "+workload.Usage(workload.ArrivalProcesses()))
		traceFile   = flag.String("trace", "", "JSON arrival log for -arrivals trace (array of iterations, each an array of task indices)")
		multitask   = flag.String("multitask", "serial", "fabric admission mode: "+workload.Usage(workload.MultitaskModes()))
		partitions  = flag.Int("partitions", 0, "fixed tile-partition count for -multitask partition (0: 2)")
		parallelism = flag.Int("parallelism", 0, "worker goroutines for sharded execution (0: sequential, -1: one per CPU)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON file of the run (Perfetto-loadable; sequential path only)")
	)
	flag.Parse()

	var mix []sim.TaskMix
	switch {
	case *config != "":
		data, err := os.ReadFile(*config)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drhwsim: %v\n", err)
			os.Exit(1)
		}
		tasks, weights, err := workload.ParseMix(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drhwsim: %v\n", err)
			os.Exit(1)
		}
		for i, task := range tasks {
			mix = append(mix, sim.TaskMix{Task: task, ScenarioWeights: weights[i]})
		}
	case *wl == "multimedia":
		for _, app := range workload.Multimedia() {
			mix = append(mix, sim.TaskMix{Task: app.Task, ScenarioWeights: app.ScenarioWeights})
		}
	case *wl == "pocketgl":
		mix = []sim.TaskMix{{Task: workload.PocketGL().Task}}
	default:
		fmt.Fprintf(os.Stderr, "drhwsim: unknown workload %q (use multimedia|pocketgl, or -config file.json)\n", *wl)
		os.Exit(2)
	}

	if *export {
		var tasks []*tcm.Task
		var weights [][]float64
		for _, m := range mix {
			tasks = append(tasks, m.Task)
			weights = append(weights, m.ScenarioWeights)
		}
		data, err := workload.ExportMix(*wl, tasks, weights)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drhwsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}

	ap, err := workload.ParseApproach(*approach)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drhwsim: %v\n", err)
		os.Exit(2)
	}

	pol, lookahead, err := workload.ParsePolicy(*policy, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drhwsim: %v\n", err)
		os.Exit(2)
	}

	mt, err := workload.ParseMultitask(*multitask, *partitions)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drhwsim: %v\n", err)
		os.Exit(2)
	}

	if *traceFile != "" {
		// -trace implies -arrivals trace, but an explicit conflicting
		// -arrivals means one of the two flags would be silently
		// ignored — refuse instead of guessing.
		arrivalsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "arrivals" {
				arrivalsSet = true
			}
		})
		if arrivalsSet && *arrivals != "trace" {
			fmt.Fprintf(os.Stderr, "drhwsim: -trace conflicts with -arrivals %s\n", *arrivals)
			os.Exit(2)
		}
		*arrivals = "trace"
	}
	var arr sim.Arrivals
	switch *arrivals {
	case "bernoulli":
		// nil keeps the paper's default process.
	case "onoff":
		arr = sim.DefaultOnOff
	case "trace":
		if *traceFile == "" {
			fmt.Fprintln(os.Stderr, "drhwsim: -arrivals trace needs -trace file.json")
			os.Exit(2)
		}
		data, err := os.ReadFile(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drhwsim: %v\n", err)
			os.Exit(1)
		}
		var entries [][]int
		if err := json.Unmarshal(data, &entries); err != nil {
			fmt.Fprintf(os.Stderr, "drhwsim: parsing %s: %v\n", *traceFile, err)
			os.Exit(1)
		}
		arr = sim.Trace{Iterations: entries}
	default:
		fmt.Fprintf(os.Stderr, "drhwsim: unknown arrival process %q (%s)\n", *arrivals, workload.Usage(workload.ArrivalProcesses()))
		os.Exit(2)
	}

	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.NewRecorder(0)
	}

	p := platform.Default(*tiles)
	p.ISPs = *isps
	eng := engine.New(engine.Config{})
	r, err := eng.Simulate(mix, p, sim.Options{
		Approach:         ap,
		Iterations:       *iterations,
		Seed:             *seed,
		Policy:           pol,
		Lookahead:        lookahead,
		Arrivals:         arr,
		Multitask:        mt,
		SchedulerCost:    *schedCost,
		DisableInterTask: *noInterTask,
		Deadline:         model.MS(*deadlineMS),
		Parallelism:      *parallelism,
		Trace:            rec,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "drhwsim: %v\n", err)
		os.Exit(1)
	}

	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drhwsim: %v\n", err)
			os.Exit(1)
		}
		if err := obs.ChromeTrace(f, rec.Events(), rec.Drops()); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "drhwsim: writing %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
	}

	fmt.Printf("workload            %s\n", *wl)
	fmt.Printf("platform            %s\n", p)
	fmt.Printf("approach            %s\n", r.Approach)
	fmt.Printf("iterations          %d (%d task instances, %d subtasks)\n", r.Iterations, r.Instances, r.Subtasks)
	if r.Execution != "sequential" {
		fmt.Printf("execution           %s (%d workers)\n", r.Execution, r.Workers)
	}
	fmt.Printf("ideal time          %v\n", r.IdealTotal)
	fmt.Printf("actual time         %v\n", r.ActualTotal)
	fmt.Printf("overhead            %.2f%%\n", r.OverheadPct)
	fmt.Printf("loads               %d (%d in initialization phases, %d cancelled, %d saved)\n",
		r.Loads, r.InitLoads, r.Cancelled, r.SavedLoads)
	fmt.Printf("reuse               %.1f%% of subtask instances\n", r.ReusePct)
	fmt.Printf("prefetch            %d hits (load hidden), %d demand misses\n", r.PrefetchHits, r.DemandMisses)
	fmt.Printf("iter makespan       p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
		r.IterMakespan.P50, r.IterMakespan.P95, r.IterMakespan.P99)
	fmt.Printf("iter overhead       p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
		r.IterOverhead.P50, r.IterOverhead.P95, r.IterOverhead.P99)
	if r.Partitions > 0 {
		fmt.Printf("multitask           %s (%d partitions), peak %d in flight\n",
			r.MultitaskMode, r.Partitions, r.MaxInFlight)
	} else {
		fmt.Printf("multitask           %s, peak %d in flight\n", r.MultitaskMode, r.MaxInFlight)
	}
	fmt.Printf("queue delay         p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
		r.QueueDelay.P50, r.QueueDelay.P95, r.QueueDelay.P99)
	fmt.Printf("response time       p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
		r.ResponseTime.P50, r.ResponseTime.P95, r.ResponseTime.P99)
	fmt.Printf("reconfig energy     %.1f mJ\n", r.LoadEnergy)
	if r.CriticalPct > 0 {
		fmt.Printf("critical subtasks   %.0f%% (average across analyses)\n", r.CriticalPct)
	}
	if r.CacheHits+r.CacheMisses > 0 {
		// A single run computes each analysis once; reuse only shows up
		// for repeated schedules (library users sharing one engine).
		fmt.Printf("design-time work    %d analyses computed, %d served from cache\n",
			r.CacheMisses, r.CacheHits)
	}
	if *schedCost {
		fmt.Printf("scheduler CPU cost  %v (modelled)\n", r.SchedCost)
	}
	if rec != nil {
		fmt.Printf("trace               %d events -> %s (%d dropped)\n", rec.Len(), *traceOut, rec.Drops())
	}
	if *deadlineMS > 0 {
		fmt.Printf("deadline            %vms, %d missed iteration(s), point energy %.0f mJ\n",
			*deadlineMS, r.DeadlineMisses, r.PointEnergy)
	}
}
