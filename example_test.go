package drhwsched_test

import (
	"fmt"

	drhw "drhwsched"
)

// videoPipeline builds the running example used by the godoc examples: a
// four-stage decode pipeline followed by a fork/join filter pair.
func videoPipeline(name string) *drhw.Graph {
	g := drhw.NewGraph(name)
	var stages []drhw.SubtaskID
	for i, ms := range []float64{4, 6, 8, 10} {
		stages = append(stages, g.AddSubtask(fmt.Sprintf("stage-%d", i), drhw.MS(ms)))
	}
	g.Chain(stages...)
	edge := g.AddSubtask("edge-filter", drhw.MS(5))
	blur := g.AddSubtask("blur-filter", drhw.MS(7))
	out := g.AddSubtask("compose", drhw.MS(3))
	g.AddEdge(stages[3], edge)
	g.AddEdge(stages[3], blur)
	g.AddEdge(edge, out)
	g.AddEdge(blur, out)
	return g
}

// ExampleAnalyze runs the paper's design-time phase on an initial
// schedule: it derives the minimal Critical Subtask set (the loads the
// prefetcher cannot hide) and stores the load order for the O(N)
// run-time phase, then evaluates a cold-start arrival.
func ExampleAnalyze() {
	g := videoPipeline("video")
	p := drhw.DefaultPlatform(3) // 3 tiles, 4 ms loads, 1 port

	s, err := drhw.ListSchedule(g, p, drhw.ScheduleOptions{})
	if err != nil {
		panic(err)
	}
	a, err := drhw.Analyze(s, p, drhw.AnalyzeOptions{})
	if err != nil {
		panic(err)
	}
	run, err := a.Execute(drhw.RunBounds{}, nil)
	if err != nil {
		panic(err)
	}

	fmt.Printf("subtasks: %d\n", g.Len())
	fmt.Printf("critical subtasks: %d (%.0f%%)\n", len(a.CS), 100*a.CriticalFraction())
	fmt.Printf("ideal makespan: %v\n", run.Ideal)
	fmt.Printf("cold-start overhead: %v\n", run.Overhead)
	// Output:
	// subtasks: 7
	// critical subtasks: 1 (14%)
	// ideal makespan: 38ms
	// cold-start overhead: 4ms
}

// ExampleSimulate reproduces the shape of the paper's §7 experiments: a
// dynamic mix of tasks arriving over many iterations with tile state
// (and therefore configuration reuse) carried between instances.
func ExampleSimulate() {
	mix := []drhw.TaskMix{
		{Task: drhw.NewTask("video", videoPipeline("video"))},
		{Task: drhw.NewTask("audio", videoPipeline("audio"))},
	}
	p := drhw.DefaultPlatform(6)

	r, err := drhw.Simulate(mix, p, drhw.SimOptions{
		Approach:   drhw.Hybrid,
		Iterations: 50,
		Seed:       2005,
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("instances: %d\n", r.Instances)
	fmt.Printf("overhead: %.2f%%\n", r.OverheadPct)
	fmt.Printf("reuse: %.1f%% of subtask instances\n", r.ReusePct)
	// Output:
	// instances: 80
	// overhead: 0.13%
	// reuse: 17.9% of subtask instances
}

// ExampleNewEngine batches simulations on the concurrent experiment
// engine: the grid cells fan out over a worker pool and the expensive
// design-time analyses are fingerprinted and cached, so runs that
// revisit a (schedule, platform) pair never repeat the analysis.
func ExampleNewEngine() {
	mix := []drhw.TaskMix{{Task: drhw.NewTask("video", videoPipeline("video"))}}
	opts := drhw.SimOptions{Approach: drhw.Hybrid, Iterations: 20, Seed: 1}

	eng := drhw.NewEngine(drhw.EngineConfig{})
	var grid []drhw.SweepRun
	for _, tiles := range []int{3, 4} {
		for _, seed := range []int64{1, 2, 3} { // 3 repetitions per tile count
			o := opts
			o.Seed = seed
			grid = append(grid, drhw.SweepRun{
				X: tiles, Line: "hybrid", Mix: mix,
				Platform: drhw.DefaultPlatform(tiles), Options: o,
			})
		}
	}
	if _, _, err := eng.Sweep("tiles", grid); err != nil {
		panic(err)
	}

	st := eng.CacheStats()
	fmt.Printf("simulations: %d\n", len(grid))
	fmt.Printf("analyses computed: %d\n", st.Misses)
	fmt.Printf("analyses reused: %d\n", st.Hits)
	// Output:
	// simulations: 6
	// analyses computed: 2
	// analyses reused: 4
}
