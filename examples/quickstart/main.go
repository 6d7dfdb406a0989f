// Quickstart: schedule a four-stage pipeline on a 3-tile DRHW platform,
// run the hybrid heuristic's design-time analysis, and execute a cold
// and a warm task arrival. This is the paper's Figure 3/5 example end
// to end, using only the public facade API.
package main

import (
	"fmt"
	"log"

	drhw "drhwsched"
)

func main() {
	// A pipeline of four 10 ms subtasks — the paper's running example.
	g := drhw.NewGraph("pipeline")
	stages := make([]drhw.SubtaskID, 4)
	for i := range stages {
		stages[i] = g.AddSubtask(fmt.Sprintf("stage-%d", i+1), 10*drhw.Millisecond)
		if i > 0 {
			g.AddEdge(stages[i-1], stages[i])
		}
	}

	// The paper's platform: identical tiles, 4 ms loads, one
	// reconfiguration controller.
	p := drhw.DefaultPlatform(3)
	fmt.Println("platform:", p)

	// Initial schedule, neglecting reconfigurations (TCM design-time
	// scheduler). Spread placement rotates the pipeline across tiles.
	s, err := drhw.ListSchedule(g, p, drhw.ScheduleOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ideal makespan:", s.IdealMakespan)

	// Baselines: on-demand loading vs the optimal prefetch.
	od, err := (drhw.OnDemand{}).Schedule(s, p, s.AllLoads(), drhw.PrefetchBounds{})
	if err != nil {
		log.Fatal(err)
	}
	opt, err := (drhw.BranchBound{}).Schedule(s, p, s.AllLoads(), drhw.PrefetchBounds{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("on-demand loading:  +%v overhead\n", od.Overhead)
	fmt.Printf("optimal prefetch:   +%v overhead\n", opt.Overhead)

	// The hybrid heuristic's design-time phase: find the critical
	// subtasks (whose loads cannot be hidden) and store the schedule.
	a, err := drhw.Analyze(s, p, drhw.AnalyzeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("critical subtasks:  %v (%.0f%% of the graph)\n", a.CS, 100*a.CriticalFraction())

	// Cold start: nothing resident, the initialization phase pays.
	cold, err := a.Execute(drhw.RunBounds{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold start:         +%v overhead (initialization)\n", cold.Overhead)

	// Warm start: the critical subtask is still on its tile from a
	// previous run — the run-time phase cancels its load and the task
	// runs with zero reconfiguration overhead.
	resident := make([]bool, g.Len())
	resident[a.CS[0]] = true
	warm, err := a.Execute(drhw.RunBounds{}, resident)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm start:         +%v overhead (critical subtask reused)\n", warm.Overhead)

	// Inter-task window: the previous task keeps the tiles busy until
	// 40 ms but its last load finished at 16 ms; the initialization
	// phase hides in the idle reconfiguration window.
	inter, err := a.Execute(drhw.RunBounds{
		ExecFloor: drhw.Time(40 * drhw.Millisecond),
		LoadFloor: drhw.Time(16 * drhw.Millisecond),
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with inter-task:    +%v overhead (init hidden in idle window)\n", inter.Overhead)
}
