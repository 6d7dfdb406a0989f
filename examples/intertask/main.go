// Intertask: isolate the paper's §6 inter-task optimization. Two
// pipelines alternate on the platform; the reconfiguration circuitry
// goes idle near the end of each task, and the hybrid run-time phase
// uses that window to run the next task's initialization phase — the
// situation of the paper's Figure 5(b.3). The example drives the full
// run-time module stack (reuse, replacement, prefetch) by hand and
// prints the timeline of a task arrival with and without the
// optimization.
package main

import (
	"fmt"
	"log"

	drhw "drhwsched"
	"drhwsched/internal/gantt"
)

func pipeline(name string, stages int) *drhw.Graph {
	g := drhw.NewGraph(name)
	var prev drhw.SubtaskID = -1
	for i := 0; i < stages; i++ {
		id := g.AddSubtask(fmt.Sprintf("%s-%d", name, i), 10*drhw.Millisecond)
		if prev >= 0 {
			g.AddEdge(prev, id)
		}
		prev = id
	}
	return g
}

func main() {
	p := drhw.DefaultPlatform(3)
	a := pipeline("task-a", 4)
	b := pipeline("task-b", 4)

	sa, err := drhw.ListSchedule(a, p, drhw.ScheduleOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sb, err := drhw.ListSchedule(b, p, drhw.ScheduleOptions{})
	if err != nil {
		log.Fatal(err)
	}
	aa, err := drhw.Analyze(sa, p, drhw.AnalyzeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ab, err := drhw.Analyze(sb, p, drhw.AnalyzeOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Task A runs cold from time zero on the identity mapping.
	state := drhw.NewTileState(p.Tiles)
	runA, err := aa.Execute(drhw.RunBounds{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task A: makespan %v, overhead %v, port idle from %v\n",
		runA.Makespan, runA.Overhead, runA.Timeline.PortFreeAfter[0])

	// Record what task A left on the tiles and when each tile drained.
	physFree := make([]drhw.Time, p.Tiles)
	for v := 0; v < sa.Tiles; v++ {
		for _, id := range sa.TileOrder[v] {
			state.Set(v, sa.G.Subtask(id).Config, runA.Timeline.ExecEnd[id])
			if e := runA.Timeline.ExecEnd[id]; e > physFree[v] {
				physFree[v] = e
			}
		}
	}

	// The replacement module places task B's virtual tiles: B shares
	// no configurations with A, so the interesting decision is which
	// tile the initialization load goes to — it must drain early for
	// the inter-task window to help.
	mapping, err := drhw.MapTiles(sb, state, drhw.MapTileOptions{Critical: ab.IsCritical})
	if err != nil {
		log.Fatal(err)
	}
	resident := drhw.Resident(sb, state, mapping)
	tileFree := make([]drhw.Time, sb.Tiles)
	for v := 0; v < sb.Tiles; v++ {
		tileFree[v] = physFree[mapping.PhysOf[v]]
	}
	reusable := 0
	for _, r := range resident {
		if r {
			reusable++
		}
	}
	fmt.Printf("task B placement: virtual->physical %v, %d reusable subtasks\n",
		mapping.PhysOf, reusable)

	// Without the inter-task optimization the initialization waits for
	// the task start...
	noInter, err := ab.Execute(drhw.RunBounds{
		ExecFloor: runA.Timeline.End,
		LoadFloor: runA.Timeline.End, // port considered only at task start
		TileFree:  tileFree,
	}, resident)
	if err != nil {
		log.Fatal(err)
	}
	// ...with it, the initialization begins the moment the circuitry
	// idles, while task A still executes: task B gets the ports as task
	// A left them, the way the simulator hands them on.
	withInter, err := ab.Execute(drhw.RunBounds{
		ExecFloor: runA.Timeline.End,
		TileFree:  tileFree,
		PortFree:  runA.Timeline.PortFreeAfter,
	}, resident)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task B without inter-task: overhead %v\n", noInter.Overhead)
	fmt.Printf("task B with inter-task:    overhead %v (init %d load(s) from %v)\n\n",
		withInter.Overhead, len(withInter.Plan.InitLoads), firstInit(withInter))

	// Render task B with the inter-task window applied: its
	// initialization load, then the stored body.
	in := sb.EngineInput(p, withInter.Plan.BodyLoads)
	fmt.Println("task B (inter-task case):")
	fmt.Print(gantt.Gantt(in, withInter.Timeline, gantt.Options{Width: 64}))
}

func firstInit(r *drhw.RunResult) drhw.Time {
	if len(r.Plan.InitLoads) == 0 {
		return r.InitEnd
	}
	return r.Timeline.LoadStart[r.Plan.InitLoads[0]]
}
