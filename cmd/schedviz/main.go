// Command schedviz renders the schedule of one task instance as an
// ASCII Gantt chart — the same view as the paper's Figures 3 and 5 —
// under a chosen prefetch policy.
//
// Usage:
//
//	schedviz [-workload multimedia|pocketgl] [-app N] [-scenario N]
//	         [-tiles N] [-mode ondemand|list|optimal|hybrid] [-events]
//	         [-format ascii|chrome]
//
// The hybrid mode shows the cold-start execution on one timeline: the
// initialization loads of the critical subtasks lead the port row, and
// the stored design-time schedule's loads and executions follow.
//
// -format chrome replaces the ASCII chart with Chrome trace-event JSON
// on stdout — pipe it to a file and load it in Perfetto or
// chrome://tracing for an interactive view of the same schedule.
package main

import (
	"flag"
	"fmt"
	"os"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/gantt"
	"drhwsched/internal/graph"
	"drhwsched/internal/obs"
	"drhwsched/internal/platform"
	"drhwsched/internal/prefetch"
	"drhwsched/internal/schedule"
	"drhwsched/internal/workload"
)

// chromeOut converts one computed timeline into obs events and writes
// Chrome trace-event JSON to stdout: one load/exec event per subtask,
// with the load's prefetch-hit vs demand-miss attribution read off the
// timeline exactly as the simulator would classify it.
func chromeOut(in schedule.Input, tl *schedule.Timeline) {
	var events []obs.Event
	for proc, row := range in.TileOrder {
		for _, id := range row {
			sub := in.G.Subtask(id)
			ev := obs.Event{
				Kind: obs.KindExec, Task: in.G.Name, Subtask: sub.Name,
				Config: string(sub.Config), Tile: proc, Port: -1, ISP: -1,
				Start: tl.ExecStart[id], End: tl.ExecEnd[id],
			}
			if proc >= in.P.Tiles {
				ev.Kind = obs.KindISPBusy
				ev.Tile, ev.ISP = -1, proc-in.P.Tiles
			}
			events = append(events, ev)
			if tl.LoadStart[id] != schedule.NoEvent {
				events = append(events, obs.Event{
					Kind: obs.KindLoad, Task: in.G.Name, Subtask: sub.Name,
					Config: string(sub.Config), Tile: proc, Port: tl.LoadPort[id], ISP: -1,
					Start: tl.LoadStart[id], End: tl.LoadEnd[id],
					Prefetch: tl.ExecStart[id] > tl.LoadEnd[id],
				})
			}
		}
	}
	if err := obs.ChromeTrace(os.Stdout, events, 0); err != nil {
		fail("%v", err)
	}
}

func main() {
	var (
		wl       = flag.String("workload", "multimedia", "workload: multimedia|pocketgl")
		appIdx   = flag.Int("app", 0, "application index within the workload")
		scenario = flag.Int("scenario", 0, "scenario index")
		tiles    = flag.Int("tiles", 4, "number of DRHW tiles")
		mode     = flag.String("mode", "list", "ondemand|list|optimal|hybrid")
		events   = flag.Bool("events", false, "also print the event log")
		width    = flag.Int("width", 72, "chart width in characters")
		format   = flag.String("format", "ascii", "output format: ascii|chrome (chrome: trace-event JSON for Perfetto)")
	)
	flag.Parse()

	var g *graph.Graph
	switch *wl {
	case "multimedia":
		apps := workload.Multimedia()
		if *appIdx < 0 || *appIdx >= len(apps) {
			fail("app index out of range (0..%d)", len(apps)-1)
		}
		task := apps[*appIdx].Task
		if *scenario < 0 || *scenario >= len(task.Scenarios) {
			fail("scenario out of range (0..%d)", len(task.Scenarios)-1)
		}
		g = task.Scenarios[*scenario]
	case "pocketgl":
		task := workload.PocketGL().Task
		if *scenario < 0 || *scenario >= len(task.Scenarios) {
			fail("scenario out of range (0..%d)", len(task.Scenarios)-1)
		}
		g = task.Scenarios[*scenario]
	default:
		fail("unknown workload %q", *wl)
	}

	if *format != "ascii" && *format != "chrome" {
		fail("unknown format %q (use ascii|chrome)", *format)
	}

	p := platform.Default(*tiles)
	s, err := assign.List(g, p, assign.Options{})
	if err != nil {
		fail("%v", err)
	}

	if *format != "chrome" {
		fmt.Printf("%s on %s (%s mode)\n", g.Name, p, *mode)
		fmt.Printf("subtasks: %d, ideal makespan %v\n\n", g.Len(), s.IdealMakespan)
	}

	if *mode == "hybrid" {
		a, err := core.Analyze(s, p, core.Options{})
		if err != nil {
			fail("%v", err)
		}
		r, err := a.Execute(schedule.Instance{}, nil)
		if err != nil {
			fail("%v", err)
		}
		in := s.EngineInput(p, r.Plan.BodyLoads)
		if *format == "chrome" {
			chromeOut(in, r.Timeline)
			return
		}
		fmt.Printf("critical subtasks: %v (%.0f%%)\n", a.CS, 100*a.CriticalFraction())
		fmt.Printf("cold start: init %d loads until %v, overhead %v (%.1f%%)\n\n",
			len(r.Plan.InitLoads), r.InitEnd, r.Overhead, 100*float64(r.Overhead)/float64(r.Ideal))
		fmt.Print(gantt.Gantt(in, r.Timeline, gantt.Options{Width: *width}))
		if *events {
			fmt.Println()
			fmt.Print(gantt.Events(in, r.Timeline))
		}
		return
	}

	var sched prefetch.Scheduler
	switch *mode {
	case "ondemand":
		sched = prefetch.OnDemand{}
	case "list":
		sched = prefetch.List{}
	case "optimal":
		sched = prefetch.BranchBound{}
	default:
		fail("unknown mode %q", *mode)
	}
	r, err := prefetch.Schedule(sched, s, p, s.AllLoads(), schedule.Instance{})
	if err != nil {
		fail("%v", err)
	}
	in := s.EngineInput(p, r.PortOrder)
	if err := schedule.Verify(in, schedule.Instance{OnDemand: r.OnDemand}, r.Timeline); err != nil {
		fail("internal: %v", err)
	}
	if *format == "chrome" {
		chromeOut(in, r.Timeline)
		return
	}
	fmt.Printf("makespan %v, overhead %v (%.1f%%)\n\n",
		r.Makespan, r.Overhead, 100*float64(r.Overhead)/float64(r.Ideal))
	fmt.Print(gantt.Gantt(in, r.Timeline, gantt.Options{Width: *width}))
	if *events {
		fmt.Println()
		fmt.Print(gantt.Events(in, r.Timeline))
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "schedviz: "+format+"\n", args...)
	os.Exit(1)
}
