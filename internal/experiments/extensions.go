package experiments

import (
	"fmt"

	"drhwsched/internal/engine"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/sim"
	"drhwsched/internal/stats"
	"drhwsched/internal/workload"
)

// LatencySweep (A5) addresses the paper's §4 motivation directly:
// coarse-grain reconfigurable arrays reconfigure much faster than
// fine-grain FPGAs, which shrinks the overhead but also invites finer
// subtasks and therefore more reconfigurations — the reason the hybrid
// split must stay cheap at run time. The sweep varies the per-tile
// reconfiguration latency on the Pocket GL workload at a fixed tile
// count and reports the overhead of the three heuristics plus the
// no-prefetch baseline.
func LatencySweep(opt FigureOptions) (*stats.Series, error) {
	pgl := workload.PocketGL()
	mix := []sim.TaskMix{{Task: pgl.Task}}
	lines := []string{"no-prefetch", "run-time", "run-time+inter-task", "hybrid"}
	var runs []engine.Run
	for _, lat := range []model.Dur{
		model.MS(0.25), model.MS(0.5), model.MS(1), model.MS(2), model.MS(4),
	} {
		p := platform.Default(5)
		p.ReconfigLatency = lat
		var err error
		if runs, err = lineRuns(runs, int(lat), lines, mix, p, opt); err != nil {
			return nil, err
		}
	}
	s, _, err := opt.engine().Sweep("latency_us", runs)
	if err != nil {
		return nil, fmt.Errorf("experiments: latency sweep: %w", err)
	}
	return s, nil
}

// PortSweep (A6) varies the number of reconfiguration controllers. The
// paper's FPGAs have exactly one; multi-context devices effectively
// parallelize loading, which collapses the port-serialization term of
// the overhead. Run on the multimedia mix at 8 tiles.
func PortSweep(opt FigureOptions) (*stats.Series, error) {
	mix := mixOf(workload.Multimedia())
	lines := []string{"no-prefetch", "design-time", "run-time", "hybrid"}
	var runs []engine.Run
	for _, ports := range []int{1, 2, 3, 4} {
		p := platform.Default(8)
		p.Ports = ports
		var err error
		if runs, err = lineRuns(runs, ports, lines, mix, p, opt); err != nil {
			return nil, err
		}
	}
	s, _, err := opt.engine().Sweep("ports", runs)
	if err != nil {
		return nil, fmt.Errorf("experiments: port sweep: %w", err)
	}
	return s, nil
}

// SchedulerCostImpact (A7) quantifies the hybrid split's raison d'être:
// with the modelled run-time scheduler CPU cost added to the makespan,
// how much of the run-time heuristic's advantage evaporates as graphs
// grow? Reported as the modelled scheduling time per instance for both
// flows on the Pocket GL workload.
func SchedulerCostImpact(opt FigureOptions) (*stats.Table, error) {
	pgl := workload.PocketGL()
	mix := []sim.TaskMix{{Task: pgl.Task}}
	p := platform.Default(8)
	tab := stats.NewTable("Approach", "Overhead %", "Modelled scheduler cost / instance")
	var runs []engine.Run
	for _, ap := range []sim.Approach{sim.RunTime, sim.RunTimeInterTask, sim.Hybrid} {
		runs = append(runs, engine.Run{
			X: p.Tiles, Line: ap.String(), Mix: mix, Platform: p,
			Options: sim.Options{
				Approach:      ap,
				Iterations:    opt.iterations(),
				Seed:          opt.Seed,
				SchedulerCost: true,
			},
		})
	}
	results, err := opt.engine().Batch(runs)
	if err != nil {
		return nil, err
	}
	for _, rr := range results {
		r := rr.Result
		per := model.Dur(0)
		if r.Instances > 0 {
			per = r.SchedCost / model.Dur(r.Instances)
		}
		tab.AddRow(rr.Run.Line, fmt.Sprintf("%.2f", r.OverheadPct), per.String())
	}
	return tab, nil
}
