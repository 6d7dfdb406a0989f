package workload

import (
	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/prefetch"
	"drhwsched/internal/schedule"
)

// AppMeasurement holds the Table 1 quantities measured on the model:
// ideal execution time, overhead with on-demand loading ("Overhead") and
// overhead with an optimal prefetch ("Prefetch"), both with nothing
// reusable — exactly the table's conditions. Multi-scenario tasks are
// averaged uniformly, as the paper does for the MPEG encoder.
type AppMeasurement struct {
	IdealMS     float64
	OnDemandPct float64
	PrefetchPct float64
}

// MeasureApp evaluates one application under Table 1's conditions.
func MeasureApp(app App, p platform.Platform) (AppMeasurement, error) {
	var m AppMeasurement
	n := len(app.Task.Scenarios)
	for _, g := range app.Task.Scenarios {
		s, err := assign.List(g, p, assign.Options{Placement: assign.Spread})
		if err != nil {
			return m, err
		}
		loads := s.AllLoads()
		od, err := (prefetch.OnDemand{}).Schedule(s, p, loads, schedule.Instance{})
		if err != nil {
			return m, err
		}
		opt, err := (prefetch.BranchBound{}).Schedule(s, p, loads, schedule.Instance{})
		if err != nil {
			return m, err
		}
		m.IdealMS += od.Ideal.Milliseconds() / float64(n)
		m.OnDemandPct += model.Pct(od.Overhead, od.Ideal) / float64(n)
		m.PrefetchPct += model.Pct(opt.Overhead, opt.Ideal) / float64(n)
	}
	return m, nil
}

// PGLMeasurement holds the §7 quantities for the 3D renderer, averaged
// uniformly over its twenty inter-task scenarios.
type PGLMeasurement struct {
	// Subtask execution-time statistics across scenarios.
	AvgSubtaskMS float64
	MinSubtaskMS float64
	MaxSubtaskMS float64
	// Overheads with nothing reusable.
	OnDemandPct   float64
	DesignTimePct float64
	// CriticalPct is the average share of critical subtasks.
	CriticalPct float64
}

// MeasurePocketGL evaluates the 3D renderer's published characteristics.
func MeasurePocketGL(app *PocketGLApp, p platform.Platform) (PGLMeasurement, error) {
	var m PGLMeasurement
	m.MinSubtaskMS = 1e18
	n := float64(len(app.Task.Scenarios))
	var subtasks float64
	for _, g := range app.Task.Scenarios {
		for _, st := range g.Subtasks() {
			ms := st.Exec.Milliseconds()
			subtasks++
			m.AvgSubtaskMS += ms
			if ms < m.MinSubtaskMS {
				m.MinSubtaskMS = ms
			}
			if ms > m.MaxSubtaskMS {
				m.MaxSubtaskMS = ms
			}
		}
		s, err := assign.List(g, p, assign.Options{Placement: assign.Spread})
		if err != nil {
			return m, err
		}
		loads := s.AllLoads()
		od, err := (prefetch.OnDemand{}).Schedule(s, p, loads, schedule.Instance{})
		if err != nil {
			return m, err
		}
		opt, err := (prefetch.BranchBound{}).Schedule(s, p, loads, schedule.Instance{})
		if err != nil {
			return m, err
		}
		a, err := core.Analyze(s, p, core.Options{})
		if err != nil {
			return m, err
		}
		m.OnDemandPct += model.Pct(od.Overhead, od.Ideal) / n
		m.DesignTimePct += model.Pct(opt.Overhead, opt.Ideal) / n
		m.CriticalPct += 100 * a.CriticalFraction() / n
	}
	m.AvgSubtaskMS /= subtasks
	return m, nil
}
