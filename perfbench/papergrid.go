package main

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"drhwsched/internal/engine"
	"drhwsched/internal/fabric"
	"drhwsched/internal/model"
	"drhwsched/internal/obs"
	"drhwsched/internal/platform"
	"drhwsched/internal/sim"
	"drhwsched/internal/workload"
)

// gridLines are the five approaches of the paper's Figures 6 and 7, in
// the order the timed phase visits them.
var gridLines = []struct {
	line string
	ap   sim.Approach
}{
	{"no-prefetch", sim.NoPrefetch},
	{"design-time", sim.DesignTimePrefetch},
	{"run-time", sim.RunTime},
	{"run-time+inter-task", sim.RunTimeInterTask},
	{"hybrid", sim.Hybrid},
}

// gridCell is one simulation of the §7 grid.
type gridCell struct {
	fig  string
	x    int
	line string
	mix  []sim.TaskMix
	p    platform.Platform
	opt  sim.Options
}

// simKey is the part of a simulation result that must repeat exactly:
// every simulated statistic, none of the host-side counters.
type simKey struct {
	OverheadPct                   float64
	Ideal, Actual                 model.Dur
	Instances, Loads, Reuses      int
	PrefetchHits, DemandMisses    int
	Subtasks, PeakQueued          int
	IterMakespan, IterOverhead    sim.Tail
	QueueDelay, ResponseTime      sim.Tail
	MaxInFlight, InitLoads, Saved int
}

func keyOf(r *sim.Result) simKey {
	return simKey{
		r.OverheadPct, r.IdealTotal, r.ActualTotal, r.Instances, r.Loads, r.Reuses,
		r.PrefetchHits, r.DemandMisses, r.Subtasks, r.PeakQueued,
		r.IterMakespan, r.IterOverhead, r.QueueDelay, r.ResponseTime,
		r.MaxInFlight, r.InitLoads, r.SavedLoads,
	}
}

// refs holds the first result of each repeated simulation; every
// repeat must equal it exactly.
type refs struct {
	mu   sync.Mutex
	keys map[int]simKey
}

func (r *refs) check(id int, res *sim.Result) error {
	k := keyOf(res)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.keys == nil {
		r.keys = map[int]simKey{}
	}
	prev, ok := r.keys[id]
	if !ok {
		r.keys[id] = k
		return nil
	}
	if prev != k {
		return fmt.Errorf("simulation %d did not repeat: %+v then %+v", id, prev, k)
	}
	return nil
}

func (r *refs) get(id int) (simKey, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k, ok := r.keys[id]
	return k, ok
}

// paperGrid is the paper's §7 grid on one engine: Figure 6 (the Table
// 1 multimedia mix, 8–16 tiles) and Figure 7 (Pocket GL, 5–10 tiles)
// times the five approaches at 1000 iterations, serial admission,
// Bernoulli arrivals, the sequential warm-fabric kernel.
type paperGrid struct {
	cfg     config
	tr      *tracer
	eng     *engine.Engine
	cells   []gridCell
	byLine  map[string][]int
	refs    refs
	ordered bool
	recs    []*obs.Recorder // per client, traced runs only
}

func newPaperGrid(cfg config) bench { return &paperGrid{cfg: cfg} }

// gridCells builds the §7 grid at the given iteration count.
func gridCells(seed int64, iterations int) []gridCell {
	mix := multimediaMix()
	pgl := []sim.TaskMix{{Task: workload.PocketGL().Task}}
	var cells []gridCell
	for _, gl := range gridLines {
		for _, fig := range []struct {
			name     string
			mix      []sim.TaskMix
			from, to int
		}{{"fig6", mix, 8, 16}, {"fig7", pgl, 5, 10}} {
			for x := fig.from; x <= fig.to; x++ {
				cells = append(cells, gridCell{
					fig: fig.name, x: x, line: gl.line, mix: fig.mix, p: platform.Default(x),
					opt: sim.Options{Approach: gl.ap, Iterations: iterations, Seed: seed},
				})
			}
		}
	}
	return cells
}

func (g *paperGrid) setup(tr *tracer) error {
	g.tr = tr
	ecfg := engine.Config{Workers: g.cfg.nproc}
	if tr != nil {
		ecfg.Store = timedStore{engine.NewLRUStore(0), tr}
		for i := 0; i < g.cfg.nproc; i++ {
			g.recs = append(g.recs, obs.NewRecorder(recorderCapacity))
		}
	}
	g.eng = engine.New(ecfg)
	g.cells = gridCells(g.cfg.seed, 1000)
	g.byLine = map[string][]int{}
	for i, c := range g.cells {
		g.byLine[c.line] = append(g.byLine[c.line], i)
	}
	// The design-time phase: every analysis the grid needs. The three
	// reuse-aware approaches share one analysis per (scenario, tiles),
	// so one-iteration hybrid runs compute them all.
	var runs []engine.Run
	for _, i := range g.byLine["hybrid"] {
		c := g.cells[i]
		o := c.opt
		o.Iterations = 1
		runs = append(runs, engine.Run{X: c.x, Line: c.line, Mix: c.mix, Platform: c.p, Options: o})
	}
	if _, err := g.eng.Batch(runs); err != nil {
		return err
	}
	return nil
}

// loop runs whole rounds (one pass per approach, approach by approach)
// and marks each, so every measurement window holds the same mix.
func (g *paperGrid) loop(until time.Time, ops *opLog) {
	for time.Now().Before(until) {
		for _, gl := range gridLines {
			g.pass(gl.line, ops)
		}
		ops.mark()
		if !g.ordered {
			g.ordered = true
			if err := g.checkOrder(); err != nil {
				ops.fail("paper ordering", err)
			}
		}
	}
}

// pass runs one approach's cells of both figures on nproc clients.
func (g *paperGrid) pass(line string, ops *opLog) {
	idx := g.byLine[line]
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < g.cfg.nproc; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(idx) {
					return
				}
				g.runCell(idx[i], client, ops)
			}
		}(c)
	}
	wg.Wait()
}

func (g *paperGrid) runCell(i, client int, ops *opLog) {
	c := g.cells[i]
	var rec *obs.Recorder
	if g.recs != nil {
		rec = g.recs[client]
	}
	opt, done := g.tr.instrument(c.opt, rec)
	start := time.Now()
	res, err := g.eng.Simulate(c.mix, c.p, opt)
	d := time.Since(start)
	if err == nil {
		done(res)
		err = g.refs.check(i, res)
		ops.credit(c.line, res.Instances, d)
	}
	ops.record(c.line, d, err)
}

// checkOrder asserts the paper's ordering at every x of both figures:
// no-prefetch > design-time > run-time, and design-time > hybrid.
func (g *paperGrid) checkOrder() error {
	at := map[[2]interface{}]map[string]float64{}
	for i, c := range g.cells {
		k, ok := g.refs.get(i)
		if !ok {
			return fmt.Errorf("cell %s x=%d %s never ran", c.fig, c.x, c.line)
		}
		key := [2]interface{}{c.fig, c.x}
		if at[key] == nil {
			at[key] = map[string]float64{}
		}
		at[key][c.line] = k.OverheadPct
	}
	for key, v := range at {
		np, dt, rt, hy := v["no-prefetch"], v["design-time"], v["run-time"], v["hybrid"]
		// Pocket GL on its smallest fabric leaves nothing to reuse, so
		// the run-time heuristic ties the design-time optimum there;
		// Figure 6 keeps the strict order (as the paper-shape tests do).
		rtBeatsDT := dt > rt || (key[0] == "fig7" && dt == rt)
		if !(np > dt && rtBeatsDT && dt > hy) {
			return fmt.Errorf("%v x=%v: no-prefetch %.2f, design-time %.2f, run-time %.2f, hybrid %.2f",
				key[0], key[1], np, dt, rt, hy)
		}
	}
	return nil
}

func (g *paperGrid) simMetrics() map[string]float64 {
	lineMean := func(line string) float64 {
		var v []float64
		for _, i := range g.byLine[line] {
			if k, ok := g.refs.get(i); ok {
				v = append(v, k.OverheadPct)
			} else {
				return math.NaN()
			}
		}
		return mean(v)
	}
	var p99 []float64
	for i := range g.cells {
		k, ok := g.refs.get(i)
		if !ok {
			return map[string]float64{"sim_response_p99_ms": math.NaN()}
		}
		p99 = append(p99, k.ResponseTime.P99)
	}
	return map[string]float64{
		"sim_overhead_pct.hybrid":   lineMean("hybrid"),
		"sim_overhead_pct.run-time": lineMean("run-time"),
		"sim_response_p99_ms":       mean(p99),
	}
}

func (g *paperGrid) report(w io.Writer) {
	fmt.Fprintf(w, "simulated overhead %% per line (Figure 6 | Figure 7, x ascending):\n")
	for _, gl := range gridLines {
		line := fmt.Sprintf("  %-20s", gl.line)
		for _, i := range g.byLine[gl.line] {
			if k, ok := g.refs.get(i); ok {
				line += fmt.Sprintf(" %6.2f", k.OverheadPct)
			}
		}
		fmt.Fprintln(w, line)
	}
	refs, err := paperReferences()
	if err != nil {
		fmt.Fprintf(w, "paper references: %v\n", err)
		return
	}
	worst := 0.0
	fmt.Fprintf(w, "paper_error_pp: max |model - paper| over every paper reference held in code (the model is otherwise unvalidated):\n")
	for _, r := range refs {
		fmt.Fprintf(w, "  %-44s paper %6.1f  model %6.2f  error %5.2f pp\n", r.name, r.paper, r.model, math.Abs(r.model-r.paper))
		worst = math.Max(worst, math.Abs(r.model-r.paper))
	}
	fmt.Fprintf(w, "  paper_error_pp = %.2f\n", worst)
}

// paperRef is one published figure next to the model's value.
type paperRef struct {
	name         string
	paper, model float64
}

// paperReferences evaluates every paper reference the repository holds
// in code: Table 1's on-demand and optimal-prefetch overheads, and
// Pocket GL's no-prefetch and design-time overheads at 5 tiles with
// its critical-subtask share.
func paperReferences() ([]paperRef, error) {
	var out []paperRef
	for _, app := range workload.Multimedia() {
		m, err := workload.MeasureApp(app, platform.Default(4))
		if err != nil {
			return nil, err
		}
		out = append(out,
			paperRef{app.Paper.Name + " on-demand overhead %", app.Paper.OverheadPct, m.OnDemandPct},
			paperRef{app.Paper.Name + " prefetch overhead %", app.Paper.PrefetchPct, m.PrefetchPct})
	}
	pgl := workload.PocketGL()
	m, err := workload.MeasurePocketGL(pgl, platform.Default(5))
	if err != nil {
		return nil, err
	}
	out = append(out,
		paperRef{"Pocket GL no-prefetch overhead % (5 tiles)", pgl.PaperNoPrefetchPct, m.OnDemandPct},
		paperRef{"Pocket GL design-time overhead % (5 tiles)", pgl.PaperDesignTimePct, m.DesignTimePct},
		paperRef{"Pocket GL critical subtasks %", pgl.PaperCriticalPct, m.CriticalPct})
	return out, nil
}

func (g *paperGrid) replay(tr *tracer) error {
	in := replayInputs{seed: g.cfg.seed, serveReplay: true}
	mm, pgl := multimediaMix(), []sim.TaskMix{{Task: workload.PocketGL().Task}}
	for x := 8; x <= 16; x++ {
		in.addMix(mm, platform.Default(x), fabric.Serial{})
	}
	for x := 5; x <= 10; x++ {
		in.addMix(pgl, platform.Default(x), fabric.Serial{})
	}
	for _, ap := range []string{"hybrid", "run-time"} {
		in.simDocs = append(in.simDocs,
			runDoc("multimedia", mm, 8, simBlock(ap, serveIterations, g.cfg.seed)),
			runDoc("pocketgl", pgl, 5, simBlock(ap, serveIterations, g.cfg.seed)))
	}
	in.analyzeDocs = [][]byte{runDoc("multimedia", mm, 8, nil), runDoc("pocketgl", pgl, 5, nil)}
	in.sweeps = [][]byte{sweepBody(runDoc("multimedia", mm, 8, simBlock("hybrid", sweepIterations, g.cfg.seed)),
		[]int{8, 10, 12, 14, 16}, []string{"hybrid", "run-time"})}
	return replayAll(tr, in, g.cfg)
}

func (g *paperGrid) close() {}
