package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"drhwsched/internal/engine"
	"drhwsched/internal/fabric"
	"drhwsched/internal/platform"
	"drhwsched/internal/sim"
	"drhwsched/internal/workload"
)

const (
	// mtIterations is one multitask run: eight 32-iteration chunks, so
	// the chunk-sharded kernel has work for every worker.
	mtIterations = 256
	// mtSeeds is how many seeds each cell cycles through; the simulated
	// metrics average the first pass over all of them.
	mtSeeds = 64
	// mtTiles and mtPartitions are the fabric and its partition count.
	mtTiles      = 16
	mtPartitions = 4
)

// mtCell is one admission mode × approach of the multitask grid.
type mtCell struct {
	mode     string
	approach string
	opt      sim.Options
}

// multitask is the Table 1 multimedia mix on a 16-tile fabric under
// online hardware multitasking: partition (4 blocks) and greedy
// admission, bursty on-off arrivals, hybrid and run-time approaches,
// the chunk-sharded kernel with nproc workers. One client runs one
// simulation at a time; each uses every worker.
type multitask struct {
	cfg   config
	tr    *tracer
	eng   *engine.Engine
	mix   []sim.TaskMix
	p     platform.Platform
	cells []mtCell
	seeds []int64
	refs  refs
	next  int
}

func newMultitask(cfg config) bench { return &multitask{cfg: cfg} }

func multimediaMix() []sim.TaskMix {
	mm := workload.Multimedia()
	mix := make([]sim.TaskMix, len(mm))
	for i, a := range mm {
		mix[i] = sim.TaskMix{Task: a.Task, ScenarioWeights: a.ScenarioWeights}
	}
	return mix
}

func multitaskCells(nproc int) []mtCell {
	var cells []mtCell
	for _, mode := range []string{"partition", "greedy"} {
		mt := sim.Multitask{Mode: mode}
		if mode == "partition" {
			mt.Partitions = mtPartitions
		}
		for _, ap := range []struct {
			name string
			ap   sim.Approach
		}{{"hybrid", sim.Hybrid}, {"run-time", sim.RunTime}} {
			cells = append(cells, mtCell{mode, ap.name, sim.Options{
				Approach: ap.ap, Iterations: mtIterations, Arrivals: sim.DefaultOnOff,
				Multitask: mt, Parallelism: nproc,
			}})
		}
	}
	return cells
}

func (m *multitask) setup(tr *tracer) error {
	m.tr = tr
	ecfg := engine.Config{Workers: m.cfg.nproc}
	if tr != nil {
		ecfg.Store = timedStore{engine.NewLRUStore(0), tr}
	}
	m.eng = engine.New(ecfg)
	m.mix = multimediaMix()
	m.p = platform.Default(mtTiles)
	m.cells = multitaskCells(m.cfg.nproc)
	rng := rand.New(rand.NewSource(m.cfg.seed))
	m.seeds = make([]int64, mtSeeds)
	for i := range m.seeds {
		m.seeds[i] = rng.Int63()
	}
	// The design-time phase: the hybrid and run-time cells share one
	// analysis per scenario on the 16-tile fabric.
	o := m.cells[0].opt
	o.Iterations = 1
	_, err := m.eng.Simulate(m.mix, m.p, o)
	return err
}

// loop runs operations of one grid pass each: the four cells in turn
// under the next seed. A pass is the unit a user of the grid waits
// for, and it keeps every operation the same mix.
func (m *multitask) loop(until time.Time, ops *opLog) {
	for time.Now().Before(until) {
		si := m.next % mtSeeds
		m.next++
		var errs []error
		start := time.Now()
		for ci, c := range m.cells {
			opt := c.opt
			opt.Seed = m.seeds[si]
			opt, done := m.tr.instrument(opt, nil)
			t0 := time.Now()
			res, err := m.eng.Simulate(m.mix, m.p, opt)
			d := time.Since(t0)
			if err == nil {
				done(res)
				err = m.refs.check(ci*mtSeeds+si, res)
				ops.credit(c.approach, res.Instances, d)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("%s/%s: %w", c.mode, c.approach, err))
			}
		}
		ops.record("grid-pass", time.Since(start), errors.Join(errs...))
	}
}

func (m *multitask) simMetrics() map[string]float64 {
	over := map[string][]float64{}
	var p99 []float64
	for ci, c := range m.cells {
		for si := 0; si < mtSeeds; si++ {
			k, ok := m.refs.get(ci*mtSeeds + si)
			if !ok {
				return map[string]float64{"sim_response_p99_ms": math.NaN()}
			}
			over[c.approach] = append(over[c.approach], k.OverheadPct)
			p99 = append(p99, k.ResponseTime.P99)
		}
	}
	return map[string]float64{
		"sim_overhead_pct.hybrid":   mean(over["hybrid"]),
		"sim_overhead_pct.run-time": mean(over["run-time"]),
		"sim_response_p99_ms":       mean(p99),
	}
}

func (m *multitask) report(w io.Writer) {
	fmt.Fprintf(w, "simulated means over %d seeds (%d iterations each):\n", mtSeeds, mtIterations)
	for ci, c := range m.cells {
		var over, p99, queued []float64
		for si := 0; si < mtSeeds; si++ {
			if k, ok := m.refs.get(ci*mtSeeds + si); ok {
				over = append(over, k.OverheadPct)
				p99 = append(p99, k.ResponseTime.P99)
				queued = append(queued, float64(k.PeakQueued))
			}
		}
		fmt.Fprintf(w, "  %-9s %-8s overhead %6.3f%%  response p99 %8.3f ms  peak queued %.1f\n",
			c.mode, c.approach, mean(over), mean(p99), mean(queued))
	}
}

func (m *multitask) replay(tr *tracer) error {
	in := replayInputs{seed: m.cfg.seed, simReplay: true, serveReplay: true}
	in.addMix(m.mix, m.p, fabric.Partition{Blocks: mtPartitions}, fabric.Greedy{})
	for _, c := range m.cells {
		sb := simBlock(c.approach, mtIterations, m.seeds[0])
		sb.Parallelism = m.cfg.nproc
		sb.Arrivals = &workload.ArrivalsDoc{Process: "onoff"}
		sb.Multitask = &workload.MultitaskDoc{Mode: c.mode}
		if c.mode == "partition" {
			sb.Multitask.Partitions = mtPartitions
		}
		in.simDocs = append(in.simDocs, runDoc("multimedia", m.mix, mtTiles, sb))
	}
	in.analyzeDocs = [][]byte{runDoc("multimedia", m.mix, mtTiles, nil)}
	in.sweeps = [][]byte{sweepBody(in.simDocs[0], []int{mtTiles}, []string{"hybrid", "run-time"})}
	return replayAll(tr, in, m.cfg)
}

func (m *multitask) close() {}
