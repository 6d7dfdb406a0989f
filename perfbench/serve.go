package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"drhwsched/internal/engine"
	"drhwsched/internal/fabric"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/server"
	"drhwsched/internal/sim"
	"drhwsched/internal/tcm"
	"drhwsched/internal/workload"
)

const (
	// serveIterations keeps the simulate documents' loops short: the
	// serving tier, not the kernel, is under test here.
	serveIterations = 100
	sweepIterations = 50
	// The request mix follows the repository's own callers of a
	// two-replica cluster. drhwload's default corpus sends each
	// document once as an analyze request and as three simulate
	// variants (-seeds 3), so simulate and analyze come three to one.
	// scripts/smoke.sh's two-replica legs send two coordinator sweeps
	// beside one 4 s drhwload run at 25 requests per second (100
	// requests), so sweeps are 2 in 102.
	simulatePerAnalyze = 3
	shareSweep         = 2.0 / 102
	shareSimulate      = (1 - shareSweep) * simulatePerAnalyze / (simulatePerAnalyze + 1)
)

// simDoc is one fixed /v1/simulate document and the in-process
// engine.Simulate result every reply must equal.
type simDoc struct {
	name     string
	approach string
	body     []byte
	want     *sim.Result
}

// serveMixed is two drhwd replicas (each over a peer store peering the
// other) behind a coordinator, driven by a closed loop of nproc
// clients with a fixed mix: warm-cache simulate reads, cold analyze
// writes of never-seen random graphs, and coordinator sweeps.
type serveMixed struct {
	cfg config
	tr  *tracer
	st  *stack
	serveRefs
	refsErr error
	clients []*rand.Rand
	graphs  int
	mu      sync.Mutex
}

// serveRefs are the request documents and the in-process results every
// reply is checked against. Computing them is the checker's work, not
// the program's set-up, so it happens once per seed and process,
// before and outside the timed set-ups.
type serveRefs struct {
	docs     []simDoc
	sweep    []byte
	sweepRef []engine.RunResult
}

var serveRefCache struct {
	sync.Mutex
	bySeed map[int64]*serveRefs
}

func newServeMixed(cfg config) bench {
	s := &serveMixed{cfg: cfg}
	r, err := serveReferences(cfg)
	if r != nil {
		s.serveRefs = *r
	}
	s.refsErr = err
	return s
}

// serveReferences builds (or returns the cached) documents and
// reference results of a seed.
func serveReferences(cfg config) (*serveRefs, error) {
	serveRefCache.Lock()
	defer serveRefCache.Unlock()
	if r, ok := serveRefCache.bySeed[cfg.seed]; ok {
		return r, nil
	}
	r := &serveRefs{}
	r.docs, r.sweep = serveDocs(cfg.seed)
	eng := engine.New(engine.Config{Workers: cfg.nproc})
	for i := range r.docs {
		spec, err := workload.ParseRun(r.docs[i].body)
		if err != nil {
			return nil, err
		}
		if r.docs[i].want, err = eng.Simulate(spec.Mix, spec.Platform, spec.Options); err != nil {
			return nil, err
		}
	}
	var err error
	if r.sweepRef, err = expectedSweep(eng, r.sweep); err != nil {
		return nil, err
	}
	if serveRefCache.bySeed == nil {
		serveRefCache.bySeed = map[int64]*serveRefs{}
	}
	serveRefCache.bySeed[cfg.seed] = r
	return r, nil
}

// serveDocs builds the fixed simulate documents and the sweep request
// from the seed.
func serveDocs(seed int64) ([]simDoc, []byte) {
	mm := multimediaMix()
	pgl := []sim.TaskMix{{Task: workload.PocketGL().Task}}
	var docs []simDoc
	for _, ap := range []string{"hybrid", "run-time"} {
		docs = append(docs,
			simDoc{name: "multimedia@8", approach: ap, body: runDoc("multimedia", mm, 8, simBlock(ap, serveIterations, seed))},
			simDoc{name: "pocketgl@5", approach: ap, body: runDoc("pocketgl", pgl, 5, simBlock(ap, serveIterations, seed))})
	}
	sweep := sweepBody(runDoc("multimedia", mm, 8, simBlock("hybrid", sweepIterations, seed)),
		[]int{6, 8, 10}, []string{"hybrid", "run-time"})
	return docs, sweep
}

// randomAnalyzeDoc is a never-seen random graph of 6–12 subtasks on 8
// tiles (branch-and-bound analysis stays near a millisecond there).
func randomAnalyzeDoc(rng *rand.Rand, name string) []byte {
	g := graph.Generate(rng, graph.GenSpec{
		Name: name, Subtasks: 6 + rng.Intn(7), MaxWidth: 3,
		MinExec: model.MS(1), MaxExec: model.MS(12), EdgeProb: 0.2,
	})
	return runDoc(name, []sim.TaskMix{{Task: tcm.NewTask(name, g)}}, 8, nil)
}

// setup boots the replicas and the coordinator and warms their caches.
func (s *serveMixed) setup(tr *tracer) error {
	s.tr = tr
	if s.refsErr != nil {
		return s.refsErr
	}
	var err error
	if s.st, err = startStack(2, s.cfg.nproc, tr); err != nil {
		return err
	}
	// Warm both replicas' caches with the simulate documents and the
	// sweep grid: simulate requests are reads against a warm cache.
	for i := range s.docs {
		for _, r := range s.st.replicas {
			if err := s.simulate(i, r.url, nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	if err := s.doSweep(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for c := 0; c < s.cfg.nproc; c++ {
		s.clients = append(s.clients, rand.New(rand.NewSource(s.cfg.seed*1000003+int64(c))))
	}
	return nil
}

// simulate posts document i to a replica and checks the reply.
func (s *serveMixed) simulate(i int, url string, ops *opLog) error {
	d := s.docs[i]
	start := time.Now()
	body, err := s.st.post("simulate", url+"/v1/simulate", d.body)
	lat := time.Since(start)
	if err == nil {
		var resp server.SimulateResponse
		if err = json.Unmarshal(body, &resp); err == nil {
			if err = checkSimulate(&resp, d.want); err == nil && ops != nil {
				ops.credit(d.approach, resp.Instances, lat)
			}
			s.tr.simResult(resp.Loads, resp.PrefetchHits, resp.Reuses, resp.Subtasks)
		}
	}
	if ops != nil {
		ops.record("simulate", lat, err)
	}
	return err
}

func (s *serveMixed) analyze(rng *rand.Rand, url string, ops *opLog) {
	s.mu.Lock()
	s.graphs++
	name := fmt.Sprintf("random-%d", s.graphs)
	s.mu.Unlock()
	doc := randomAnalyzeDoc(rng, name)
	start := time.Now()
	body, err := s.st.post("analyze", url+"/v1/analyze", doc)
	lat := time.Since(start)
	if err == nil {
		var resp server.AnalyzeResponse
		if err = json.Unmarshal(body, &resp); err == nil &&
			(len(resp.Tasks) != 1 || len(resp.Tasks[0].Scenarios) != 1 || resp.Tasks[0].Scenarios[0].Subtasks < 6) {
			err = fmt.Errorf("analyze reply for %s has the wrong shape: %+v", name, resp.Tasks)
		}
	}
	ops.record("analyze", lat, err)
}

// doSweep posts the sweep through the coordinator and checks every
// cell against the in-process engine.Sweep.
func (s *serveMixed) doSweep() error {
	body, err := s.st.post("sweep", s.st.coordURL+"/v1/sweep", s.sweep)
	if err != nil {
		return err
	}
	out, err := parseSweep(body)
	if err != nil {
		return err
	}
	s.tr.count("cluster.sweeps", 1)
	s.tr.count("cluster.retried_cells", int64(out.summary.RetriedCells))
	return checkSweep(out, s.sweepRef)
}

func (s *serveMixed) loop(until time.Time, ops *opLog) {
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for time.Now().Before(until) {
				url := s.st.replicas[rng.Intn(len(s.st.replicas))].url
				switch u := rng.Float64(); {
				case u < shareSweep:
					start := time.Now()
					err := s.doSweep()
					ops.record("sweep", time.Since(start), err)
				case u < shareSweep+shareSimulate:
					s.simulate(rng.Intn(len(s.docs)), url, ops)
				default:
					s.analyze(rng, url, ops)
				}
			}
		}(s.clients[c])
	}
	wg.Wait()
}

func (s *serveMixed) simMetrics() map[string]float64 {
	over := map[string][]float64{}
	var p99 []float64
	for _, d := range s.docs {
		if d.want == nil {
			return map[string]float64{"sim_response_p99_ms": math.NaN()}
		}
		over[d.approach] = append(over[d.approach], d.want.OverheadPct)
		p99 = append(p99, d.want.ResponseTime.P99)
	}
	return map[string]float64{
		"sim_overhead_pct.hybrid":   mean(over["hybrid"]),
		"sim_overhead_pct.run-time": mean(over["run-time"]),
		"sim_response_p99_ms":       mean(p99),
	}
}

func (s *serveMixed) report(w io.Writer) {
	fmt.Fprintf(w, "simulate documents (every reply checked equal to in-process engine.Simulate):\n")
	for _, d := range s.docs {
		if d.want != nil {
			fmt.Fprintf(w, "  %-14s %-8s overhead %6.3f%%  response p99 %8.3f ms  instances %d\n",
				d.name, d.approach, d.want.OverheadPct, d.want.ResponseTime.P99, d.want.Instances)
		}
	}
	fmt.Fprintf(w, "random analyze graphs sent: %d\n", s.graphs)
}

func (s *serveMixed) replay(tr *tracer) error {
	in := replayInputs{seed: s.cfg.seed, simReplay: true}
	for _, d := range s.docs {
		in.simDocs = append(in.simDocs, d.body)
	}
	mm := multimediaMix()
	pgl := []sim.TaskMix{{Task: workload.PocketGL().Task}}
	in.addMix(mm, platform.Default(8), fabric.Serial{})
	in.addMix(pgl, platform.Default(5), fabric.Serial{})
	rng := rand.New(rand.NewSource(s.cfg.seed))
	for i := 0; i < 16; i++ {
		doc := randomAnalyzeDoc(rng, fmt.Sprintf("replay-%d", i))
		in.analyzeDocs = append(in.analyzeDocs, doc)
		spec, err := workload.ParseRun(doc)
		if err != nil {
			return err
		}
		in.addMix(spec.Mix, spec.Platform)
	}
	in.sweeps = [][]byte{s.sweep}
	err := replayAll(tr, in, s.cfg)
	s.st.tierStats(tr)
	return err
}

func (s *serveMixed) close() {
	if s.st != nil {
		s.st.close()
	}
}
