package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/fabric"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/obs"
	"drhwsched/internal/peerstore"
	"drhwsched/internal/platform"
	"drhwsched/internal/prefetch"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/server"
	"drhwsched/internal/sim"
	"drhwsched/internal/tcm"
	"drhwsched/internal/workload"
)

// replayRepeats is how often each cheap entry point is called per
// input, so its mean rests on more than one clock reading.
const replayRepeats = 10

// replayInputs are a workload's own inputs, replayed in a traced run
// through the entry points that have no seam.
type replayInputs struct {
	seed       int64
	scheds     []schedJob
	admissions []admissionJob
	// simDocs, analyzeDocs and sweeps are wire bodies for /v1/simulate,
	// /v1/analyze and /v1/sweep.
	simDocs, analyzeDocs, sweeps [][]byte
	// simReplay runs simDocs in process on the sequential path with
	// every sim seam wrapped (for workloads whose loop cannot).
	simReplay bool
	// serveReplay drives the documents through a traced serving stack
	// (for workloads whose loop does not).
	serveReplay bool
}

// schedJob is one scenario graph on one platform.
type schedJob struct {
	g *graph.Graph
	p platform.Platform
}

// admissionJob replays fabric admission of a mix's instances.
type admissionJob struct {
	alloc fabric.Allocation
	p     platform.Platform
	mix   []sim.TaskMix
}

// addMix adds every scenario of the mix on p, and an admission replay
// per allocation.
func (in *replayInputs) addMix(mix []sim.TaskMix, p platform.Platform, allocs ...fabric.Allocation) {
	for _, m := range mix {
		for _, g := range m.Task.Scenarios {
			in.scheds = append(in.scheds, schedJob{g, p})
		}
	}
	for _, a := range allocs {
		in.admissions = append(in.admissions, admissionJob{a, p, mix})
	}
}

// runDoc is the wire document of a mix on a tile count with an
// optional sim block.
func runDoc(name string, mix []sim.TaskMix, tiles int, sb *workload.SimDoc) []byte {
	tasks := make([]*tcm.Task, len(mix))
	weights := make([][]float64, len(mix))
	for i, m := range mix {
		tasks[i] = m.Task
		weights[i] = m.ScenarioWeights
	}
	doc := workload.DocOf(name, tasks, weights)
	doc.Platform = &workload.PlatformDoc{Tiles: tiles}
	doc.Sim = sb
	b, _ := json.Marshal(doc)
	return b
}

func simBlock(approach string, iterations int, seed int64) *workload.SimDoc {
	return &workload.SimDoc{Approach: approach, Iterations: iterations, Seed: seed}
}

// replayAll runs every replay the inputs ask for.
func replayAll(tr *tracer, in replayInputs, cfg config) error {
	if err := replayEntryPoints(tr, in); err != nil {
		return err
	}
	if err := replayAdmission(tr, in); err != nil {
		return err
	}
	if err := replayInproc(tr, in, cfg); err != nil {
		return err
	}
	if in.serveReplay {
		return replayServe(tr, in, cfg)
	}
	return nil
}

// replayEntryPoints times assign.List, core.Analyze,
// (*core.Analysis).Execute, prefetch.List.Schedule, reconfig.Map,
// peerstore.Encode/Decode and workload.ParseRun on the inputs.
func replayEntryPoints(tr *tracer, in replayInputs) error {
	states := map[int]*reconfig.State{}
	clock := model.Time(0)
	for _, j := range in.scheds {
		var s *assign.Schedule
		var a *core.Analysis
		var m reconfig.Mapping
		var data []byte
		var err error
		if err := tr.timed("assign.list", replayRepeats, func() error {
			s, err = assign.List(j.g, j.p, assign.Options{Placement: assign.Spread})
			return err
		}); err != nil {
			return err
		}
		if err := tr.timed("core.analyze", 1, func() error {
			a, err = core.Analyze(s, j.p, core.Options{})
			return err
		}); err != nil {
			return err
		}
		if err := tr.timed("core.execute", replayRepeats, func() error {
			_, err := a.Execute(core.RunBounds{}, nil)
			return err
		}); err != nil {
			return err
		}
		if err := tr.timed("prefetch.list", replayRepeats, func() error {
			_, err := (prefetch.List{}).Schedule(s, j.p, s.AllLoads(), prefetch.Bounds{})
			return err
		}); err != nil {
			return err
		}
		st := states[j.p.Tiles]
		if st == nil {
			st = reconfig.NewState(j.p.Tiles)
			states[j.p.Tiles] = st
		}
		if err := tr.timed("reconfig.map", replayRepeats, func() error {
			m, err = reconfig.Map(s, st, reconfig.MapOptions{Critical: a.IsCritical})
			return err
		}); err != nil {
			return err
		}
		// Leave this schedule's configurations resident so the next
		// mapping on the platform meets reuse and eviction.
		clock = clock.Add(model.MS(1))
		at := clock
		reconfig.Commit(s, st, m, reconfig.Resident(s, st, m), func(graph.SubtaskID) model.Time { return at })
		key := engine.Fingerprint(s, j.p, core.Options{})
		if err := tr.timed("peerstore.encode", replayRepeats, func() error {
			data, err = peerstore.Encode(key, a)
			return err
		}); err != nil {
			return err
		}
		if err := tr.timed("peerstore.decode", replayRepeats, func() error {
			_, err := peerstore.Decode(key, data)
			return err
		}); err != nil {
			return err
		}
	}
	var docs [][]byte
	docs = append(docs, in.simDocs...)
	docs = append(docs, in.analyzeDocs...)
	for _, body := range in.sweeps {
		var req server.SweepRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		docs = append(docs, req.Workload)
	}
	for _, d := range docs {
		if err := tr.timed("workload.parse_run", replayRepeats, func() error {
			_, err := workload.ParseRun(d)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// need is one schedule's fabric claim: its busy tiles and distinct
// hardware configurations (what the kernel's admission asks for).
type need struct {
	tiles int
	cfgs  []graph.ConfigID
}

func needOf(s *assign.Schedule) need {
	var n need
	seen := map[graph.ConfigID]bool{}
	for _, st := range s.G.Subtasks() {
		if !st.OnISP && !seen[st.Config] {
			seen[st.Config] = true
			n.cfgs = append(n.cfgs, st.Config)
		}
	}
	for v := 0; v < s.Tiles; v++ {
		if len(s.TileOrder[v]) > 0 {
			n.tiles++
		}
	}
	return n
}

// replayAdmission times fabric grants (fabric.grant_us): seeded
// iterations of the mix's instances claim tiles in arrival order; a
// refused grant retires the oldest in-flight instance and retries, and
// each iteration ends with every instance retired. The loop is the
// benchmark's own driver, not the kernel's admission traffic, so its
// refusals are not reported; fabric.grant_refused_ratio comes from the
// kernel's admission events instead (see instrument).
func replayAdmission(tr *tracer, in replayInputs) error {
	rng := rand.New(rand.NewSource(in.seed))
	for _, ad := range in.admissions {
		var needs [][]need
		for _, m := range ad.mix {
			var ns []need
			for _, g := range m.Task.Scenarios {
				s, err := assign.List(g, ad.p, assign.Options{Placement: assign.Spread})
				if err != nil {
					return err
				}
				ns = append(ns, needOf(s))
			}
			needs = append(needs, ns)
		}
		f := fabric.New(ad.p, reconfig.LRU{})
		for it := 0; it < 200; it++ {
			var flights [][]int
			for k := 1 + rng.Intn(len(needs)); k > 0; k-- {
				ns := needs[rng.Intn(len(needs))]
				n := ns[rng.Intn(len(ns))]
				for {
					start := time.Now()
					claim, ok := f.Acquire(ad.alloc, n.tiles, n.cfgs, nil)
					tr.add("fabric.grant", 1, time.Since(start))
					if ok {
						flights = append(flights, claim)
						break
					}
					if len(flights) == 0 {
						return fmt.Errorf("%s admission refused a claim of %d tiles on an idle fabric", ad.alloc.Name(), n.tiles)
					}
					f.Release(flights[0])
					flights = flights[1:]
				}
			}
			for _, c := range flights {
				f.Release(c)
			}
		}
	}
	return nil
}

// replayInproc measures the in-process engine time of the serving
// documents, which server.overhead_ms subtracts from handler time, and
// (when asked) replays the simulate documents through the sim seams on
// the sequential path.
func replayInproc(tr *tracer, in replayInputs, cfg config) error {
	eng := engine.New(engine.Config{Workers: cfg.nproc})
	rec := obs.NewRecorder(recorderCapacity)
	for _, doc := range in.simDocs {
		spec, err := workload.ParseRun(doc)
		if err != nil {
			return err
		}
		if _, err := eng.Simulate(spec.Mix, spec.Platform, spec.Options); err != nil {
			return err
		}
		var ms []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := eng.Simulate(spec.Mix, spec.Platform, spec.Options); err != nil {
				return err
			}
			ms = append(ms, float64(time.Since(start))/1e6)
		}
		tr.setInproc(docKey(doc), median(ms))
		if in.simReplay {
			opt := spec.Options
			opt.Parallelism = 0
			opt, done := tr.instrument(opt, rec)
			res, err := eng.Simulate(spec.Mix, spec.Platform, opt)
			if err != nil {
				return err
			}
			done(res)
		}
	}
	// Analyze: each document cold (computing) and then warm (a cache
	// hit), mirroring what a replica does the first and later times it
	// sees the document.
	var coldMS []float64
	for _, doc := range in.analyzeDocs {
		key := docKey(doc)
		for _, phase := range []string{"cold:", "warm:"} {
			start := time.Now()
			if err := analyzeInproc(eng, doc); err != nil {
				return err
			}
			ms := float64(time.Since(start)) / 1e6
			tr.setInproc(phase+key, ms)
			if phase == "cold:" {
				coldMS = append(coldMS, ms)
			}
		}
	}
	if len(coldMS) > 0 {
		tr.setInproc("analyze-cold", mean(coldMS))
	}
	var cellMS []float64
	for _, body := range in.sweeps {
		runs, err := sweepRuns(body)
		if err != nil {
			return err
		}
		if _, err := eng.Batch(runs); err != nil {
			return err
		}
		start := time.Now()
		if _, err := eng.Batch(runs); err != nil {
			return err
		}
		cellMS = append(cellMS, float64(time.Since(start))/1e6/float64(len(runs)))
	}
	if len(cellMS) > 0 {
		tr.setInproc("sweep-cell", mean(cellMS))
	}
	return nil
}

// replayServe drives the workload's documents through a traced
// serving stack with one client: each simulate document to alternating
// replicas, each analyze document, and each sweep through the
// coordinator, replayRepeats rounds.
func replayServe(tr *tracer, in replayInputs, cfg config) error {
	st, err := startStack(2, cfg.nproc, tr)
	if err != nil {
		return err
	}
	defer st.close()
	n := 0
	for round := 0; round < replayRepeats; round++ {
		// Analyze first: the simulate documents share the analyze
		// documents' analyses, and the first analyze of each must be
		// the cold one server.overhead_ms.analyze assumes.
		for _, doc := range in.analyzeDocs {
			if _, err := st.post("analyze", st.replicas[n%2].url+"/v1/analyze", doc); err != nil {
				tr.fail("replay analyze", err)
			}
			n++
		}
		for _, doc := range in.simDocs {
			body, err := st.post("simulate", st.replicas[n%2].url+"/v1/simulate", doc)
			n++
			if err != nil {
				tr.fail("replay simulate", err)
				continue
			}
			var resp server.SimulateResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				tr.fail("replay simulate", err)
				continue
			}
			tr.simResult(resp.Loads, resp.PrefetchHits, resp.Reuses, resp.Subtasks)
		}
		for _, body := range in.sweeps {
			data, err := st.post("sweep", st.coordURL+"/v1/sweep", body)
			if err == nil {
				var out *sweepOut
				if out, err = parseSweep(data); err == nil {
					tr.count("cluster.sweeps", 1)
					tr.count("cluster.retried_cells", int64(out.summary.RetriedCells))
				}
			}
			if err != nil {
				tr.fail("replay sweep", err)
			}
		}
	}
	st.tierStats(tr)
	return nil
}

// analyzeInproc is the in-process work of one /v1/analyze request:
// parse, list-schedule and analyze every scenario through the engine's
// cache, and evaluate the cold start.
func analyzeInproc(eng *engine.Engine, doc []byte) error {
	spec, err := workload.ParseRun(doc)
	if err != nil {
		return err
	}
	for _, m := range spec.Mix {
		for _, g := range m.Task.Scenarios {
			s, err := assign.List(g, spec.Platform, assign.Options{Placement: assign.Spread})
			if err != nil {
				return err
			}
			a, err := eng.Analyze(s, spec.Platform, core.Options{})
			if err != nil {
				return err
			}
			if _, err := a.Execute(core.RunBounds{}, nil); err != nil {
				return err
			}
		}
	}
	return nil
}
