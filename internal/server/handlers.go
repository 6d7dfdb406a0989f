package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/graph"
	"drhwsched/internal/httpd"
	"drhwsched/internal/obs"
	"drhwsched/internal/schedule"
	"drhwsched/internal/sim"
	"drhwsched/internal/workload"
)

// The request wire format is the workload JSON schema of
// internal/workload (tasks + optional platform and sim blocks); see the
// schema comment in internal/workload/json.go. Responses are defined
// here.

// CacheWire snapshots the engine-wide analysis cache in responses and
// sweep summaries. The counters cover the whole engine lifetime — the
// cache is shared across requests, which is the point of the service.
type CacheWire struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	HitRate   float64 `json:"hit_rate"`
}

func cacheWire(st engine.CacheStats) CacheWire {
	return CacheWire{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		HitRate:   st.HitRate(),
	}
}

// AnalyzeResponse is the /v1/analyze reply: one design-time analysis
// per scenario graph of every task in the document.
type AnalyzeResponse struct {
	Name     string        `json:"name"`
	Platform string        `json:"platform"`
	Tasks    []AnalyzeTask `json:"tasks"`
	Cache    CacheWire     `json:"cache"`
}

// AnalyzeTask groups the per-scenario analyses of one dynamic task.
type AnalyzeTask struct {
	Name      string            `json:"name"`
	Scenarios []AnalyzeScenario `json:"scenarios"`
}

// AnalyzeScenario is the stored design-time artifact of one scenario
// graph plus its cold-start evaluation.
type AnalyzeScenario struct {
	Name     string `json:"name"`
	Subtasks int    `json:"subtasks"`
	// Critical is the minimal Critical-Subtask set in stored
	// (initialization-phase) load order; CriticalPct its share of the
	// hardware subtasks.
	Critical    []string `json:"critical"`
	CriticalPct float64  `json:"critical_pct"`
	// BodyOrder is the optimal port order of the non-critical loads —
	// together with Critical, the whole stored design-time schedule.
	BodyOrder []string `json:"body_order"`
	// Iterations is how many Figure-4 refinement rounds the analysis
	// took.
	Iterations int `json:"iterations"`
	// Cold-start evaluation: executing this schedule on an empty
	// platform.
	IdealMS     float64 `json:"ideal_ms"`
	OverheadMS  float64 `json:"overhead_ms"`
	OverheadPct float64 `json:"overhead_pct"`
}

// readRun decodes and bounds-checks a workload document request body.
func (s *Server) readRun(r *http.Request) (*workload.RunSpec, error) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err // MaxBytesError maps to 413 in instrument
	}
	spec, err := workload.ParseRun(data)
	if err != nil {
		return nil, httpd.BadRequest("%v", err)
	}
	if n := spec.Subtasks(); n > s.cfg.MaxSubtasks {
		return nil, httpd.TooLarge("document has %d subtasks, limit is %d", n, s.cfg.MaxSubtasks)
	}
	return spec, nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) error {
	spec, err := s.readRun(r)
	if err != nil {
		return err
	}
	resp := AnalyzeResponse{Name: spec.Name, Platform: spec.Platform.String()}
	for _, m := range spec.Mix {
		at := AnalyzeTask{Name: m.Task.Name}
		for _, g := range m.Task.Scenarios {
			if err := r.Context().Err(); err != nil {
				return err
			}
			sched, err := assign.List(g, spec.Platform, assign.Options{Placement: assign.Spread})
			if err != nil {
				return httpd.BadRequest("scheduling %q: %v", g.Name, err)
			}
			a, err := s.eng.Analyze(sched, spec.Platform, core.Options{})
			if err != nil {
				return httpd.BadRequest("analyzing %q: %v", g.Name, err)
			}
			run, err := a.Execute(schedule.Instance{}, nil)
			if err != nil {
				return fmt.Errorf("evaluating %q: %w", g.Name, err)
			}
			sc := AnalyzeScenario{
				Name:        g.Name,
				Subtasks:    g.Len(),
				Critical:    subtaskNames(g, a.CS),
				CriticalPct: 100 * a.CriticalFraction(),
				BodyOrder:   subtaskNames(g, a.BodyOrder),
				Iterations:  a.Iterations,
				IdealMS:     run.Ideal.Milliseconds(),
				OverheadMS:  run.Overhead.Milliseconds(),
			}
			if run.Ideal > 0 {
				sc.OverheadPct = 100 * float64(run.Overhead) / float64(run.Ideal)
			}
			at.Scenarios = append(at.Scenarios, sc)
		}
		resp.Tasks = append(resp.Tasks, at)
	}
	resp.Cache = cacheWire(s.eng.CacheStats())
	return httpd.WriteJSON(w, http.StatusOK, resp)
}

func subtaskNames(g *graph.Graph, ids []graph.SubtaskID) []string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = g.Subtask(id).Name
	}
	return names
}

// SimulateResponse is the /v1/simulate reply: the full simulation
// aggregate in wire units (milliseconds, percentages, millijoules).
type SimulateResponse struct {
	Name       string `json:"name"`
	Approach   string `json:"approach"`
	Platform   string `json:"platform"`
	Tiles      int    `json:"tiles"`
	Iterations int    `json:"iterations"`

	IdealMS     float64 `json:"ideal_ms"`
	ActualMS    float64 `json:"actual_ms"`
	OverheadPct float64 `json:"overhead_pct"`

	Instances  int     `json:"instances"`
	Subtasks   int     `json:"subtasks"`
	Loads      int     `json:"loads"`
	InitLoads  int     `json:"init_loads"`
	Reuses     int     `json:"reuses"`
	Cancelled  int     `json:"cancelled"`
	SavedLoads int     `json:"saved_loads"`
	ReusePct   float64 `json:"reuse_pct"`

	LoadEnergyMJ   float64 `json:"load_energy_mj"`
	CriticalPct    float64 `json:"critical_pct,omitempty"`
	SchedCostMS    float64 `json:"sched_cost_ms,omitempty"`
	DeadlineMisses int     `json:"deadline_misses,omitempty"`
	PointEnergyMJ  float64 `json:"point_energy_mj,omitempty"`

	// Per-iteration tail percentiles (milliseconds): the distribution
	// of iteration makespans and reconfiguration overheads, not just
	// their means.
	MakespanP50MS float64 `json:"makespan_p50_ms"`
	MakespanP95MS float64 `json:"makespan_p95_ms"`
	MakespanP99MS float64 `json:"makespan_p99_ms"`
	OverheadP50MS float64 `json:"overhead_p50_ms"`
	OverheadP95MS float64 `json:"overhead_p95_ms"`
	OverheadP99MS float64 `json:"overhead_p99_ms"`

	// Fabric multitasking: the admission mode the run executed under,
	// its partition count (partition mode only), the peak number of
	// concurrently resident instances, and the per-instance
	// queueing-delay / response-time tail percentiles (milliseconds).
	MultitaskMode string `json:"multitask_mode"`
	Partitions    int    `json:"partitions,omitempty"`
	MaxInFlight   int    `json:"max_in_flight"`
	// Execution names how the run was cut into replications:
	// "sequential" (one whole-run replication) or "sharded"
	// (32-iteration replications; see the workload "sim.parallelism"
	// field); Workers is the worker count a sharded run fanned out to
	// (absent when sequential).
	Execution       string  `json:"execution"`
	Workers         int     `json:"workers,omitempty"`
	QueueDelayP50MS float64 `json:"queue_delay_p50_ms"`
	QueueDelayP95MS float64 `json:"queue_delay_p95_ms"`
	QueueDelayP99MS float64 `json:"queue_delay_p99_ms"`
	ResponseP50MS   float64 `json:"response_p50_ms"`
	ResponseP95MS   float64 `json:"response_p95_ms"`
	ResponseP99MS   float64 `json:"response_p99_ms"`

	// Run-time reconfiguration attribution and fabric pressure:
	// prefetch hits are loads the schedule fully hid behind execution,
	// demand misses are loads some subtask had to wait on; PeakQueued
	// is the deepest admission queue any iteration reached, and
	// ISPBusyMS the accumulated software-processor busy time.
	PrefetchHits int       `json:"prefetch_hits"`
	DemandMisses int       `json:"demand_misses"`
	PeakQueued   int       `json:"peak_queued"`
	ISPBusyMS    []float64 `json:"isp_busy_ms,omitempty"`

	// Per-run analysis-cache traffic (this request only) and the
	// engine-wide snapshot.
	CacheHits   int       `json:"cache_hits"`
	CacheMisses int       `json:"cache_misses"`
	Cache       CacheWire `json:"cache"`
}

// simulateResponse renders one completed run in wire units, with the
// engine-wide cache snapshot taken now.
func (s *Server) simulateResponse(spec *workload.RunSpec, res *sim.Result) SimulateResponse {
	resp := SimulateResponse{
		Name:            spec.Name,
		Approach:        res.Approach.String(),
		Platform:        spec.Platform.String(),
		Tiles:           res.Tiles,
		Iterations:      res.Iterations,
		IdealMS:         res.IdealTotal.Milliseconds(),
		ActualMS:        res.ActualTotal.Milliseconds(),
		OverheadPct:     res.OverheadPct,
		Instances:       res.Instances,
		Subtasks:        res.Subtasks,
		Loads:           res.Loads,
		InitLoads:       res.InitLoads,
		Reuses:          res.Reuses,
		Cancelled:       res.Cancelled,
		SavedLoads:      res.SavedLoads,
		ReusePct:        res.ReusePct,
		LoadEnergyMJ:    res.LoadEnergy,
		CriticalPct:     res.CriticalPct,
		SchedCostMS:     res.SchedCost.Milliseconds(),
		DeadlineMisses:  res.DeadlineMisses,
		PointEnergyMJ:   res.PointEnergy,
		MakespanP50MS:   res.IterMakespan.P50,
		MakespanP95MS:   res.IterMakespan.P95,
		MakespanP99MS:   res.IterMakespan.P99,
		OverheadP50MS:   res.IterOverhead.P50,
		OverheadP95MS:   res.IterOverhead.P95,
		OverheadP99MS:   res.IterOverhead.P99,
		MultitaskMode:   res.MultitaskMode,
		Partitions:      res.Partitions,
		MaxInFlight:     res.MaxInFlight,
		Execution:       res.Execution,
		Workers:         res.Workers,
		QueueDelayP50MS: res.QueueDelay.P50,
		QueueDelayP95MS: res.QueueDelay.P95,
		QueueDelayP99MS: res.QueueDelay.P99,
		ResponseP50MS:   res.ResponseTime.P50,
		ResponseP95MS:   res.ResponseTime.P95,
		ResponseP99MS:   res.ResponseTime.P99,
		PrefetchHits:    res.PrefetchHits,
		DemandMisses:    res.DemandMisses,
		PeakQueued:      res.PeakQueued,
		CacheHits:       res.CacheHits,
		CacheMisses:     res.CacheMisses,
		Cache:           cacheWire(s.eng.CacheStats()),
	}
	for _, d := range res.ISPBusy {
		resp.ISPBusyMS = append(resp.ISPBusyMS, d.Milliseconds())
	}
	return resp
}

// IterationWire is one NDJSON line of /v1/simulate?stream=iterations:
// the kernel's per-iteration record in wire units.
type IterationWire struct {
	Iteration    int     `json:"iteration"`
	Instances    int     `json:"instances"`
	MaxInFlight  int     `json:"max_in_flight"`
	MakespanMS   float64 `json:"makespan_ms"`
	OverheadMS   float64 `json:"overhead_ms"`
	Loads        int     `json:"loads"`
	Reuses       int     `json:"reuses"`
	DeadlineMiss bool    `json:"deadline_miss,omitempty"`
}

// SimulateSummary terminates an iteration stream: the full aggregate
// (tail percentiles included) flagged as the final line. A client that
// never sees done=true knows its stream was cut short.
type SimulateSummary struct {
	Done bool `json:"done"`
	SimulateResponse
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) error {
	spec, err := s.readRun(r)
	if err != nil {
		return err
	}
	stream, trace := r.URL.Query().Get("stream"), r.URL.Query().Get("trace")
	if trace != "" && trace != "events" {
		return httpd.BadRequest("simulate: unknown trace mode %q (events)", trace)
	}
	if stream != "" && trace != "" {
		return httpd.BadRequest("simulate: stream=%s and trace=%s are mutually exclusive", stream, trace)
	}
	if trace == "events" {
		return s.streamTrace(w, r, spec)
	}
	if stream != "" {
		if stream != "iterations" {
			return httpd.BadRequest("simulate: unknown stream mode %q (iterations)", stream)
		}
		return s.streamSimulate(w, r, spec)
	}
	res, err := s.eng.SimulateContext(r.Context(), spec.Mix, spec.Platform, spec.Options)
	if err != nil {
		if ctxErr := r.Context().Err(); ctxErr != nil {
			return ctxErr
		}
		return httpd.BadRequest("%v", err)
	}
	s.observeRun(res, spec.Options.Trace)
	return httpd.WriteJSON(w, http.StatusOK, s.simulateResponse(spec, res))
}

// observeRun folds one completed simulation (and its recorder's drop
// count, when the run was traced) into the /metrics families.
func (s *Server) observeRun(res *sim.Result, rec *obs.Recorder) {
	s.metrics.observeSim(res)
	if rec != nil {
		s.metrics.observeTraceDrops(rec.Drops())
	}
}

// TraceSummary terminates a /v1/simulate?trace=events stream: the full
// aggregate plus the recorder's event and drop counts, flagged as the
// final line. The preceding lines are the recorded events themselves,
// one JSON object per line in recording order.
type TraceSummary struct {
	Done    bool  `json:"done"`
	Events  int   `json:"events"`
	Dropped int64 `json:"dropped"`
	SimulateResponse
}

// streamTrace runs the simulation with event tracing on and streams
// the recorded fabric/kernel events as NDJSON, then the aggregate as a
// trailer line. The document's own trace block (sim.trace) sizes the
// recorder; absent, a default-capacity recorder is used.
func (s *Server) streamTrace(w http.ResponseWriter, r *http.Request, spec *workload.RunSpec) error {
	opt := spec.Options
	if opt.Trace == nil {
		opt.Trace = obs.NewRecorder(0)
	}
	rec := opt.Trace
	// Reject anything the kernel would refuse before committing the 200.
	if err := sim.Validate(spec.Mix, spec.Platform, opt); err != nil {
		return httpd.BadRequest("%v", err)
	}
	res, err := s.eng.SimulateContext(r.Context(), spec.Mix, spec.Platform, opt)
	if err != nil {
		if ctxErr := r.Context().Err(); ctxErr != nil {
			return ctxErr
		}
		return httpd.BadRequest("%v", err)
	}
	s.observeRun(res, rec)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	events := rec.Events()
	for i := range events {
		if err := enc.Encode(events[i].Wire()); err != nil {
			return fmt.Errorf("simulate trace: writing event: %w", err)
		}
	}
	sum := TraceSummary{
		Done:             true,
		Events:           len(events),
		Dropped:          rec.Drops(),
		SimulateResponse: s.simulateResponse(spec, res),
	}
	if err := enc.Encode(sum); err != nil {
		return fmt.Errorf("simulate trace: writing summary: %w", err)
	}
	http.NewResponseController(w).Flush()
	return nil
}

// streamSimulate runs the simulation with an observer that emits one
// NDJSON line per iteration, then the aggregate as a summary line. The
// observer runs synchronously on the request goroutine, so encoding
// needs no locking; a client that disconnects cancels the request
// context, which aborts the simulation at its next iteration boundary.
func (s *Server) streamSimulate(w http.ResponseWriter, r *http.Request, spec *workload.RunSpec) error {
	// Reject anything the kernel would refuse before committing the
	// 200: once the header is on the wire, errors can only surface as
	// a missing summary line.
	if err := sim.Validate(spec.Mix, spec.Platform, spec.Options); err != nil {
		return httpd.BadRequest("%v", err)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := http.NewResponseController(w).Flush
	flush() // commit the headers before the (possibly slow) design-time phase

	var writeErr error
	opt := spec.Options
	opt.Observer = func(rec sim.IterationRecord) {
		if writeErr != nil {
			return
		}
		writeErr = enc.Encode(IterationWire{
			Iteration:    rec.Iteration,
			Instances:    rec.Instances,
			MaxInFlight:  rec.MaxInFlight,
			MakespanMS:   rec.Makespan.Milliseconds(),
			OverheadMS:   rec.Overhead.Milliseconds(),
			Loads:        rec.Loads,
			Reuses:       rec.Reuses,
			DeadlineMiss: rec.DeadlineMiss,
		})
		flush()
	}
	res, err := s.eng.SimulateContext(r.Context(), spec.Mix, spec.Platform, opt)
	if err != nil {
		// The status is already on the wire; the missing summary line
		// tells the client (instrument logs the late error).
		return fmt.Errorf("simulate stream: %w", err)
	}
	s.observeRun(res, opt.Trace)
	if writeErr != nil {
		return fmt.Errorf("simulate stream: writing iteration: %w", writeErr)
	}
	sum := SimulateSummary{Done: true, SimulateResponse: s.simulateResponse(spec, res)}
	if err := enc.Encode(sum); err != nil {
		return fmt.Errorf("simulate stream: writing summary: %w", err)
	}
	flush()
	return nil
}

// SweepRequest is the /v1/sweep body: a base workload document plus the
// grid to span. Every cell is the base run with one knob swept (Param ×
// Values) per approach line.
type SweepRequest struct {
	// Workload is a full workload document (tasks + optional platform
	// and sim blocks) serving as the base run of every cell.
	Workload json.RawMessage `json:"workload"`
	// Param is the swept knob: "tiles" (default) or "seed".
	Param string `json:"param,omitempty"`
	// Values are the swept x values (tile counts or seeds).
	Values []int `json:"values"`
	// Approaches are the series lines; empty means all five.
	Approaches []string `json:"approaches,omitempty"`
}

// SweepCell is one NDJSON line of the /v1/sweep stream, emitted the
// moment the cell's simulation completes (completion order, not grid
// order — Index is the cell's position in the expanded grid, values ×
// approaches, so clients and the cluster coordinator can restore grid
// order and detect duplicates).
type SweepCell struct {
	Index       int     `json:"index"`
	X           int     `json:"x"`
	Line        string  `json:"line"`
	OverheadPct float64 `json:"overhead_pct"`
	IdealMS     float64 `json:"ideal_ms"`
	ActualMS    float64 `json:"actual_ms"`
	ReusePct    float64 `json:"reuse_pct"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	Error       string  `json:"error,omitempty"`
}

// SweepSummary terminates a complete stream. A client that never sees
// a summary line knows its sweep was cut short.
type SweepSummary struct {
	Done      bool      `json:"done"`
	Cells     int       `json:"cells"`
	Delivered int       `json:"delivered"`
	Errors    int       `json:"errors"`
	Cache     CacheWire `json:"cache"`
}

// Sweep is a validated /v1/sweep request. drhwd expands it into engine
// runs; the cluster coordinator shards it across replicas.
type Sweep struct {
	Raw    json.RawMessage // the workload document as sent
	Spec   *workload.RunSpec
	Param  string // "tiles" or "seed"
	Values []int
	Lines  []string // approach lines; all five when the request names none
	aps    []sim.Approach
}

// ReadSweep decodes the request body and parses it with ParseSweep.
func ReadSweep(r *http.Request, maxSubtasks, maxCells int) (*Sweep, error) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err // MaxBytesError maps to 413 in the shell
	}
	var req SweepRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, httpd.BadRequest("sweep: parsing request: %v", err)
	}
	return ParseSweep(&req, maxSubtasks, maxCells)
}

// ParseSweep validates a sweep request against the size bounds. The
// checks run in a fixed order and the first fault is reported (400 or
// 413): the document, its subtask count, the values, the param, the
// grid size, the first value's tile count, the approach lines, then
// the other values' tile counts.
func ParseSweep(req *SweepRequest, maxSubtasks, maxCells int) (*Sweep, error) {
	if len(req.Workload) == 0 {
		return nil, httpd.BadRequest("sweep: missing workload document")
	}
	spec, err := workload.ParseRun(req.Workload)
	if err != nil {
		return nil, httpd.BadRequest("%v", err)
	}
	if n := spec.Subtasks(); n > maxSubtasks {
		return nil, httpd.TooLarge("document has %d subtasks, limit is %d", n, maxSubtasks)
	}
	if len(req.Values) == 0 {
		return nil, httpd.BadRequest("sweep: no values to sweep")
	}
	sw := &Sweep{Raw: req.Workload, Spec: spec, Param: req.Param, Values: req.Values, Lines: req.Approaches}
	switch sw.Param {
	case "":
		sw.Param = "tiles"
	case "tiles", "seed":
	default:
		return nil, httpd.BadRequest("sweep: unknown param %q (tiles|seed)", req.Param)
	}
	if len(sw.Lines) == 0 {
		sw.Lines = workload.Approaches()
	}
	if cells := sw.Cells(); cells > maxCells {
		return nil, httpd.TooLarge("sweep grid has %d cells, limit is %d", cells, maxCells)
	}
	p := spec.Platform
	for i, x := range sw.Values {
		if sw.Param == "tiles" {
			p.Tiles = x
			if err := p.Validate(); err != nil {
				return nil, httpd.BadRequest("sweep: tile count %d out of range: %v", x, err)
			}
		}
		if i > 0 {
			continue
		}
		for _, line := range sw.Lines {
			ap, err := workload.ParseApproach(line)
			if err != nil {
				return nil, httpd.BadRequest("%v", err)
			}
			sw.aps = append(sw.aps, ap)
		}
	}
	return sw, nil
}

// Cells is the grid size: values × approach lines.
func (sw *Sweep) Cells() int { return len(sw.Values) * len(sw.Lines) }

// Runs expands the grid into engine runs, values outer and lines
// inner, so a run's position is its cell index.
func (sw *Sweep) Runs() []engine.Run {
	runs := make([]engine.Run, 0, sw.Cells())
	for _, x := range sw.Values {
		p := sw.Spec.Platform
		opt := sw.Spec.Options
		if sw.Param == "seed" {
			opt.Seed = int64(x)
		} else {
			p.Tiles = x
		}
		// Cells run concurrently; a single recorder shared across them
		// would interleave unrelated timelines.
		opt.Trace = nil
		for li, line := range sw.Lines {
			o := opt
			o.Approach = sw.aps[li]
			runs = append(runs, engine.Run{X: x, Line: line, Mix: sw.Spec.Mix, Platform: p, Options: o})
		}
	}
	return runs
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) error {
	sw, err := ReadSweep(r, s.cfg.MaxSubtasks, s.cfg.MaxSweepCells)
	if err != nil {
		return err
	}
	runs := sw.Runs()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := http.NewResponseController(w).Flush
	flush() // commit the headers before the first (possibly slow) cell

	ctx := r.Context()
	delivered, failed := 0, 0
	for rr := range s.eng.Stream(ctx, runs) {
		cell := SweepCell{Index: rr.Index, X: rr.Run.X, Line: rr.Run.Line}
		if rr.Err != nil {
			failed++
			cell.Error = rr.Err.Error()
		} else {
			s.metrics.observeSim(rr.Result)
			cell.OverheadPct = rr.Result.OverheadPct
			cell.IdealMS = rr.Result.IdealTotal.Milliseconds()
			cell.ActualMS = rr.Result.ActualTotal.Milliseconds()
			cell.ReusePct = rr.Result.ReusePct
			cell.CacheHits = rr.Result.CacheHits
			cell.CacheMisses = rr.Result.CacheMisses
		}
		if err := enc.Encode(cell); err != nil {
			// Client gone. Returning ends the request, which cancels
			// ctx and unwinds the engine stream's workers.
			return fmt.Errorf("sweep: writing cell: %w", err)
		}
		delivered++
		flush()
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	sum := SweepSummary{
		Done:      true,
		Cells:     len(runs),
		Delivered: delivered,
		Errors:    failed,
		Cache:     cacheWire(s.eng.CacheStats()),
	}
	if err := enc.Encode(sum); err != nil {
		return fmt.Errorf("sweep: writing summary: %w", err)
	}
	flush()
	return nil
}
