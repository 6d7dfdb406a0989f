package workload

import (
	"encoding/json"
	"fmt"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/obs"
	"drhwsched/internal/platform"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/sim"
	"drhwsched/internal/tcm"
)

// The JSON workload schema lets users simulate their own applications
// with cmd/drhwsim (and drive cmd/drhwd over HTTP) without writing Go.
// Times are written in (possibly fractional) milliseconds. A minimal
// document:
//
//	{
//	  "name": "custom",
//	  "tasks": [{
//	    "name": "pipeline",
//	    "scenarios": [{
//	      "subtasks": [
//	        {"name": "a", "exec_ms": 10},
//	        {"name": "b", "exec_ms": 10, "config": "shared/b"}
//	      ],
//	      "edges": [{"from": 0, "to": 1}]
//	    }]
//	  }]
//	}
//
// Two optional top-level blocks make one document fully specify a run
// (both are ignored by ParseMix, so pre-existing documents parse
// unchanged):
//
//	"platform": {"tiles": 8, "load_ms": 4, "ports": 1, "isps": 1}
//	"sim": {"approach": "hybrid", "iterations": 1000, "seed": 1,
//	        "policy": "lru", "inclusion_prob": 0.8,
//	        "scheduler_cost": false, "no_intertask": false,
//	        "deadline_ms": 0, "parallelism": 0,
//	        "arrivals": {"process": "onoff", "p_on": 0.95},
//	        "multitask": {"mode": "partition", "partitions": 2}}
//
// The optional "arrivals" block inside "sim" selects the workload
// arrival process (see ArrivalsDoc): the default Bernoulli draw, a
// bursty Markov-modulated on-off process, or trace-driven replay of a
// recorded arrival log. The optional "multitask" block (MultitaskDoc)
// selects the fabric admission mode: serial whole-fabric ownership
// (the paper's model, the default), fixed tile partitions, or greedy
// free-tile claims — concurrent modes report per-instance
// queueing-delay and response-time tails.
//
// ParseRun decodes all three blocks at once; absent blocks default to
// the paper's platform (8 tiles) and the hybrid approach. These blocks
// are also the wire format of the drhwd scheduling service — a
// /v1/simulate request body is exactly one such document.

// MixDoc is the top-level JSON document.
type MixDoc struct {
	Name  string    `json:"name"`
	Tasks []TaskDoc `json:"tasks"`
	// Platform and Sim optionally pin the hardware description and the
	// simulation options so the document fully specifies a run. Nil
	// means "caller decides" (ParseRun substitutes defaults).
	Platform *PlatformDoc `json:"platform,omitempty"`
	Sim      *SimDoc      `json:"sim,omitempty"`
}

// PlatformDoc is the optional hardware block.
type PlatformDoc struct {
	Tiles  int     `json:"tiles"`
	LoadMS float64 `json:"load_ms,omitempty"` // 0: the paper's 4 ms
	Ports  int     `json:"ports,omitempty"`   // 0: one controller
	ISPs   int     `json:"isps,omitempty"`
}

// SimDoc is the optional simulation-options block.
type SimDoc struct {
	Approach      string  `json:"approach,omitempty"` // "": hybrid
	Iterations    int     `json:"iterations,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Policy        string  `json:"policy,omitempty"` // replacement policy; "": lru
	InclusionProb float64 `json:"inclusion_prob,omitempty"`
	SchedulerCost bool    `json:"scheduler_cost,omitempty"`
	NoInterTask   bool    `json:"no_intertask,omitempty"`
	DeadlineMS    float64 `json:"deadline_ms,omitempty"`
	// Parallelism selects how the iteration stream is cut into
	// replications: 0 (or absent) one whole-run replication, N >= 1
	// 32-iteration replications on N workers, -1 the same on one worker
	// per CPU. Every admission mode and every traced run accepts it.
	// See sim.Options.Parallelism.
	Parallelism int `json:"parallelism,omitempty"`
	// Arrivals selects the workload arrival process; absent means the
	// paper's Bernoulli draw under inclusion_prob.
	Arrivals *ArrivalsDoc `json:"arrivals,omitempty"`
	// Multitask selects the fabric admission mode of the execute
	// stage; absent means serial (one instance owns the whole fabric
	// at a time, the paper's model).
	Multitask *MultitaskDoc `json:"multitask,omitempty"`
	// Trace enables run-time event tracing (fabric events, kernel
	// stage timings) into a bounded recorder the caller drains after
	// the run; absent or disabled means no recorder (the hot path pays
	// one pointer check). Tracing works at every parallelism and never
	// alters aggregates.
	Trace *TraceDoc `json:"trace,omitempty"`
}

// TraceDoc is the optional event-tracing block inside "sim":
//
//	"trace": {"enabled": true}
//	"trace": {"enabled": true, "capacity": 200000}
//
// Capacity bounds the recorder's event buffer (0: the obs package
// default); once full, further events are dropped and counted, never
// blocking the run.
type TraceDoc struct {
	Enabled  bool `json:"enabled"`
	Capacity int  `json:"capacity,omitempty"`
}

// MultitaskDoc is the optional fabric admission block inside "sim":
//
//	"multitask": {"mode": "serial"}
//	"multitask": {"mode": "partition", "partitions": 2}
//	"multitask": {"mode": "greedy"}
//
// Partition mode carves the platform's tiles into the given number of
// fixed blocks (0 means 2) and admits an instance onto the first run
// of consecutive free blocks that fits it; greedy mode claims exactly
// the needed free tiles anywhere, preferring ones already holding the
// instance's configurations. Instances that fit no claim queue until
// an in-flight instance completes.
type MultitaskDoc struct {
	Mode       string `json:"mode"`
	Partitions int    `json:"partitions,omitempty"`
}

// Resolve materializes the admission configuration. Partition-count
// range validation happens when the simulation starts, where the tile
// count is known.
func (md *MultitaskDoc) Resolve() (sim.Multitask, error) {
	if md == nil {
		return sim.Multitask{}, nil
	}
	return ParseMultitask(md.Mode, md.Partitions)
}

// ArrivalsDoc is the optional arrival-process block inside "sim":
//
//	"arrivals": {"process": "bernoulli", "p": 0.8}
//	"arrivals": {"process": "onoff", "p_on": 0.95, "p_off": 0.15,
//	             "on_to_off": 0.1, "off_to_on": 0.25, "start_off": false}
//	"arrivals": {"process": "trace", "trace": [[0, 2], [1], []]}
//
// The probability fields are pointers so an explicit 0 (an always-idle
// off state, a transition that never fires) is distinguishable from an
// absent field, which keeps the process default. A trace entry lists
// the task indices arriving that iteration (the log wraps around, and
// an empty entry is an idle iteration).
type ArrivalsDoc struct {
	Process  string   `json:"process"` // bernoulli|onoff|trace; "": bernoulli
	P        *float64 `json:"p,omitempty"`
	POn      *float64 `json:"p_on,omitempty"`
	POff     *float64 `json:"p_off,omitempty"`
	OnToOff  *float64 `json:"on_to_off,omitempty"`
	OffToOn  *float64 `json:"off_to_on,omitempty"`
	StartOff bool     `json:"start_off,omitempty"`
	Trace    [][]int  `json:"trace,omitempty"`
}

// Resolve materializes the arrival process. inclusionProb is the sim
// block's inclusion_prob, which backs a bernoulli block without its own
// "p"; an on-off block starts from sim.DefaultOnOff and overrides only
// the fields the document sets. Full validation (probability ranges,
// trace indices) happens when the simulation starts, where the mix
// size is known.
func (ad *ArrivalsDoc) Resolve(inclusionProb float64) (sim.Arrivals, error) {
	if ad == nil {
		return nil, nil
	}
	set := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	switch ad.Process {
	case "", "bernoulli":
		if ad.P != nil && *ad.P <= 0 {
			// sim.Bernoulli treats P <= 0 as "use the 0.8 default", so
			// an explicit non-positive p would silently mean something
			// else; a never-arriving workload is a trace of empty
			// entries, not a bernoulli p of 0.
			return nil, fmt.Errorf("workload: bernoulli arrival probability %v must be in (0, 1]", *ad.P)
		}
		p := inclusionProb
		set(&p, ad.P)
		return sim.Bernoulli{P: p}, nil
	case "onoff":
		o := sim.DefaultOnOff
		set(&o.POn, ad.POn)
		set(&o.POff, ad.POff)
		set(&o.OnToOff, ad.OnToOff)
		set(&o.OffToOn, ad.OffToOn)
		o.StartOff = ad.StartOff
		return o, nil
	case "trace":
		if len(ad.Trace) == 0 {
			return nil, fmt.Errorf("workload: arrivals process %q needs a non-empty trace", ad.Process)
		}
		return sim.Trace{Iterations: ad.Trace}, nil
	}
	return nil, fmt.Errorf("workload: unknown arrival process %q (%s)", ad.Process, Usage(ArrivalProcesses()))
}

// TaskDoc describes one dynamic task.
type TaskDoc struct {
	Name            string        `json:"name"`
	ScenarioWeights []float64     `json:"scenario_weights,omitempty"`
	Scenarios       []ScenarioDoc `json:"scenarios"`
}

// ScenarioDoc describes one scenario graph.
type ScenarioDoc struct {
	Name     string       `json:"name,omitempty"`
	Subtasks []SubtaskDoc `json:"subtasks"`
	Edges    []EdgeDoc    `json:"edges,omitempty"`
}

// SubtaskDoc describes one subtask.
type SubtaskDoc struct {
	Name   string  `json:"name"`
	ExecMS float64 `json:"exec_ms"`
	Config string  `json:"config,omitempty"`
	LoadMS float64 `json:"load_ms,omitempty"`
	OnISP  bool    `json:"on_isp,omitempty"`
}

// EdgeDoc describes one dependency by subtask index.
type EdgeDoc struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// ParseMix decodes and validates a JSON workload into TCM tasks plus
// per-task scenario weights (nil when uniform).
func ParseMix(data []byte) ([]*tcm.Task, [][]float64, error) {
	var doc MixDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, fmt.Errorf("workload: parsing mix: %w", err)
	}
	return doc.Mix()
}

// Mix validates the decoded document and builds its TCM tasks plus
// per-task scenario weights (nil when uniform).
func (doc *MixDoc) Mix() ([]*tcm.Task, [][]float64, error) {
	if len(doc.Tasks) == 0 {
		return nil, nil, fmt.Errorf("workload: mix %q has no tasks", doc.Name)
	}
	var tasks []*tcm.Task
	var weights [][]float64
	for ti, td := range doc.Tasks {
		if td.Name == "" {
			td.Name = fmt.Sprintf("task%d", ti)
		}
		if len(td.Scenarios) == 0 {
			return nil, nil, fmt.Errorf("workload: task %q has no scenarios", td.Name)
		}
		if td.ScenarioWeights != nil && len(td.ScenarioWeights) != len(td.Scenarios) {
			return nil, nil, fmt.Errorf("workload: task %q has %d weights for %d scenarios",
				td.Name, len(td.ScenarioWeights), len(td.Scenarios))
		}
		var scenarios []*graph.Graph
		for si, sd := range td.Scenarios {
			name := sd.Name
			if name == "" {
				name = fmt.Sprintf("%s-s%d", td.Name, si)
			}
			g := graph.New(name)
			for _, st := range sd.Subtasks {
				// Validate after the millisecond conversion: a float that
				// is positive on the wire can still overflow the internal
				// microsecond representation.
				if model.MS(st.ExecMS) <= 0 {
					return nil, nil, fmt.Errorf("workload: %s/%s: exec time %v ms not representable as a positive duration", name, st.Name, st.ExecMS)
				}
				if model.MS(st.LoadMS) < 0 {
					return nil, nil, fmt.Errorf("workload: %s/%s: load time %v ms not representable", name, st.Name, st.LoadMS)
				}
				cfg := graph.ConfigID(st.Config)
				if cfg == "" {
					// Default sharing across scenarios of one task:
					// slot identity by task and subtask name.
					cfg = graph.ConfigID(td.Name + "/" + st.Name)
				}
				id := g.AddConfigured(st.Name, model.MS(st.ExecMS), cfg)
				if st.LoadMS > 0 {
					g.SetLoad(id, model.MS(st.LoadMS))
				}
				if st.OnISP {
					g.SetOnISP(id, true)
				}
			}
			for _, e := range sd.Edges {
				if e.From < 0 || e.From >= g.Len() || e.To < 0 || e.To >= g.Len() {
					return nil, nil, fmt.Errorf("workload: %s: edge %d->%d out of range", name, e.From, e.To)
				}
				g.AddEdge(graph.SubtaskID(e.From), graph.SubtaskID(e.To))
			}
			if err := g.Validate(); err != nil {
				return nil, nil, fmt.Errorf("workload: %w", err)
			}
			scenarios = append(scenarios, g)
		}
		tasks = append(tasks, tcm.NewTask(td.Name, scenarios...))
		weights = append(weights, td.ScenarioWeights)
	}
	return tasks, weights, nil
}

// ExportMix serializes tasks (with optional per-task scenario weights)
// into the JSON schema, so the built-in workloads can be dumped,
// edited, and re-imported.
func ExportMix(name string, tasks []*tcm.Task, weights [][]float64) ([]byte, error) {
	doc := DocOf(name, tasks, weights)
	return json.MarshalIndent(doc, "", "  ")
}

// DocOf builds the JSON document for tasks without marshalling it, so
// callers can attach the optional platform and sim blocks before
// encoding (the drhwd wire format and the drhwload corpus do).
func DocOf(name string, tasks []*tcm.Task, weights [][]float64) MixDoc {
	doc := MixDoc{Name: name}
	for ti, task := range tasks {
		td := TaskDoc{Name: task.Name}
		if weights != nil && ti < len(weights) {
			td.ScenarioWeights = weights[ti]
		}
		for _, g := range task.Scenarios {
			sd := ScenarioDoc{Name: g.Name}
			for _, st := range g.Subtasks() {
				sd.Subtasks = append(sd.Subtasks, SubtaskDoc{
					Name:   st.Name,
					ExecMS: st.Exec.Milliseconds(),
					Config: string(st.Config),
					LoadMS: st.Load.Milliseconds(),
					OnISP:  st.OnISP,
				})
			}
			for _, e := range g.Edges() {
				sd.Edges = append(sd.Edges, EdgeDoc{From: int(e.From), To: int(e.To)})
			}
			td.Scenarios = append(td.Scenarios, sd)
		}
		doc.Tasks = append(doc.Tasks, td)
	}
	return doc
}

// RunSpec is a fully-decoded run: the task mix plus the platform and
// simulation options the document pinned (or their defaults).
type RunSpec struct {
	Name     string
	Mix      []sim.TaskMix
	Platform platform.Platform
	Options  sim.Options
}

// Subtasks counts the subtask definitions across the spec's scenario
// graphs — the document "size" that services bound for admission
// control.
func (rs *RunSpec) Subtasks() int {
	n := 0
	for _, m := range rs.Mix {
		for _, g := range m.Task.Scenarios {
			n += g.Len()
		}
	}
	return n
}

// ParseRun decodes a complete run from one document: the task mix (as
// ParseMix) plus the optional platform and sim blocks. An absent
// platform block defaults to the paper's 8-tile platform; an absent sim
// block to the hybrid approach with the package defaults.
func ParseRun(data []byte) (*RunSpec, error) {
	var doc MixDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("workload: parsing run: %w", err)
	}
	tasks, weights, err := doc.Mix()
	if err != nil {
		return nil, err
	}
	spec := &RunSpec{Name: doc.Name}
	for i, task := range tasks {
		spec.Mix = append(spec.Mix, sim.TaskMix{Task: task, ScenarioWeights: weights[i]})
	}
	spec.Platform, err = doc.Platform.Resolve()
	if err != nil {
		return nil, err
	}
	spec.Options, err = doc.Sim.Resolve()
	if err != nil {
		return nil, err
	}
	return spec, nil
}

// Resolve materializes the platform block (nil: the paper's 8-tile
// default) and validates it.
func (pd *PlatformDoc) Resolve() (platform.Platform, error) {
	p := platform.Default(8)
	if pd != nil {
		if pd.Tiles < 0 {
			return p, fmt.Errorf("workload: platform block: negative tile count %d", pd.Tiles)
		}
		if pd.Tiles > 0 {
			p = platform.Default(pd.Tiles)
		}
		if pd.LoadMS > 0 {
			p.ReconfigLatency = model.MS(pd.LoadMS)
		}
		if pd.Ports > 0 {
			p.Ports = pd.Ports
		}
		p.ISPs = pd.ISPs
	}
	if err := p.Validate(); err != nil {
		return p, fmt.Errorf("workload: platform block: %w", err)
	}
	return p, nil
}

// Resolve materializes the sim block (nil: hybrid under the sim package
// defaults).
func (sd *SimDoc) Resolve() (sim.Options, error) {
	opt := sim.Options{Approach: sim.Hybrid}
	if sd == nil {
		return opt, nil
	}
	var err error
	if opt.Approach, err = ParseApproach(sd.Approach); err != nil {
		return opt, err
	}
	if opt.Policy, err = ParsePolicy(sd.Policy); err != nil {
		return opt, err
	}
	opt.Iterations = sd.Iterations
	opt.Seed = sd.Seed
	opt.Parallelism = sd.Parallelism
	opt.InclusionProb = sd.InclusionProb
	opt.SchedulerCost = sd.SchedulerCost
	opt.DisableInterTask = sd.NoInterTask
	opt.Deadline = model.MS(sd.DeadlineMS)
	if opt.Arrivals, err = sd.Arrivals.Resolve(sd.InclusionProb); err != nil {
		return opt, err
	}
	if opt.Multitask, err = sd.Multitask.Resolve(); err != nil {
		return opt, err
	}
	if sd.Trace != nil && sd.Trace.Enabled {
		if sd.Trace.Capacity < 0 {
			return opt, fmt.Errorf("workload: trace block: negative capacity %d", sd.Trace.Capacity)
		}
		opt.Trace = obs.NewRecorder(sd.Trace.Capacity)
	}
	return opt, nil
}

// ParseApproach maps the wire name of a scheduling approach ("" means
// hybrid). It accepts the sim.Approach String() names plus the
// "design-time" shorthand the CLI uses.
func ParseApproach(name string) (sim.Approach, error) {
	switch name {
	case "", "hybrid":
		return sim.Hybrid, nil
	case "no-prefetch":
		return sim.NoPrefetch, nil
	case "design-time", "design-time-prefetch":
		return sim.DesignTimePrefetch, nil
	case "run-time":
		return sim.RunTime, nil
	case "run-time+inter-task":
		return sim.RunTimeInterTask, nil
	}
	return 0, fmt.Errorf("workload: unknown approach %q (%s)", name, Usage(Approaches()))
}

// ParsePolicy maps the wire name of a replacement policy ("" means
// LRU). The random policy's draws come from the kernel's per-iteration
// policy streams of the run seed.
func ParsePolicy(name string) (reconfig.Policy, error) {
	switch name {
	case "", "lru":
		return reconfig.LRU{}, nil
	case "fifo":
		return reconfig.FIFO{}, nil
	case "belady":
		return reconfig.Belady{}, nil
	case "random":
		return reconfig.Random{}, nil
	}
	return nil, fmt.Errorf("workload: unknown policy %q (%s)", name, Usage(Policies()))
}

// ParseMultitask maps the wire form of the fabric admission mode ("" or
// "serial" means the paper's one-instance-at-a-time model). partitions
// is the fixed block count of partition mode (0 keeps the sim default
// of 2). Range validation against the platform's tile count happens
// when the simulation starts.
func ParseMultitask(mode string, partitions int) (sim.Multitask, error) {
	switch mode {
	case "", "serial", "partition", "greedy":
		return sim.Multitask{Mode: mode, Partitions: partitions}, nil
	}
	return sim.Multitask{}, fmt.Errorf("workload: unknown multitask mode %q (%s)", mode, Usage(MultitaskModes()))
}
