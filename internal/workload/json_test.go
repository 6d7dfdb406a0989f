package workload

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/sim"
)

const sampleMix = `{
  "name": "custom",
  "tasks": [{
    "name": "pipeline",
    "scenario_weights": [0.75, 0.25],
    "scenarios": [
      {
        "subtasks": [
          {"name": "a", "exec_ms": 10},
          {"name": "b", "exec_ms": 5.5, "config": "shared/b", "load_ms": 2},
          {"name": "c", "exec_ms": 1, "on_isp": true}
        ],
        "edges": [{"from": 0, "to": 1, "bytes": 128}, {"from": 1, "to": 2}]
      },
      {
        "subtasks": [
          {"name": "a", "exec_ms": 20},
          {"name": "b", "exec_ms": 11, "config": "shared/b"},
          {"name": "c", "exec_ms": 2, "on_isp": true}
        ],
        "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 2}]
      }
    ]
  }]
}`

func TestParseMix(t *testing.T) {
	tasks, weights, err := ParseMix([]byte(sampleMix))
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || len(tasks[0].Scenarios) != 2 {
		t.Fatalf("tasks=%d scenarios=%d", len(tasks), len(tasks[0].Scenarios))
	}
	if weights[0][0] != 0.75 {
		t.Fatalf("weights = %v", weights)
	}
	g := tasks[0].Scenarios[0]
	if g.Subtask(0).Exec != 10*model.Millisecond {
		t.Fatalf("exec = %v", g.Subtask(0).Exec)
	}
	if g.Subtask(1).Config != "shared/b" || g.Subtask(1).Load != model.MS(2) {
		t.Fatalf("subtask b = %+v", g.Subtask(1))
	}
	if !g.Subtask(2).OnISP {
		t.Fatal("on_isp lost")
	}
	// Default configs are shared per (task, subtask-name) slot, so the
	// two scenarios' "a" subtasks reuse each other's bitstream.
	if tasks[0].Scenarios[0].Subtask(0).Config != tasks[0].Scenarios[1].Subtask(0).Config {
		t.Fatal("default config sharing across scenarios broken")
	}
	if len(g.Edges()) != 2 || g.Edges()[0] != (graph.Edge{From: 0, To: 1}) {
		t.Fatalf("edges = %v", g.Edges())
	}
}

// TestEdgePayloadIgnored: documents written when edges carried a
// "bytes" payload still parse, and analyze exactly as the same
// documents without it (the key is an unknown field now).
func TestEdgePayloadIgnored(t *testing.T) {
	withRun := `{"tasks":[{"name":"p","scenarios":[{"subtasks":[{"name":"a","exec_ms":10,"config":"c/a"},
	    {"name":"b","exec_ms":12},{"name":"c","exec_ms":12,"on_isp":true}],
	    "edges":[{"from":0,"to":1,"bytes":64},{"from":1,"to":2}]}]}]}`
	for name, with := range map[string]string{"mix": sampleMix, "run": withRun} {
		without := strings.NewReplacer(`, "bytes": 128`, "", `,"bytes":64`, "").Replace(with)
		if without == with {
			t.Fatalf("%s: document carries no payload", name)
		}
		a, err := ParseRun([]byte(with))
		if err != nil {
			t.Fatalf("%s with payload: %v", name, err)
		}
		b, err := ParseRun([]byte(without))
		if err != nil {
			t.Fatalf("%s without payload: %v", name, err)
		}
		p := platform.Default(4)
		p.ISPs = 1
		for ti := range a.Mix {
			for si, ga := range a.Mix[ti].Task.Scenarios {
				gb := b.Mix[ti].Task.Scenarios[si]
				sa, err := assign.List(ga, p, assign.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sb, err := assign.List(gb, p, assign.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if engine.Fingerprint(sa, p, core.Options{}) != engine.Fingerprint(sb, p, core.Options{}) {
					t.Fatalf("%s scenario %d: the payload changed the analysis key", name, si)
				}
				aa, err := core.Analyze(sa, p, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ab, err := core.Analyze(sb, p, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(aa.CS, ab.CS) || !slices.Equal(aa.BodyOrder, ab.BodyOrder) || aa.Iterations != ab.Iterations {
					t.Fatalf("%s scenario %d: analysis %v/%v/%d with payload, %v/%v/%d without", name, si,
						aa.CS, aa.BodyOrder, aa.Iterations, ab.CS, ab.BodyOrder, ab.Iterations)
				}
			}
		}
	}
}

func TestParseMixErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":       `{`,
		"no tasks":       `{"name":"x","tasks":[]}`,
		"no scenarios":   `{"tasks":[{"name":"t","scenarios":[]}]}`,
		"weight count":   `{"tasks":[{"name":"t","scenario_weights":[1],"scenarios":[{"subtasks":[{"name":"a","exec_ms":1}]},{"subtasks":[{"name":"a","exec_ms":1}]}]}]}`,
		"zero exec":      `{"tasks":[{"name":"t","scenarios":[{"subtasks":[{"name":"a","exec_ms":0}]}]}]}`,
		"edge range":     `{"tasks":[{"name":"t","scenarios":[{"subtasks":[{"name":"a","exec_ms":1}],"edges":[{"from":0,"to":9}]}]}]}`,
		"cyclic":         `{"tasks":[{"name":"t","scenarios":[{"subtasks":[{"name":"a","exec_ms":1},{"name":"b","exec_ms":1}],"edges":[{"from":0,"to":1},{"from":1,"to":0}]}]}]}`,
		"duplicate edge": `{"tasks":[{"name":"t","scenarios":[{"subtasks":[{"name":"a","exec_ms":1},{"name":"b","exec_ms":1}],"edges":[{"from":0,"to":1},{"from":0,"to":1}]}]}]}`,
	}
	for name, doc := range cases {
		if _, _, err := ParseMix([]byte(doc)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	apps := Multimedia()
	ts := MultimediaTasks()
	var weights [][]float64
	for _, a := range apps {
		weights = append(weights, a.ScenarioWeights)
	}
	data, err := ExportMix("multimedia", ts, weights)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "mpeg/motion-est") {
		t.Fatal("export lost configurations")
	}
	back, backWeights, err := ParseMix(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ts) {
		t.Fatalf("tasks = %d", len(back))
	}
	for ti := range ts {
		if len(back[ti].Scenarios) != len(ts[ti].Scenarios) {
			t.Fatalf("task %d scenario count mismatch", ti)
		}
		for si := range ts[ti].Scenarios {
			a, b := ts[ti].Scenarios[si], back[ti].Scenarios[si]
			if a.Len() != b.Len() || len(a.Edges()) != len(b.Edges()) {
				t.Fatalf("scenario %d/%d structure mismatch", ti, si)
			}
			for i := 0; i < a.Len(); i++ {
				sa, sb := a.Subtask(graph.SubtaskID(i)), b.Subtask(graph.SubtaskID(i))
				if sa.Exec != sb.Exec || sa.Config != sb.Config || sa.OnISP != sb.OnISP {
					t.Fatalf("subtask %d mismatch: %+v vs %+v", i, sa, sb)
				}
			}
		}
	}
	if backWeights[3] == nil {
		t.Fatal("MPEG weights lost in round trip")
	}
}

// TestParseRunDefaults: a document without platform/sim blocks (the
// pre-extension schema) resolves to the paper's defaults, so old
// documents keep meaning what they meant.
func TestParseRunDefaults(t *testing.T) {
	spec, err := ParseRun([]byte(sampleMix))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Platform.Tiles != 8 || spec.Platform.Ports != 1 ||
		spec.Platform.ReconfigLatency != 4*model.Millisecond {
		t.Fatalf("platform = %+v", spec.Platform)
	}
	if spec.Options.Approach != sim.Hybrid || spec.Options.Iterations != 0 {
		t.Fatalf("options = %+v", spec.Options)
	}
	if len(spec.Mix) != 1 || spec.Mix[0].ScenarioWeights[0] != 0.75 {
		t.Fatalf("mix = %+v", spec.Mix)
	}
	if n := spec.Subtasks(); n != 6 {
		t.Fatalf("Subtasks() = %d", n)
	}
}

// TestRunDocGoldenRoundTrip is the golden test of the extended schema:
// a document built with DocOf plus platform and sim blocks survives
// marshal → ParseRun with every knob intact, and ParseMix still decodes
// the same document (the blocks are invisible to it).
func TestRunDocGoldenRoundTrip(t *testing.T) {
	apps := Multimedia()
	var weights [][]float64
	for _, a := range apps {
		weights = append(weights, a.ScenarioWeights)
	}
	doc := DocOf("multimedia", MultimediaTasks(), weights)
	doc.Platform = &PlatformDoc{Tiles: 12, LoadMS: 2.5, Ports: 2, ISPs: 1}
	doc.Sim = &SimDoc{
		Approach:      "run-time+inter-task",
		Iterations:    250,
		Seed:          42,
		Policy:        "belady",
		InclusionProb: 0.6,
		SchedulerCost: true,
		NoInterTask:   true,
		DeadlineMS:    120,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	spec, err := ParseRun(data)
	if err != nil {
		t.Fatal(err)
	}
	p := spec.Platform
	if p.Tiles != 12 || p.ReconfigLatency != model.MS(2.5) || p.Ports != 2 || p.ISPs != 1 {
		t.Fatalf("platform = %+v", p)
	}
	o := spec.Options
	if o.Approach != sim.RunTimeInterTask || o.Iterations != 250 || o.Seed != 42 {
		t.Fatalf("options = %+v", o)
	}
	if _, ok := o.Policy.(reconfig.Belady); !ok {
		t.Fatalf("policy = %T", o.Policy)
	}
	if o.InclusionProb != 0.6 || !o.SchedulerCost || !o.DisableInterTask || o.Deadline != model.MS(120) {
		t.Fatalf("options = %+v", o)
	}
	if len(spec.Mix) != len(apps) {
		t.Fatalf("mix = %d tasks", len(spec.Mix))
	}
	// The blocks are invisible to the mix-only parser.
	tasks, w, err := ParseMix(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != len(apps) || w[3] == nil {
		t.Fatalf("ParseMix on extended doc: %d tasks", len(tasks))
	}
}

func TestParseRunErrors(t *testing.T) {
	cases := map[string]string{
		"bad approach":   `{"tasks":[{"scenarios":[{"subtasks":[{"name":"a","exec_ms":1}]}]}],"sim":{"approach":"psychic"}}`,
		"bad policy":     `{"tasks":[{"scenarios":[{"subtasks":[{"name":"a","exec_ms":1}]}]}],"sim":{"policy":"crystal"}}`,
		"bad multitask":  `{"tasks":[{"scenarios":[{"subtasks":[{"name":"a","exec_ms":1}]}]}],"sim":{"multitask":{"mode":"anarchy"}}}`,
		"negative tiles": `{"tasks":[{"scenarios":[{"subtasks":[{"name":"a","exec_ms":1}]}]}],"platform":{"tiles":-3}}`,
		"empty mix":      `{"tasks":[],"platform":{"tiles":4}}`,
	}
	for name, doc := range cases {
		if _, err := ParseRun([]byte(doc)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestParseRunMultitaskBlock(t *testing.T) {
	withSim := func(block string) string {
		doc := strings.TrimSuffix(strings.TrimSpace(sampleMix), "}")
		return doc + `, "platform": {"tiles": 16, "isps": 1}, "sim": ` + block + `}`
	}

	spec, err := ParseRun([]byte(withSim(`{"multitask": {"mode": "partition", "partitions": 4}}`)))
	if err != nil {
		t.Fatal(err)
	}
	if want := (sim.Multitask{Mode: "partition", Partitions: 4}); spec.Options.Multitask != want {
		t.Fatalf("multitask block = %+v, want %+v", spec.Options.Multitask, want)
	}

	// Absent block keeps the serial default; partitions default to the
	// sim layer's 2 at run start, not at parse time.
	spec, err = ParseRun([]byte(withSim(`{"approach": "run-time"}`)))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Options.Multitask != (sim.Multitask{}) {
		t.Fatalf("absent multitask block resolved to %+v", spec.Options.Multitask)
	}

	// A document pinning a multitask mode runs end to end.
	spec, err = ParseRun([]byte(withSim(`{"approach": "run-time", "iterations": 5, "multitask": {"mode": "greedy"}}`)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(spec.Mix, spec.Platform, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	if r.MultitaskMode != "greedy" {
		t.Fatalf("run executed under %q, want greedy", r.MultitaskMode)
	}
}

func TestParseRunArrivalsBlock(t *testing.T) {
	withArrivals := func(block string) string {
		doc := strings.TrimSuffix(strings.TrimSpace(sampleMix), "}")
		return doc + `, "sim": {"inclusion_prob": 0.6, "arrivals": ` + block + `}}`
	}

	spec, err := ParseRun([]byte(withArrivals(`{"process": "bernoulli"}`)))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := spec.Options.Arrivals.(sim.Bernoulli)
	if !ok {
		t.Fatalf("arrivals = %T, want sim.Bernoulli", spec.Options.Arrivals)
	}
	if b.P != 0.6 {
		t.Fatalf("bernoulli without p should inherit inclusion_prob: P = %v", b.P)
	}

	spec, err = ParseRun([]byte(withArrivals(
		`{"process": "onoff", "p_on": 0.9, "p_off": 0.2, "on_to_off": 0.05, "off_to_on": 0.3, "start_off": true}`)))
	if err != nil {
		t.Fatal(err)
	}
	oo, ok := spec.Options.Arrivals.(sim.OnOff)
	if !ok {
		t.Fatalf("arrivals = %T, want sim.OnOff", spec.Options.Arrivals)
	}
	if oo.POn != 0.9 || oo.POff != 0.2 || oo.OnToOff != 0.05 || oo.OffToOn != 0.3 || !oo.StartOff {
		t.Fatalf("onoff block = %+v", oo)
	}

	// Absent fields keep the tuned defaults; an explicit 0 is literal
	// (the pointer wire fields make the two distinguishable).
	spec, err = ParseRun([]byte(withArrivals(`{"process": "onoff", "off_to_on": 0}`)))
	if err != nil {
		t.Fatal(err)
	}
	oo = spec.Options.Arrivals.(sim.OnOff)
	if oo.OffToOn != 0 {
		t.Fatalf("explicit off_to_on 0 resolved to %v", oo.OffToOn)
	}
	if oo.POn != sim.DefaultOnOff.POn || oo.OnToOff != sim.DefaultOnOff.OnToOff {
		t.Fatalf("absent fields lost the defaults: %+v", oo)
	}

	spec, err = ParseRun([]byte(withArrivals(`{"process": "trace", "trace": [[0], [], [0, 0]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := spec.Options.Arrivals.(sim.Trace)
	if !ok {
		t.Fatalf("arrivals = %T, want sim.Trace", spec.Options.Arrivals)
	}
	if len(tr.Iterations) != 3 || len(tr.Iterations[2]) != 2 {
		t.Fatalf("trace block = %+v", tr)
	}

	for _, bad := range []string{
		`{"process": "psychic"}`,
		`{"process": "trace"}`,
		`{"process": "bernoulli", "p": 0}`,
	} {
		if _, err := ParseRun([]byte(withArrivals(bad))); err == nil {
			t.Fatalf("arrivals block %s silently accepted", bad)
		}
	}

	// Documents without the block keep the nil default.
	spec, err = ParseRun([]byte(sampleMix))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Options.Arrivals != nil {
		t.Fatalf("absent block resolved to %T", spec.Options.Arrivals)
	}
}
