package drhwsched_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	drhw "drhwsched"
)

// TestFacadeEndToEnd drives the whole public API surface the way a
// downstream user would: graph construction, initial scheduling,
// baseline prefetch schedulers, the hybrid analysis and run-time phase,
// reuse state, TCM design space, and a short simulation.
func TestFacadeEndToEnd(t *testing.T) {
	g := drhw.NewGraph("pipeline")
	var ids []drhw.SubtaskID
	for i := 0; i < 4; i++ {
		ids = append(ids, g.AddSubtask("s", 10*drhw.Millisecond))
		if i > 0 {
			g.AddEdge(ids[i-1], ids[i])
		}
	}

	p := drhw.DefaultPlatform(3)
	s, err := drhw.ListSchedule(g, p, drhw.ScheduleOptions{Placement: drhw.PlaceSpread})
	if err != nil {
		t.Fatal(err)
	}
	if s.IdealMakespan != 40*drhw.Millisecond {
		t.Fatalf("ideal = %v", s.IdealMakespan)
	}

	od, err := (drhw.OnDemand{}).Schedule(s, p, s.AllLoads(), drhw.PrefetchBounds{})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := (drhw.ListPrefetch{}).Schedule(s, p, s.AllLoads(), drhw.PrefetchBounds{})
	if err != nil {
		t.Fatal(err)
	}
	bb, err := (drhw.BranchBound{}).Schedule(s, p, s.AllLoads(), drhw.PrefetchBounds{})
	if err != nil {
		t.Fatal(err)
	}
	if !(bb.Overhead <= lp.Overhead && lp.Overhead <= od.Overhead) {
		t.Fatalf("hierarchy: bb=%v lp=%v od=%v", bb.Overhead, lp.Overhead, od.Overhead)
	}

	a, err := drhw.Analyze(s, p, drhw.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := a.Execute(drhw.RunBounds{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Overhead != 4*drhw.Millisecond {
		t.Fatalf("cold overhead = %v", run.Overhead)
	}

	st := drhw.NewTileState(p.Tiles)
	m, err := drhw.MapTiles(s, st, drhw.MapTileOptions{Critical: a.IsCritical, Policy: drhw.LRU{}})
	if err != nil {
		t.Fatal(err)
	}
	if res := drhw.Resident(s, st, m); slices.Contains(res, true) {
		t.Fatalf("cold state claims residency: %v", res)
	}

	task := drhw.NewTask("app", g)
	ds, err := drhw.DesignTime([]*drhw.Task{task}, p, drhw.DTOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Curve(0, 0) == nil {
		t.Fatal("missing curve")
	}

	r, err := drhw.Simulate([]drhw.TaskMix{{Task: task}}, p, drhw.SimOptions{
		Approach: drhw.Hybrid, Iterations: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.OverheadPct < 0 {
		t.Fatalf("overhead = %v", r.OverheadPct)
	}
	if r.MultitaskMode != "serial" {
		t.Fatalf("default multitask mode = %q", r.MultitaskMode)
	}
	if drhw.MS(4).Milliseconds() != 4 {
		t.Fatal("MS conversion")
	}

	// Fabric layer: direct allocation plus a multitask simulation.
	fab := drhw.NewFabric(p, drhw.LRU{})
	var alloc drhw.FabricAllocation = drhw.SerialAllocation{}
	claim, ok := fab.Acquire(alloc, 2, nil, nil)
	if !ok || len(claim) != p.Tiles {
		t.Fatalf("serial fabric claim = %v (ok=%v)", claim, ok)
	}
	fab.Release(claim)
	if len(drhw.MultitaskModes()) != 3 {
		t.Fatalf("multitask modes: %v", drhw.MultitaskModes())
	}
	mr, err := drhw.Simulate([]drhw.TaskMix{{Task: task}}, p, drhw.SimOptions{
		Approach: drhw.Hybrid, Iterations: 10,
		Multitask: drhw.Multitask{Mode: "greedy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mr.MultitaskMode != "greedy" || mr.ResponseTime.P50 < 0 {
		t.Fatalf("greedy multitask run: %+v", mr)
	}
}

// TestFacadeTracing exercises the observability aliases: a traced run
// whose events summarize back to the result and export as valid
// Chrome trace JSON, plus the trace-context helpers.
func TestFacadeTracing(t *testing.T) {
	g := drhw.NewGraph("traced")
	var ids []drhw.SubtaskID
	for i := 0; i < 4; i++ {
		ids = append(ids, g.AddSubtask("s", 10*drhw.Millisecond))
		if i > 0 {
			g.AddEdge(ids[i-1], ids[i])
		}
	}
	p := drhw.DefaultPlatform(3)
	rec := drhw.NewTraceRecorder(0)
	r, err := drhw.Simulate([]drhw.TaskMix{{Task: drhw.NewTask("traced", g)}}, p, drhw.SimOptions{
		Approach: drhw.Hybrid, Iterations: 30, Seed: 7, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := drhw.SummarizeTrace(rec.Events())
	if sum.Loads != r.Loads || sum.PrefetchHits != r.PrefetchHits {
		t.Fatalf("trace summary %+v diverges from result (loads %d, hits %d)",
			sum, r.Loads, r.PrefetchHits)
	}
	var buf bytes.Buffer
	if err := drhw.ExportChromeTrace(&buf, rec.Events(), rec.Drops()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("exported Chrome trace is not valid JSON")
	}

	tp := drhw.NewTraceParent()
	back, err := drhw.ParseTraceParent(tp.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.TraceIDString() != tp.TraceIDString() {
		t.Fatalf("traceparent round trip: %s != %s", back.TraceIDString(), tp.TraceIDString())
	}
	if child := tp.Child(); child.TraceIDString() != tp.TraceIDString() ||
		child.SpanIDString() == tp.SpanIDString() {
		t.Fatalf("child span %s/%s must share the trace and differ in span",
			child.TraceIDString(), child.SpanIDString())
	}
}

// countingScheduler is a prefetch scheduler written against the facade
// alone: it counts its calls and delegates to the list heuristic.
type countingScheduler struct{ calls *int }

func (c countingScheduler) Name() string { return "counting" }

func (c countingScheduler) ScheduleScratch(s *drhw.Schedule, st *drhw.StaticSchedule, loads []drhw.SubtaskID, b drhw.PrefetchBounds, sc *drhw.PrefetchScratch) (*drhw.PrefetchResult, error) {
	*c.calls++
	return drhw.ListPrefetch{}.ScheduleScratch(s, st, loads, b, sc)
}

// TestFacadeCustomScheduler plugs a scheduler implemented outside the
// module's internal packages into Analyze and checks that it drives
// every CS-selection round to the list heuristic's own analysis.
func TestFacadeCustomScheduler(t *testing.T) {
	g := drhw.NewGraph("fork")
	a := g.AddSubtask("a", 2*drhw.Millisecond)
	for i := 0; i < 3; i++ {
		g.AddEdge(a, g.AddSubtask("b", 3*drhw.Millisecond))
	}
	p := drhw.DefaultPlatform(4)
	s, err := drhw.ListSchedule(g, p, drhw.ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	got, err := drhw.Analyze(s, p, drhw.AnalyzeOptions{Scheduler: countingScheduler{&calls}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := drhw.Analyze(s, p, drhw.AnalyzeOptions{Scheduler: drhw.ListPrefetch{}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != got.Iterations+1 {
		t.Fatalf("scheduler called %d times over %d rounds", calls, got.Iterations+1)
	}
	if !slices.Equal(got.CS, want.CS) || !slices.Equal(got.BodyOrder, want.BodyOrder) {
		t.Fatalf("custom scheduler analysis CS %v body %v, list CS %v body %v", got.CS, got.BodyOrder, want.CS, want.BodyOrder)
	}
}
