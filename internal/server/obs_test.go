// Observability tests: the /metrics exposition (a byte-exact golden
// under an injected clock, plus the strict line-format validator), the
// /v1/simulate?trace=events stream, and the W3C trace-context handling
// of the middleware.
package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/model"
	"drhwsched/internal/obs"
	"drhwsched/internal/peerstore"
	"drhwsched/internal/sim"
)

// tracedDoc is smallDoc with event tracing enabled in the sim block.
const tracedDoc = `{
  "name": "pipe",
  "platform": {"tiles": 4},
  "sim": {"approach": "hybrid", "iterations": 10, "seed": 3,
          "trace": {"enabled": true}},
  "tasks": [{
    "name": "pipe",
    "scenarios": [{
      "subtasks": [
        {"name": "a", "exec_ms": 10},
        {"name": "b", "exec_ms": 12},
        {"name": "c", "exec_ms": 8}
      ],
      "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 2}]
    }]
  }]
}`

// TestMetricsGolden pins the exposition byte for byte: a fixed clock,
// fixed observations, and a fixed-size engine must render exactly this
// document — and the document must satisfy the strict validator.
func TestMetricsGolden(t *testing.T) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	m := newMetrics()
	m.started = t0
	m.now = func() time.Time { return t0.Add(90 * time.Second) }

	// Durations are exact binary fractions so the float sums render
	// without noise digits.
	m.observe("analyze", 200, 250*time.Millisecond)
	m.observe("analyze", 400, 250*time.Millisecond)
	m.observe("simulate", 200, 2500*time.Millisecond)
	m.observeSim(&sim.Result{
		PrefetchHits: 7, DemandMisses: 3, Loads: 10, SavedLoads: 4,
		PeakQueued: 2, ISPBusy: []model.Dur{model.Dur(1500000)},
	})
	// One sharded and one more sequential run pin the execution-split
	// families.
	m.observeSim(&sim.Result{Execution: "sharded", Workers: 2})
	m.observeSim(&sim.Result{Execution: "sequential"})
	m.observeTraceDrops(5)

	// A tiered store with deterministic traffic (one Put + local hit,
	// one compute fall-through, no peers) pins the tier families too.
	ps := peerstore.New(peerstore.Config{CacheSize: 4})
	ps.Put("k", &core.Analysis{})
	ps.Get("k")
	ps.Get("absent")

	var sb strings.Builder
	m.render(&sb, engine.New(engine.Config{Workers: 2, Store: ps}), 0)
	got := sb.String()

	want := `# TYPE drhwd_uptime_seconds gauge
drhwd_uptime_seconds 90
# TYPE drhwd_inflight_requests gauge
drhwd_inflight_requests 0
# TYPE drhwd_requests_total counter
drhwd_requests_total{endpoint="analyze",code="200"} 1
drhwd_requests_total{endpoint="analyze",code="400"} 1
drhwd_requests_total{endpoint="simulate",code="200"} 1
# TYPE drhwd_request_duration_seconds histogram
drhwd_request_duration_seconds_bucket{endpoint="analyze",le="0.001"} 0
drhwd_request_duration_seconds_bucket{endpoint="analyze",le="0.005"} 0
drhwd_request_duration_seconds_bucket{endpoint="analyze",le="0.01"} 0
drhwd_request_duration_seconds_bucket{endpoint="analyze",le="0.025"} 0
drhwd_request_duration_seconds_bucket{endpoint="analyze",le="0.05"} 0
drhwd_request_duration_seconds_bucket{endpoint="analyze",le="0.1"} 0
drhwd_request_duration_seconds_bucket{endpoint="analyze",le="0.25"} 2
drhwd_request_duration_seconds_bucket{endpoint="analyze",le="0.5"} 2
drhwd_request_duration_seconds_bucket{endpoint="analyze",le="1"} 2
drhwd_request_duration_seconds_bucket{endpoint="analyze",le="2.5"} 2
drhwd_request_duration_seconds_bucket{endpoint="analyze",le="5"} 2
drhwd_request_duration_seconds_bucket{endpoint="analyze",le="10"} 2
drhwd_request_duration_seconds_bucket{endpoint="analyze",le="+Inf"} 2
drhwd_request_duration_seconds_sum{endpoint="analyze"} 0.5
drhwd_request_duration_seconds_count{endpoint="analyze"} 2
drhwd_request_duration_seconds_bucket{endpoint="simulate",le="0.001"} 0
drhwd_request_duration_seconds_bucket{endpoint="simulate",le="0.005"} 0
drhwd_request_duration_seconds_bucket{endpoint="simulate",le="0.01"} 0
drhwd_request_duration_seconds_bucket{endpoint="simulate",le="0.025"} 0
drhwd_request_duration_seconds_bucket{endpoint="simulate",le="0.05"} 0
drhwd_request_duration_seconds_bucket{endpoint="simulate",le="0.1"} 0
drhwd_request_duration_seconds_bucket{endpoint="simulate",le="0.25"} 0
drhwd_request_duration_seconds_bucket{endpoint="simulate",le="0.5"} 0
drhwd_request_duration_seconds_bucket{endpoint="simulate",le="1"} 0
drhwd_request_duration_seconds_bucket{endpoint="simulate",le="2.5"} 1
drhwd_request_duration_seconds_bucket{endpoint="simulate",le="5"} 1
drhwd_request_duration_seconds_bucket{endpoint="simulate",le="10"} 1
drhwd_request_duration_seconds_bucket{endpoint="simulate",le="+Inf"} 1
drhwd_request_duration_seconds_sum{endpoint="simulate"} 2.5
drhwd_request_duration_seconds_count{endpoint="simulate"} 1
# TYPE drhwd_sim_runs_total counter
drhwd_sim_runs_total{execution="sequential"} 2
drhwd_sim_runs_total{execution="sharded"} 1
# TYPE drhwd_sim_prefetch_hits_total counter
drhwd_sim_prefetch_hits_total 7
# TYPE drhwd_sim_demand_misses_total counter
drhwd_sim_demand_misses_total 3
# TYPE drhwd_sim_reconfig_paid_total counter
drhwd_sim_reconfig_paid_total 10
# TYPE drhwd_sim_reconfig_avoided_total counter
drhwd_sim_reconfig_avoided_total 4
# TYPE drhwd_sim_peak_queued_instances gauge
drhwd_sim_peak_queued_instances 2
# TYPE drhwd_sim_isp_busy_seconds_total counter
drhwd_sim_isp_busy_seconds_total{isp="0"} 1.5
# TYPE drhwd_trace_dropped_events_total counter
drhwd_trace_dropped_events_total 5
# TYPE drhwd_engine_cache_hits_total counter
drhwd_engine_cache_hits_total 1
# TYPE drhwd_engine_cache_misses_total counter
drhwd_engine_cache_misses_total 1
# TYPE drhwd_engine_cache_evictions_total counter
drhwd_engine_cache_evictions_total 0
# TYPE drhwd_engine_cache_entries gauge
drhwd_engine_cache_entries 1
# TYPE drhwd_engine_workers gauge
drhwd_engine_workers 2
# TYPE drhwd_store_tier_hits_total counter
drhwd_store_tier_hits_total{tier="local"} 1
drhwd_store_tier_hits_total{tier="peer"} 0
drhwd_store_tier_hits_total{tier="compute"} 1
# TYPE drhwd_store_peer_errors_total counter
drhwd_store_peer_errors_total 0
# TYPE drhwd_store_artifacts_rejected_total counter
drhwd_store_artifacts_rejected_total 0
# TYPE drhwd_store_peer_fetch_seconds histogram
drhwd_store_peer_fetch_seconds_bucket{le="0.0005"} 0
drhwd_store_peer_fetch_seconds_bucket{le="0.001"} 0
drhwd_store_peer_fetch_seconds_bucket{le="0.0025"} 0
drhwd_store_peer_fetch_seconds_bucket{le="0.005"} 0
drhwd_store_peer_fetch_seconds_bucket{le="0.01"} 0
drhwd_store_peer_fetch_seconds_bucket{le="0.025"} 0
drhwd_store_peer_fetch_seconds_bucket{le="0.05"} 0
drhwd_store_peer_fetch_seconds_bucket{le="0.1"} 0
drhwd_store_peer_fetch_seconds_bucket{le="0.25"} 0
drhwd_store_peer_fetch_seconds_bucket{le="0.5"} 0
drhwd_store_peer_fetch_seconds_bucket{le="1"} 0
drhwd_store_peer_fetch_seconds_bucket{le="2.5"} 0
drhwd_store_peer_fetch_seconds_bucket{le="+Inf"} 0
drhwd_store_peer_fetch_seconds_sum 0
drhwd_store_peer_fetch_seconds_count 0
`
	if got != want {
		t.Fatalf("metrics exposition drifted from the golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if err := obs.ValidateExposition(got); err != nil {
		t.Fatalf("golden exposition fails the strict validator: %v", err)
	}
}

// TestMetricsEndpointValidates runs real traffic through the server
// and feeds the live exposition to the strict validator, asserting the
// new simulation families are present.
func TestMetricsEndpointValidates(t *testing.T) {
	ps := peerstore.New(peerstore.Config{CacheSize: 64})
	_, ts := newTestServer(t, Config{
		Engine:    engine.New(engine.Config{Workers: 2, Store: ps}),
		PeerStore: ps,
	})
	if resp, body := post(t, ts.URL+"/v1/simulate?trace=events", tracedDoc); resp.StatusCode != http.StatusOK {
		t.Fatalf("traced simulate status = %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text() + "\n")
	}
	body := sb.String()
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("live /metrics fails the strict validator: %v\n%s", err, body)
	}
	for _, want := range []string{
		"drhwd_sim_runs_total{execution=\"sequential\"} ",
		"drhwd_sim_runs_total{execution=\"sharded\"} ",
		"drhwd_sim_prefetch_hits_total ",
		"drhwd_sim_demand_misses_total ",
		"drhwd_sim_reconfig_paid_total ",
		"drhwd_sim_reconfig_avoided_total ",
		"drhwd_sim_peak_queued_instances ",
		"drhwd_trace_dropped_events_total 0",
		"drhwd_store_tier_hits_total{tier=\"local\"} ",
		"drhwd_store_tier_hits_total{tier=\"peer\"} ",
		"drhwd_store_tier_hits_total{tier=\"compute\"} ",
		"drhwd_store_peer_errors_total ",
		"drhwd_store_artifacts_rejected_total ",
		"drhwd_store_peer_fetch_seconds_count ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
	// The traced hybrid run must have attributed loads.
	if strings.Contains(body, "drhwd_sim_reconfig_paid_total 0\n") {
		t.Error("traced run recorded no paid reconfigurations")
	}
}

// TestFirstScrapeValidates: a fresh replica's very first /metrics is
// rendered before any request has been observed (the scrape itself is
// observed after it renders), and it must still pass the validator.
func TestFirstScrapeValidates(t *testing.T) {
	ps := peerstore.New(peerstore.Config{CacheSize: 4})
	_, ts := newTestServer(t, Config{
		Engine:    engine.New(engine.Config{Workers: 1, Store: ps}),
		PeerStore: ps,
	})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(string(body)); err != nil {
		t.Fatalf("first /metrics fails the strict validator: %v\n%s", err, body)
	}
}

// TestSimulateTraceEvents exercises the NDJSON event stream: every
// line before the trailer is one recorded event, the trailer carries
// done=true with the aggregate, and the event count matches.
func TestSimulateTraceEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/simulate?trace=events", tracedDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	if resp.Header.Get(obs.Header) == "" {
		t.Fatal("traced response carries no traceparent header")
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream too short: %d lines", len(lines))
	}
	var loads, prefetchAttr int
	for _, line := range lines[:len(lines)-1] {
		var ev obs.EventWire
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if ev.Kind == "load" {
			loads++
			prefetchAttr++
		}
	}
	var sum TraceSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("bad trailer %q: %v", lines[len(lines)-1], err)
	}
	if !sum.Done {
		t.Fatal("trailer not flagged done")
	}
	if sum.Events != len(lines)-1 {
		t.Fatalf("trailer reports %d events, stream carried %d", sum.Events, len(lines)-1)
	}
	if loads == 0 {
		t.Fatal("traced hybrid run emitted no reconfiguration events")
	}
	if sum.Loads != loads {
		t.Fatalf("event-stream loads %d != aggregate loads %d", loads, sum.Loads)
	}
	if sum.PrefetchHits+sum.DemandMisses != sum.Loads {
		t.Fatalf("attribution %d+%d != loads %d", sum.PrefetchHits, sum.DemandMisses, sum.Loads)
	}
}

// TestSimulateTraceParallel: tracing works at every parallelism — a
// sharded document streams its events on one timeline, and the
// trailer reports the sharded execution.
func TestSimulateTraceParallel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// 70 iterations span three 32-iteration replications.
	doc := strings.Replace(tracedDoc, `"iterations": 10, "seed": 3,`,
		`"iterations": 70, "seed": 3, "parallelism": 2,`, 1)
	resp, body := post(t, ts.URL+"/v1/simulate?trace=events", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var sum TraceSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("bad trailer %q: %v", lines[len(lines)-1], err)
	}
	if !sum.Done || sum.Execution != "sharded" || sum.Workers != 2 || sum.Iterations != 70 {
		t.Fatalf("trailer done=%v execution=%q workers=%d iterations=%d, want a done 70-iteration sharded run on 2 workers",
			sum.Done, sum.Execution, sum.Workers, sum.Iterations)
	}
	if sum.Events != len(lines)-1 || sum.Events == 0 {
		t.Fatalf("trailer reports %d events, stream carried %d", sum.Events, len(lines)-1)
	}
}

// TestSimulateTraceExclusiveWithStream: ?trace and ?stream are two
// different NDJSON protocols; combining them is a client error.
func TestSimulateTraceExclusiveWithStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts.URL+"/v1/simulate?trace=events&stream=iterations", tracedDoc)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/simulate?trace=spans", tracedDoc)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown trace mode status = %d, want 400", resp.StatusCode)
	}
}

// TestTraceparentAcceptedAndEchoed: a caller-supplied W3C trace
// context is honored (same trace ID back) and surfaced on /healthz; a
// missing or malformed one is replaced with a freshly minted context.
func TestTraceparentAcceptedAndEchoed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(obs.Header, parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(obs.Header); got != parent {
		t.Fatalf("traceparent echo = %q, want %q", got, parent)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("no request id header")
	}
	if st := resp.Header.Get("Server-Timing"); !strings.HasPrefix(st, "app;dur=") {
		t.Fatalf("server timing = %q", st)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("healthz trace id = %q", h.TraceID)
	}

	// Malformed: the server mints its own.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req2.Header.Set(obs.Header, "00-zzzz-1111-01")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	minted := resp2.Header.Get(obs.Header)
	if _, err := obs.ParseTraceParent(minted); err != nil {
		t.Fatalf("minted traceparent %q invalid: %v", minted, err)
	}
	if minted == "00-zzzz-1111-01" {
		t.Fatal("server echoed a malformed traceparent")
	}
}
