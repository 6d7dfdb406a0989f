package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// smallDoc is a three-subtask pipeline on four tiles — cheap enough
// that every test request completes in milliseconds.
const smallDoc = `{
  "name": "pipe",
  "platform": {"tiles": 4},
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

// simDoc pins the sim block so a /v1/simulate request is fully
// specified and fast.
const simDoc = `{
  "name": "pipe",
  "platform": {"tiles": 4},
  "sim": {"approach": "hybrid", "iterations": 50, "seed": 1},
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

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	return readAll(t, resp, err)
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	return readAll(t, resp, err)
}

// readAll drains a response into one newline-joined string.
func readAll(t *testing.T, resp *http.Response, err error) (*http.Response, string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	return resp, sb.String()
}

func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{ReplicaID: "r-test"})
	// Warm the cache so the healthz counters have something to show.
	if resp, body := post(t, ts.URL+"/v1/analyze", smallDoc); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Replica != "r-test" {
		t.Fatalf("healthz = %+v", h)
	}
	if st := s.Engine().CacheStats(); h.Cache.Misses != st.Misses {
		t.Fatalf("healthz cache misses = %d, engine reports %d", h.Cache.Misses, st.Misses)
	}
	if h.Cache.Misses == 0 {
		t.Fatal("healthz shows no cache traffic after an analyze")
	}
}

// TestReplicaIDDefault: an unset ReplicaID gets a generated identity,
// distinct across servers.
func TestReplicaIDDefault(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	if a.ReplicaID() == "" || a.ReplicaID() == b.ReplicaID() {
		t.Fatalf("replica ids %q / %q: want distinct non-empty", a.ReplicaID(), b.ReplicaID())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q", allow)
	}
}

func TestAnalyze(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/analyze", smallDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Tasks) != 1 || len(ar.Tasks[0].Scenarios) != 1 {
		t.Fatalf("shape = %+v", ar)
	}
	sc := ar.Tasks[0].Scenarios[0]
	if sc.Subtasks != 3 {
		t.Fatalf("subtasks = %d", sc.Subtasks)
	}
	// A chain on a cold platform always has at least one unhideable
	// first load.
	if len(sc.Critical) == 0 || sc.OverheadMS <= 0 {
		t.Fatalf("scenario = %+v", sc)
	}
	if len(sc.Critical)+len(sc.BodyOrder) != sc.Subtasks {
		t.Fatalf("schedule does not cover the graph: %+v", sc)
	}
	if st := s.Engine().CacheStats(); st.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1", st.Misses)
	}
}

func TestAnalyzeBadJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/analyze", `{"tasks": [`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "error") {
		t.Fatalf("no error envelope: %s", body)
	}
}

func TestAnalyzeInvalidGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cyclic := `{"tasks":[{"name":"t","scenarios":[{"subtasks":[{"name":"a","exec_ms":1},{"name":"b","exec_ms":1}],"edges":[{"from":0,"to":1},{"from":1,"to":0}]}]}]}`
	resp, body := post(t, ts.URL+"/v1/analyze", cyclic)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
}

// TestOversizePlatformRejected: a platform block beyond the per-count
// limit is a 400 before anything is sized by it (a billion tiles would
// otherwise allocate per tile in the assigner and the fabric).
func TestOversizePlatformRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, block := range []string{`"tiles": 1000000000`, `"tiles": 4, "ports": 1000000000`, `"tiles": 4, "isps": 1000000000`} {
		doc := strings.Replace(simDoc, `"tiles": 4`, block, 1)
		for _, path := range []string{"/v1/analyze", "/v1/simulate"} {
			resp, body := post(t, ts.URL+path, doc)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s with {%s}: status = %d, want 400 (%s)", path, block, resp.StatusCode, body)
			}
		}
	}
}

func TestAnalyzeOversizedDocument(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSubtasks: 2})
	resp, body := post(t, ts.URL+"/v1/analyze", smallDoc) // 3 subtasks
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 16})
	resp, body := post(t, ts.URL+"/v1/analyze", smallDoc)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
}

func TestSimulate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/simulate", simDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Approach != "hybrid" || sr.Iterations != 50 || sr.Tiles != 4 {
		t.Fatalf("result = %+v", sr)
	}
	if sr.Instances <= 0 || sr.IdealMS <= 0 {
		t.Fatalf("empty aggregate: %+v", sr)
	}
	if sr.CacheHits+sr.CacheMisses == 0 {
		t.Fatal("no per-run cache traffic reported")
	}
}

func TestSimulateReportsTailPercentiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/simulate", simDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.MakespanP50MS <= 0 {
		t.Fatalf("makespan P50 missing: %+v", sr)
	}
	if sr.MakespanP99MS < sr.MakespanP95MS || sr.MakespanP95MS < sr.MakespanP50MS {
		t.Fatalf("makespan percentiles inverted: p50 %v p95 %v p99 %v",
			sr.MakespanP50MS, sr.MakespanP95MS, sr.MakespanP99MS)
	}
	if sr.OverheadP99MS < sr.OverheadP50MS {
		t.Fatalf("overhead percentiles inverted: %+v", sr)
	}
}

// multitaskDoc runs two parallel-friendly tasks under partition
// admission on a 16-tile platform, so instances genuinely overlap.
const multitaskDoc = `{
  "name": "duo",
  "platform": {"tiles": 16},
  "sim": {"approach": "run-time", "iterations": 40, "seed": 1, "inclusion_prob": 1,
          "multitask": {"mode": "partition", "partitions": 2}},
  "tasks": [{
    "name": "left",
    "scenarios": [{
      "subtasks": [
        {"name": "a", "exec_ms": 10},
        {"name": "b", "exec_ms": 12},
        {"name": "c", "exec_ms": 8}
      ],
      "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 2}]
    }]
  }, {
    "name": "right",
    "scenarios": [{
      "subtasks": [
        {"name": "x", "exec_ms": 9},
        {"name": "y", "exec_ms": 11}
      ],
      "edges": [{"from": 0, "to": 1}]
    }]
  }]
}`

func TestSimulateMultitaskBlock(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/simulate", multitaskDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.MultitaskMode != "partition" || sr.Partitions != 2 {
		t.Fatalf("multitask wire fields = %q/%d, want partition/2", sr.MultitaskMode, sr.Partitions)
	}
	if sr.MaxInFlight < 2 {
		t.Fatalf("max_in_flight = %d, want >= 2 on a 2-partition fabric", sr.MaxInFlight)
	}
	if sr.ResponseP50MS <= 0 || sr.ResponseP99MS < sr.ResponseP50MS {
		t.Fatalf("response-time percentiles missing or inverted: %+v", sr)
	}
	if sr.QueueDelayP99MS < sr.QueueDelayP50MS {
		t.Fatalf("queue-delay percentiles inverted: %+v", sr)
	}

	// A plain document reports the serial default.
	resp, body = post(t, ts.URL+"/v1/simulate", simDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var plain SimulateResponse
	if err := json.Unmarshal([]byte(body), &plain); err != nil {
		t.Fatal(err)
	}
	if plain.MultitaskMode != "serial" || plain.MaxInFlight != 1 {
		t.Fatalf("serial default wire fields = %q/%d, want serial/1", plain.MultitaskMode, plain.MaxInFlight)
	}

	// Unknown modes are rejected before any simulation work.
	bad := strings.Replace(multitaskDoc, `"mode": "partition"`, `"mode": "anarchy"`, 1)
	resp, body = post(t, ts.URL+"/v1/simulate", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown multitask mode: status = %d: %s", resp.StatusCode, body)
	}
}

func TestSimulateMultitaskStreamReportsInFlight(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/simulate?stream=iterations", multitaskDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	overlapped := false
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var probe struct {
			Done        bool `json:"done"`
			MaxInFlight int  `json:"max_in_flight"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", line, err)
		}
		if !probe.Done && probe.MaxInFlight > 1 {
			overlapped = true
		}
	}
	if !overlapped {
		t.Fatal("no streamed iteration reported >1 instance in flight under partition admission")
	}
}

// TestSimulateParallelism: a workload that opts into sharded execution
// via "sim.parallelism" reports "execution": "sharded" and its worker
// count on the wire — under serial and partition admission alike — and
// a document that still carries the retired "lanes" key runs the
// in-order execute stage, like the same document without it.
func TestSimulateParallelism(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	sharded := strings.Replace(simDoc, `"seed": 1`, `"seed": 1, "parallelism": 2`, 1)
	resp, body := post(t, ts.URL+"/v1/simulate", sharded)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded run: status = %d: %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Execution != "sharded" {
		t.Fatalf("execution = %q, want sharded", sr.Execution)
	}
	if sr.Workers != 2 {
		t.Fatalf("workers = %d, want 2", sr.Workers)
	}
	if sr.Instances <= 0 || sr.MakespanP50MS <= 0 {
		t.Fatalf("sharded run reported empty aggregates: %+v", sr)
	}

	// The default path still reports itself as sequential.
	resp, body = post(t, ts.URL+"/v1/simulate", simDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default run: status = %d: %s", resp.StatusCode, body)
	}
	var plain SimulateResponse
	if err := json.Unmarshal([]byte(body), &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Execution != "sequential" {
		t.Fatalf("default execution = %q, want sequential", plain.Execution)
	}
	if plain.Workers != 0 {
		t.Fatalf("sequential run reported %d workers", plain.Workers)
	}

	// Partition admission shards like every other mode now, on the
	// plain and streaming paths alike.
	multiSharded := strings.Replace(multitaskDoc,
		`"multitask": {"mode": "partition", "partitions": 2}`,
		`"multitask": {"mode": "partition", "partitions": 2}, "parallelism": 2`, 1)
	for _, path := range []string{"/v1/simulate", "/v1/simulate?stream=iterations"} {
		resp, body = post(t, ts.URL+path, multiSharded)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s with partition+parallelism: status = %d, want 200: %s", path, resp.StatusCode, body)
		}
		// The plain endpoint indents its JSON; the stream does not.
		if !strings.Contains(strings.ReplaceAll(body, " ", ""), `"execution":"sharded"`) {
			t.Fatalf("%s with partition+parallelism did not report sharded execution: %s", path, body)
		}
	}

	// "lanes" is no longer part of the schema; like any unknown key it
	// is ignored, so the run matches the in-order partition run.
	laned := strings.Replace(multitaskDoc,
		`"multitask": {"mode": "partition", "partitions": 2}`,
		`"multitask": {"mode": "partition", "partitions": 2, "lanes": 2}`, 1)
	resp, body = post(t, ts.URL+"/v1/simulate", laned)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("document with lanes: status = %d: %s", resp.StatusCode, body)
	}
	_, want := post(t, ts.URL+"/v1/simulate", multitaskDoc)
	var got, ref SimulateResponse
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(want), &ref); err != nil {
		t.Fatal(err)
	}
	if got.ActualMS != ref.ActualMS || got.ResponseP99MS != ref.ResponseP99MS {
		t.Fatalf("document with lanes diverged from the in-order run: %+v vs %+v", got, ref)
	}
}

func TestSimulateStreamIterations(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/simulate?stream=iterations", "application/json",
		strings.NewReader(simDoc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var iterations []IterationWire
	var summary *SimulateSummary
	for sc.Scan() {
		line := sc.Text()
		if summary != nil {
			t.Fatalf("line after the summary: %s", line)
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", line, err)
		}
		if probe.Done {
			summary = &SimulateSummary{}
			if err := json.Unmarshal([]byte(line), summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var iw IterationWire
		if err := json.Unmarshal([]byte(line), &iw); err != nil {
			t.Fatal(err)
		}
		iterations = append(iterations, iw)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(iterations) != 50 {
		t.Fatalf("streamed %d iteration lines, want 50", len(iterations))
	}
	for i, iw := range iterations {
		if iw.Iteration != i {
			t.Fatalf("line %d carries iteration %d", i, iw.Iteration)
		}
		if iw.Instances <= 0 || iw.MakespanMS <= 0 {
			t.Fatalf("empty iteration record: %+v", iw)
		}
	}
	if summary == nil {
		t.Fatal("stream ended without a done=true summary line")
	}
	if summary.MakespanP50MS <= 0 || summary.MakespanP99MS < summary.MakespanP50MS {
		t.Fatalf("summary tail percentiles missing or inverted: p50 %v p99 %v",
			summary.MakespanP50MS, summary.MakespanP99MS)
	}
	if summary.OverheadP50MS < 0 || summary.OverheadP99MS < summary.OverheadP50MS {
		t.Fatalf("summary overhead percentiles inverted: %+v", summary)
	}
	if summary.Instances <= 0 {
		t.Fatalf("summary aggregate empty: %+v", summary)
	}
}

func TestSimulateStreamUnknownMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/simulate?stream=bogus", simDoc)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
}

func TestSimulateStreamRejectsInvalidRunBeforeHeaders(t *testing.T) {
	// Kernel-level validation failures (here: a trace referencing a
	// task the mix does not have) must become a 400, not a 200 with an
	// empty body — once the NDJSON header is committed, errors can only
	// surface as a missing summary line.
	_, ts := newTestServer(t, Config{})
	doc := strings.Replace(simDoc, `"seed": 1`,
		`"seed": 1, "arrivals": {"process": "trace", "trace": [[7]]}`, 1)
	resp, body := post(t, ts.URL+"/v1/simulate?stream=iterations", doc)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "trace") {
		t.Fatalf("error body does not name the problem: %s", body)
	}
}

// arrivalsDoc pins a bursty on-off arrival block.
const arrivalsDoc = `{
  "name": "pipe",
  "platform": {"tiles": 4},
  "sim": {"approach": "hybrid", "iterations": 50, "seed": 1,
          "arrivals": {"process": "onoff", "p_on": 0.95, "p_off": 0.1}},
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

func TestSimulateArrivalsBlock(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/simulate", arrivalsDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var onoff SimulateResponse
	if err := json.Unmarshal([]byte(body), &onoff); err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts.URL+"/v1/simulate", simDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var bern SimulateResponse
	if err := json.Unmarshal([]byte(body), &bern); err != nil {
		t.Fatal(err)
	}
	// Same seed, different arrival process: the instance counts must
	// diverge (on-off idles in off phases; bernoulli never idles).
	if onoff.Instances == bern.Instances {
		t.Fatalf("arrivals block ignored: both processes ran %d instances", onoff.Instances)
	}
	doc := strings.Replace(arrivalsDoc, `"onoff"`, `"psychic"`, 1)
	resp, body = post(t, ts.URL+"/v1/simulate", doc)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown process: status = %d: %s", resp.StatusCode, body)
	}
}

func TestSimulateUnknownApproach(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := strings.Replace(simDoc, `"hybrid"`, `"psychic"`, 1)
	resp, body := post(t, ts.URL+"/v1/simulate", doc)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
}

func sweepBody(values string, approaches string) string {
	return fmt.Sprintf(`{"workload": %s, "param": "tiles", "values": %s, "approaches": %s}`,
		simDoc, values, approaches)
}

func TestSweepStreamsNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(sweepBody(`[3, 4]`, `["hybrid", "run-time"]`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var cells []SweepCell
	var summary *SweepSummary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var sum SweepSummary
		if err := json.Unmarshal(line, &sum); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if sum.Done {
			summary = &sum
			continue
		}
		var cell SweepCell
		if err := json.Unmarshal(line, &cell); err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell)
	}
	if summary == nil {
		t.Fatal("stream ended without a summary line")
	}
	if len(cells) != 4 || summary.Cells != 4 || summary.Delivered != 4 || summary.Errors != 0 {
		t.Fatalf("cells = %d, summary = %+v", len(cells), summary)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if c.Error != "" {
			t.Fatalf("cell error: %+v", c)
		}
		seen[fmt.Sprintf("%d/%s", c.X, c.Line)] = true
	}
	for _, want := range []string{"3/hybrid", "3/run-time", "4/hybrid", "4/run-time"} {
		if !seen[want] {
			t.Fatalf("missing cell %s in %v", want, seen)
		}
	}
	// Indices are the cells' grid positions (values × approaches, values
	// outer): a permutation of 0..3 consistent with (x, line).
	byIndex := map[int]string{}
	for _, c := range cells {
		if _, dup := byIndex[c.Index]; dup {
			t.Fatalf("duplicate cell index %d", c.Index)
		}
		byIndex[c.Index] = fmt.Sprintf("%d/%s", c.X, c.Line)
	}
	for i, want := range []string{"3/hybrid", "3/run-time", "4/hybrid", "4/run-time"} {
		if byIndex[i] != want {
			t.Fatalf("index %d = %q, want %q", i, byIndex[i], want)
		}
	}
}

// TestSweepRandomPolicyNoRace: a stateful replacement policy (random's
// *rand.Rand) must be resolved per grid cell, not shared across the
// worker pool — under -race a shared generator fails here.
func TestSweepRandomPolicyNoRace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := strings.Replace(simDoc, `"seed": 1`, `"seed": 1, "policy": "random"`, 1)
	body := fmt.Sprintf(`{"workload": %s, "values": [3, 4, 5], "approaches": ["run-time", "hybrid"]}`, doc)
	resp, out := post(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, out)
	}
	if !strings.Contains(out, `"done":true`) {
		t.Fatalf("no summary line: %s", out)
	}
}

func TestSweepBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweepCells: 3})
	cases := map[string]struct {
		body string
		code int
	}{
		"bad json":      {`{"workload": nope}`, http.StatusBadRequest},
		"no workload":   {`{"values": [4]}`, http.StatusBadRequest},
		"no values":     {sweepBody(`[]`, `["hybrid"]`), http.StatusBadRequest},
		"bad param":     {fmt.Sprintf(`{"workload": %s, "param": "voltage", "values": [1]}`, simDoc), http.StatusBadRequest},
		"bad approach":  {sweepBody(`[4]`, `["psychic"]`), http.StatusBadRequest},
		"zero tiles":    {sweepBody(`[0]`, `["hybrid"]`), http.StatusBadRequest},
		"huge tiles":    {sweepBody(`[1000000000]`, `["hybrid"]`), http.StatusBadRequest},
		"grid too big":  {sweepBody(`[2, 3]`, `["hybrid", "run-time"]`), http.StatusRequestEntityTooLarge},
		"default lines": {sweepBody(`[4]`, `null`), http.StatusRequestEntityTooLarge}, // 5 default approaches > 3 cells
	}
	for name, tc := range cases {
		resp, body := post(t, ts.URL+"/v1/sweep", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status = %d, want %d (%s)", name, resp.StatusCode, tc.code, body)
		}
	}
}

func TestSweepClientCancelMidStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// A grid big and slow enough that cancellation lands mid-stream.
	body := fmt.Sprintf(`{"workload": %s, "values": [3,4,5,6,7,8,9,10,11,12]}`,
		strings.Replace(simDoc, `"iterations": 50`, `"iterations": 3000`, 1))
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first line before cancel")
	}
	cancel()
	resp.Body.Close()

	// The server must shrug the cancellation off and keep serving.
	resp2, out := post(t, ts.URL+"/v1/analyze", smallDoc)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel analyze: status = %d: %s", resp2.StatusCode, out)
	}
	_ = s
}

func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	slow := strings.Replace(simDoc, `"iterations": 50`, `"iterations": 5000000`, 1)
	resp, body := post(t, ts.URL+"/v1/simulate", slow)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
}

// trickle opens a request to path that declares a body it never
// finishes sending, so its handler sits in the body read, holding an
// admission slot, until the connection closes or the read deadline
// fires. Closing the returned connection releases the slot.
func trickle(t *testing.T, addr, path string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{", path)
	return conn
}

// waitInFlight polls /metrics until the in-flight gauge reads n.
func waitInFlight(t *testing.T, url string, n int) {
	t.Helper()
	want := fmt.Sprintf("drhwd_inflight_requests %d\n", n)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if _, body := get(t, url+"/metrics"); strings.Contains(body, want) {
			return
		}
	}
	t.Fatalf("in-flight gauge never reached %d", n)
}

func TestAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 2})
	// Two trickling clients hold both slots, so the next admitted-path
	// request is shed.
	a := trickle(t, ts.Listener.Addr().String(), "/v1/analyze")
	b := trickle(t, ts.Listener.Addr().String(), "/v1/simulate")
	waitInFlight(t, ts.URL, 2)
	resp, body := post(t, ts.URL+"/v1/analyze", smallDoc)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// healthz and metrics bypass admission.
	if hresp, _ := get(t, ts.URL+"/healthz"); hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under load: %d", hresp.StatusCode)
	}
	a.Close()
	b.Close()
	waitInFlight(t, ts.URL, 0)
	resp2, body2 := post(t, ts.URL+"/v1/analyze", smallDoc)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d: %s", resp2.StatusCode, body2)
	}
}

// TestConcurrentAnalyzeSingleFlight is the acceptance criterion: two
// concurrent identical analyze requests produce exactly one engine
// cache miss — the second request waits on the first's in-flight
// design-time computation instead of duplicating it.
func TestConcurrentAnalyzeSingleFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const clients = 2
	var wg sync.WaitGroup
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(smallDoc))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("client %d: status = %d", i, c)
		}
	}
	st := s.Engine().CacheStats()
	if st.Misses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 (single-flight)", st.Misses)
	}
	if st.Hits != clients-1 {
		t.Fatalf("cache hits = %d, want %d", st.Hits, clients-1)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/analyze", smallDoc)
	post(t, ts.URL+"/v1/analyze", `{"tasks": [`)
	resp, body := func() (*http.Response, string) {
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
		return resp, sb.String()
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		`drhwd_requests_total{endpoint="analyze",code="200"} 1`,
		`drhwd_requests_total{endpoint="analyze",code="400"} 1`,
		`drhwd_request_duration_seconds_count{endpoint="analyze"} 2`,
		"drhwd_engine_cache_misses_total 1",
		"drhwd_inflight_requests 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// TestServeGracefulDrain exercises the lifecycle: Serve on an ephemeral
// port, one request through, then context cancellation drains cleanly.
func TestServeGracefulDrain(t *testing.T) {
	s := New(Config{DrainTimeout: 2 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()

	url := "http://" + l.Addr().String()
	resp, err := http.Post(url+"/v1/analyze", "application/json", strings.NewReader(smallDoc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain")
	}
}
