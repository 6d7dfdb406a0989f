package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"drhwsched/internal/obs"
	"drhwsched/internal/server"
)

// sweepBody is the request every e2e test drives: a tiles sweep whose
// cells all have distinct analysis fingerprints (one approach line, one
// scenario), so per-cell cache traffic is deterministic and the
// byte-identity assertion against a single node holds exactly.
func sweepBody(values string) string {
	return fmt.Sprintf(`{"workload": %s, "param": "tiles", "values": %s, "approaches": ["hybrid"]}`, planDoc, values)
}

func newReplicaServer(t *testing.T, id string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{ReplicaID: id}))
	t.Cleanup(ts.Close)
	return ts
}

func newCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.StreamIdleTimeout == 0 {
		cfg.StreamIdleTimeout = 30 * time.Second
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
		cfg.MaxRetryBackoff = 5 * time.Millisecond
	}
	cfg.Logf = t.Logf
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	return c, ts
}

// sweepThrough posts a sweep and splits the NDJSON stream into raw cell
// lines and the summary (nil when the stream was cut short).
func sweepThrough(t *testing.T, url, body string) ([]string, *SweepSummary) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var cells []string
	var summary *SweepSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if probe.Done {
			var sum SweepSummary
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatal(err)
			}
			summary = &sum
			continue
		}
		cells = append(cells, line)
	}
	return cells, summary
}

// cellIndex pulls the index out of a raw cell line.
func cellIndex(t *testing.T, line string) int {
	t.Helper()
	var c server.SweepCell
	if err := json.Unmarshal([]byte(line), &c); err != nil {
		t.Fatal(err)
	}
	return c.Index
}

// sortByIndex orders raw cell lines by their grid index.
func sortByIndex(t *testing.T, lines []string) []string {
	t.Helper()
	out := append([]string(nil), lines...)
	sort.Slice(out, func(i, j int) bool { return cellIndex(t, out[i]) < cellIndex(t, out[j]) })
	return out
}

// requireExactlyOnce asserts the cell lines are a permutation of grid
// indices 0..n-1 with no duplicates.
func requireExactlyOnce(t *testing.T, lines []string, n int) {
	t.Helper()
	if len(lines) != n {
		t.Fatalf("delivered %d cells, want %d", len(lines), n)
	}
	seen := map[int]bool{}
	for _, l := range lines {
		i := cellIndex(t, l)
		if seen[i] {
			t.Fatalf("cell index %d delivered twice", i)
		}
		if i < 0 || i >= n {
			t.Fatalf("cell index %d outside grid of %d", i, n)
		}
		seen[i] = true
	}
}

// TestCoordinatorMatchesSingleNode is the acceptance gate: a
// coordinator sweep over two replicas yields exactly the cell set of a
// single-node /v1/sweep — matched by index, byte-identical payloads.
func TestCoordinatorMatchesSingleNode(t *testing.T) {
	body := sweepBody(`[2, 3, 4, 5, 6]`)

	single := newReplicaServer(t, "single")
	want, wantSum := sweepThrough(t, single.URL, body)
	if wantSum == nil {
		t.Fatal("single-node stream cut short")
	}

	r1, r2 := newReplicaServer(t, "r1"), newReplicaServer(t, "r2")
	_, coord := newCoordinator(t, Config{Replicas: []string{r1.URL, r2.URL}})
	got, sum := sweepThrough(t, coord.URL, body)
	if sum == nil {
		t.Fatal("coordinator stream cut short")
	}
	requireExactlyOnce(t, got, 5)
	if sum.Cells != 5 || sum.Delivered != 5 || sum.Errors != 0 || sum.RetryWaves != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Replicas != 2 {
		t.Fatalf("summary reports %d surviving replicas, want 2", sum.Replicas)
	}

	wantSorted, gotSorted := sortByIndex(t, want), sortByIndex(t, got)
	for i := range wantSorted {
		if gotSorted[i] != wantSorted[i] {
			t.Fatalf("cell %d differs:\ncoordinator: %s\nsingle node: %s", i, gotSorted[i], wantSorted[i])
		}
	}
}

// TestShardCacheAffinity: repeating a sweep must re-hash every value to
// the same replica, so the second pass adds no cache misses anywhere in
// the pool — the locality the consistent-hash ring exists for.
func TestShardCacheAffinity(t *testing.T) {
	r1, r2 := newReplicaServer(t, "r1"), newReplicaServer(t, "r2")
	_, coord := newCoordinator(t, Config{Replicas: []string{r1.URL, r2.URL}})
	body := sweepBody(`[2, 3, 4, 5, 6, 7]`)

	_, first := sweepThrough(t, coord.URL, body)
	if first == nil {
		t.Fatal("first sweep cut short")
	}
	_, second := sweepThrough(t, coord.URL, body)
	if second == nil {
		t.Fatal("second sweep cut short")
	}
	if second.Cache.Misses != first.Cache.Misses {
		t.Fatalf("second sweep added misses: %d -> %d (shard affinity broken)",
			first.Cache.Misses, second.Cache.Misses)
	}
	if second.Cache.Hits <= first.Cache.Hits {
		t.Fatalf("second sweep added no hits: %d -> %d", first.Cache.Hits, second.Cache.Hits)
	}
}

// lineLimitWriter aborts the response (tearing the connection down
// mid-NDJSON-stream) after emitting the given number of lines.
type lineLimitWriter struct {
	http.ResponseWriter
	mu    sync.Mutex
	left  int
	dead  bool
	onDie func()
}

func (w *lineLimitWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		panic(http.ErrAbortHandler)
	}
	n, err := w.ResponseWriter.Write(b)
	w.left -= bytes.Count(b[:n], []byte("\n"))
	if w.left <= 0 {
		w.dead = true
		if w.onDie != nil {
			w.onDie()
		}
		panic(http.ErrAbortHandler)
	}
	return n, err
}

func (w *lineLimitWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestCoordinatorReplicaDiesMidStream kills one replica after it has
// streamed one cell: the coordinator must finish the sweep on the
// survivor with every cell delivered exactly once and report the retry.
func TestCoordinatorReplicaDiesMidStream(t *testing.T) {
	flakyInner := server.New(server.Config{ReplicaID: "flaky"})
	died := make(chan struct{})
	var once sync.Once
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep" {
			flakyInner.ServeHTTP(w, r)
			return
		}
		flakyInner.ServeHTTP(&lineLimitWriter{
			ResponseWriter: w,
			left:           1,
			onDie:          func() { once.Do(func() { close(died) }) },
		}, r)
	}))
	t.Cleanup(flaky.Close)
	survivor := newReplicaServer(t, "survivor")

	_, coord := newCoordinator(t, Config{Replicas: []string{flaky.URL, survivor.URL}})
	cells, sum := sweepThrough(t, coord.URL, sweepBody(`[2, 3, 4, 5, 6, 7, 8, 9]`))
	if sum == nil {
		t.Fatal("coordinator stream cut short")
	}
	select {
	case <-died:
	default:
		// The ring happened to assign every value to the survivor; the
		// failure path was not exercised. With 8 values across 2
		// replicas at 64 vnodes this is effectively impossible, so
		// treat it as a test bug worth hearing about.
		t.Fatal("flaky replica was never asked to sweep")
	}
	requireExactlyOnce(t, cells, 8)
	if sum.RetryWaves == 0 || sum.RetriedCells == 0 {
		t.Fatalf("summary reports no retries: %+v", sum)
	}
	if sum.Replicas != 1 {
		t.Fatalf("summary reports %d surviving replicas, want 1", sum.Replicas)
	}
}

// TestCoordinatorReplicaTimesOut wedges one replica (headers sent, no
// cells, ever): the stream idle timeout must cut it loose and the
// survivor must complete the full cell set.
func TestCoordinatorReplicaTimesOut(t *testing.T) {
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"ok","replica":"wedged"}`)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done()
	}))
	t.Cleanup(wedged.Close)
	survivor := newReplicaServer(t, "survivor")

	_, coord := newCoordinator(t, Config{
		Replicas:          []string{wedged.URL, survivor.URL},
		StreamIdleTimeout: 150 * time.Millisecond,
	})
	cells, sum := sweepThrough(t, coord.URL, sweepBody(`[2, 3, 4, 5, 6, 7, 8, 9]`))
	if sum == nil {
		t.Fatal("coordinator stream cut short")
	}
	requireExactlyOnce(t, cells, 8)
	if sum.RetryWaves == 0 {
		t.Fatalf("summary reports no retry waves: %+v", sum)
	}
}

// TestCoordinatorAllReplicasDead: when the whole pool is gone the
// stream ends without a done=true summary — the client's signal that
// the sweep was cut short.
func TestCoordinatorAllReplicasDead(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(dead.Close)
	_, coord := newCoordinator(t, Config{Replicas: []string{dead.URL}})
	cells, sum := sweepThrough(t, coord.URL, sweepBody(`[2, 3]`))
	if sum != nil {
		t.Fatalf("summary on a dead pool: %+v", sum)
	}
	if len(cells) != 0 {
		t.Fatalf("cells from a dead pool: %v", cells)
	}
}

func TestCoordinatorHealthz(t *testing.T) {
	up := newReplicaServer(t, "up")
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(down.Close)
	_, coord := newCoordinator(t, Config{Replicas: []string{up.URL, down.URL}})

	resp, err := http.Get(coord.URL + "/healthz")
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
	if h.Status != "ok" || len(h.Replicas) != 2 {
		t.Fatalf("healthz = %+v", h)
	}
	byURL := map[string]ReplicaHealth{}
	for _, rh := range h.Replicas {
		byURL[rh.URL] = rh
	}
	if !byURL[up.URL].OK || byURL[up.URL].Replica != "up" {
		t.Fatalf("live replica misreported: %+v", byURL[up.URL])
	}
	if byURL[down.URL].OK || byURL[down.URL].Error == "" {
		t.Fatalf("dead replica misreported: %+v", byURL[down.URL])
	}
}

func TestCoordinatorMetrics(t *testing.T) {
	r1 := newReplicaServer(t, "r1")
	_, coord := newCoordinator(t, Config{Replicas: []string{r1.URL}})
	if _, sum := sweepThrough(t, coord.URL, sweepBody(`[2, 3]`)); sum == nil {
		t.Fatal("sweep cut short")
	}
	resp, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	text := sb.String()
	for _, want := range []string{
		`drhwcoord_requests_total{endpoint="sweep",code="200"} 1`,
		"drhwcoord_cells_total 2",
		"drhwcoord_replicas 1",
		"drhwcoord_sweeps_total 1",
		`drhwcoord_request_duration_seconds_count{endpoint="sweep"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if err := obs.ValidateExposition(text); err != nil {
		t.Fatalf("coordinator /metrics fails the strict validator: %v\n%s", err, text)
	}
}

// TestCoordinatorFirstScrapeValidates: a fresh coordinator's very
// first /metrics, rendered before any request has been observed, must
// pass the strict validator.
func TestCoordinatorFirstScrapeValidates(t *testing.T) {
	r1 := newReplicaServer(t, "r1")
	_, coord := newCoordinator(t, Config{Replicas: []string{r1.URL}})
	resp, err := http.Get(coord.URL + "/metrics")
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

func TestCoordinatorRejects(t *testing.T) {
	r1 := newReplicaServer(t, "r1")
	_, coord := newCoordinator(t, Config{Replicas: []string{r1.URL}, MaxSweepCells: 3})
	cases := map[string]struct {
		body string
		code int
	}{
		"bad json":   {`{"workload": nope}`, http.StatusBadRequest},
		"no values":  {fmt.Sprintf(`{"workload": %s}`, planDoc), http.StatusBadRequest},
		"too large":  {sweepBody(`[2, 3, 4, 5]`), http.StatusRequestEntityTooLarge},
		"huge tiles": {sweepBody(`[1000000000]`), http.StatusBadRequest},
		"bad method": {"", http.StatusMethodNotAllowed},
	}
	for name, tc := range cases {
		var resp *http.Response
		var err error
		if name == "bad method" {
			resp, err = http.Get(coord.URL + "/v1/sweep")
		} else {
			resp, err = http.Post(coord.URL+"/v1/sweep", "application/json", strings.NewReader(tc.body))
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status = %d, want %d", name, resp.StatusCode, tc.code)
		}
	}
}

// traceCapture records every traceparent header a replica receives on
// /v1/sweep, in arrival order.
type traceCapture struct {
	mu      sync.Mutex
	headers []string
}

func (tc *traceCapture) add(h string) {
	tc.mu.Lock()
	tc.headers = append(tc.headers, h)
	tc.mu.Unlock()
}

func (tc *traceCapture) all() []string {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return append([]string(nil), tc.headers...)
}

// TestCoordinatorTraceSpansReplicasExactlyOnce is the distributed-trace
// acceptance gate: a client traceparent must reach the coordinator and
// both replicas under one trace ID, and every shard dispatch — retries
// included — must carry its own span ID, minted exactly once. A flaky
// replica forces a retry wave so the retry path is in the assertion.
func TestCoordinatorTraceSpansReplicasExactlyOnce(t *testing.T) {
	const clientTP = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

	capture := func(id string, wrap func(http.ResponseWriter, *http.Request) http.ResponseWriter) (*httptest.Server, *traceCapture) {
		inner := server.New(server.Config{ReplicaID: id})
		tc := &traceCapture{}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/sweep" {
				inner.ServeHTTP(w, r)
				return
			}
			tc.add(r.Header.Get(obs.Header))
			if wrap != nil {
				w = wrap(w, r)
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts, tc
	}

	var once sync.Once
	died := make(chan struct{})
	flaky, flakyTC := capture("flaky", func(w http.ResponseWriter, r *http.Request) http.ResponseWriter {
		var dead bool
		once.Do(func() { dead = true })
		if !dead {
			return w // already died once; behave on any later request
		}
		return &lineLimitWriter{
			ResponseWriter: w,
			left:           1,
			onDie:          func() { close(died) },
		}
	})
	steady, steadyTC := capture("steady", nil)

	_, coord := newCoordinator(t, Config{Replicas: []string{flaky.URL, steady.URL}})

	req, err := http.NewRequest(http.MethodPost, coord.URL+"/v1/sweep",
		strings.NewReader(sweepBody(`[2, 3, 4, 5, 6, 7, 8, 9]`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.Header, clientTP)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	echo, err := obs.ParseTraceParent(resp.Header.Get(obs.Header))
	if err != nil {
		t.Fatalf("coordinator response traceparent: %v", err)
	}
	client, _ := obs.ParseTraceParent(clientTP)
	if echo.TraceIDString() != client.TraceIDString() {
		t.Fatalf("coordinator joined trace %s, want client's %s",
			echo.TraceIDString(), client.TraceIDString())
	}

	var cells []string
	var sum *SweepSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if probe.Done {
			var s SweepSummary
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatal(err)
			}
			sum = &s
			continue
		}
		cells = append(cells, line)
	}
	if sum == nil {
		t.Fatal("coordinator stream cut short")
	}
	select {
	case <-died:
	default:
		t.Fatal("flaky replica was never asked to sweep")
	}
	requireExactlyOnce(t, cells, 8)
	if sum.RetryWaves == 0 {
		t.Fatalf("summary reports no retry waves: %+v", sum)
	}

	// One trace end to end: the summary and every replica-side header
	// carry the client's trace ID.
	if sum.TraceID != client.TraceIDString() {
		t.Fatalf("summary trace_id = %q, want %q", sum.TraceID, client.TraceIDString())
	}
	captured := append(flakyTC.all(), steadyTC.all()...)
	if len(flakyTC.all()) == 0 || len(steadyTC.all()) == 0 {
		t.Fatalf("a replica saw no traced sweep: flaky=%d steady=%d",
			len(flakyTC.all()), len(steadyTC.all()))
	}
	// The flaky replica's death forces at least one extra dispatch
	// beyond the initial two-shard wave.
	if len(captured) < 3 {
		t.Fatalf("captured %d dispatch headers, want >= 3 (retry wave missing)", len(captured))
	}
	spans := map[string]bool{client.SpanIDString(): true}
	for _, h := range captured {
		tp, err := obs.ParseTraceParent(h)
		if err != nil {
			t.Fatalf("replica received bad traceparent %q: %v", h, err)
		}
		if tp.TraceIDString() != client.TraceIDString() {
			t.Fatalf("dispatch trace %s, want %s", tp.TraceIDString(), client.TraceIDString())
		}
		if spans[tp.SpanIDString()] {
			t.Fatalf("span ID %s reused across dispatches", tp.SpanIDString())
		}
		spans[tp.SpanIDString()] = true
	}

	// The summary's dispatch log mirrors the wire: same spans, one entry
	// per attempt, each timed.
	if len(sum.ShardDispatches) != len(captured) {
		t.Fatalf("summary lists %d dispatches, replicas saw %d",
			len(sum.ShardDispatches), len(captured))
	}
	onWire := map[string]bool{}
	for _, h := range captured {
		tp, _ := obs.ParseTraceParent(h)
		onWire[tp.SpanIDString()] = true
	}
	for _, d := range sum.ShardDispatches {
		if !onWire[d.SpanID] {
			t.Fatalf("summary span %s never seen by a replica", d.SpanID)
		}
		if d.ElapsedMS < 0 {
			t.Fatalf("dispatch %+v has negative elapsed time", d)
		}
	}
}
