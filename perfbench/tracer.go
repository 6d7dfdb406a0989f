package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/graph"
	"drhwsched/internal/obs"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/server"
	"drhwsched/internal/sim"
)

// span is one timed interval at a layer boundary, recorded from
// outside the program. Spans of one request share Req (the W3C trace
// ID the client put on it); Parent names the layer that caused it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Attr   string `json:"attr,omitempty"`
}

// agg accumulates a hot-path seam's calls without one span per call.
type agg struct {
	n  int64
	ns int64
}

// tracer keeps spans, aggregates and counts in memory until the run
// ends. Its methods are safe for concurrent use and no-ops on nil, so
// untraced code paths pass a nil tracer.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	aggs    map[string]*agg
	counts  map[string]int64
	inproc  map[string]float64 // in-process engine ms per document key
	fails   []string
	nfailed int

	// loopOps and loopPuts snapshot the traced loop: its operation
	// count and the analyses the engine stores computed during it.
	loopOps  int
	loopPuts int64
}

func newTracer() *tracer {
	return &tracer{
		t0: time.Now(), aggs: map[string]*agg{}, counts: map[string]int64{},
		inproc: map[string]float64{},
	}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// span records the interval from start to now.
func (t *tracer) span(name, parent, req, attr string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name, t.since(start), t.since(end), parent, req, attr})
	t.mu.Unlock()
}

// add folds n calls taking d in total into the named aggregate.
func (t *tracer) add(name string, n int64, d time.Duration) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	a := t.aggs[name]
	if a == nil {
		a = &agg{}
		t.aggs[name] = a
	}
	a.n += n
	a.ns += int64(d)
	t.mu.Unlock()
}

// timed runs f n times and folds the calls into the named aggregate.
func (t *tracer) timed(name string, n int, f func() error) error {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	t.add(name, int64(n), time.Since(start))
	return nil
}

func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *tracer) fail(what string, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.nfailed++
	if len(t.fails) < 5 {
		t.fails = append(t.fails, fmt.Sprintf("%s: %v", what, err))
	}
	t.mu.Unlock()
}

func (t *tracer) failed() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nfailed
}

func (t *tracer) failures() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.fails...)
}

// endLoop snapshots the traced loop's counters before the replay adds
// to them.
func (t *tracer) endLoop(ops int) {
	t.mu.Lock()
	t.loopOps = ops
	t.loopPuts = t.counts["engine.store_put"]
	t.mu.Unlock()
}

// setInproc records the in-process engine time of one document (or a
// per-class key such as "analyze" or "sweep-cell").
func (t *tracer) setInproc(key string, ms float64) {
	t.mu.Lock()
	t.inproc[key] = ms
	t.mu.Unlock()
}

// simResult folds one simulation's counters into the per-layer ratios
// whose numerator and denominator both come from the result, so served
// replies and instrumented runs may both contribute.
func (t *tracer) simResult(loads, prefetchHits, reuses, subtasks int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts["sim.loads"] += int64(loads)
	t.counts["sim.prefetch_hits"] += int64(prefetchHits)
	t.counts["sim.reuses"] += int64(reuses)
	t.counts["sim.subtasks"] += int64(subtasks)
	t.mu.Unlock()
}

// seamResult folds the counters of one run that went through
// instrument, so ratios over seam calls divide by instances of the
// same runs.
func (t *tracer) seamResult(instances, peakQueued int) {
	t.mu.Lock()
	t.counts["seam.instances"] += int64(instances)
	if int64(peakQueued) > t.counts["fabric.peak_queued"] {
		t.counts["fabric.peak_queued"] = int64(peakQueued)
	}
	t.mu.Unlock()
}

// probe counts one run's hot-path seam calls. The sharded kernel
// calls the policy and the arrival source from several workers, so
// every field is atomic.
type probe struct {
	victimN, victimNS atomic.Int64
	drawN, drawNS     atomic.Int64
	iterN, iterNS     atomic.Int64
	last              atomic.Int64 // previous observer call, ns since t0
}

type timedPolicy struct {
	inner reconfig.Policy
	p     *probe
}

func (tp timedPolicy) Name() string { return tp.inner.Name() }

func (tp timedPolicy) Victim(st *reconfig.State, candidates []int, future []graph.ConfigID) int {
	start := time.Now()
	v := tp.inner.Victim(st, candidates, future)
	tp.p.victimNS.Add(int64(time.Since(start)))
	tp.p.victimN.Add(1)
	return v
}

type timedArrivals struct {
	inner sim.ShardableArrivals
	p     *probe
}

func (ta timedArrivals) Name() string { return ta.inner.Name() }

func (ta timedArrivals) Start(tasks int) (sim.ArrivalSource, error) {
	src, err := ta.inner.Start(tasks)
	if err != nil {
		return nil, err
	}
	return timedSource{src, ta.p}, nil
}

func (ta timedArrivals) StartSharded(tasks, iterations int, seed int64) (sim.IndexedSource, error) {
	src, err := ta.inner.StartSharded(tasks, iterations, seed)
	if err != nil {
		return nil, err
	}
	return timedIndexed{src, ta.p}, nil
}

type timedSource struct {
	inner sim.ArrivalSource
	p     *probe
}

func (ts timedSource) Draw(rng *rand.Rand, dst []int) []int {
	start := time.Now()
	out := ts.inner.Draw(rng, dst)
	ts.p.drawNS.Add(int64(time.Since(start)))
	ts.p.drawN.Add(1)
	return out
}

type timedIndexed struct {
	inner sim.IndexedSource
	p     *probe
}

func (ti timedIndexed) DrawAt(iter int, rng *rand.Rand, dst []int) []int {
	start := time.Now()
	out := ti.inner.DrawAt(iter, rng, dst)
	ti.p.drawNS.Add(int64(time.Since(start)))
	ti.p.drawN.Add(1)
	return out
}

// recorderCapacity holds a 1000-iteration sequential run's fabric
// events without drops, so its stage events all survive.
const recorderCapacity = 1 << 17

// instrument wraps opt's Policy and Arrivals seams with timing
// wrappers and, on the sequential path, its Observer and Trace seams
// too (rec is reset and reused). The returned done folds the run's
// timings and counters into t. On a nil tracer it returns opt as is.
func (t *tracer) instrument(opt sim.Options, rec *obs.Recorder) (sim.Options, func(*sim.Result)) {
	if t == nil {
		return opt, func(*sim.Result) {}
	}
	p := &probe{}
	inner := opt.Policy
	if inner == nil {
		inner = reconfig.LRU{}
	}
	opt.Policy = timedPolicy{inner, p}
	arr := opt.Arrivals
	if arr == nil {
		arr = sim.Bernoulli{P: opt.InclusionProb}
	}
	if sa, ok := arr.(sim.ShardableArrivals); ok {
		opt.Arrivals = timedArrivals{sa, p}
	}
	sequential := opt.Parallelism == 0
	if sequential {
		prev := opt.Observer
		opt.Observer = func(r sim.IterationRecord) {
			now := t.since(time.Now())
			if last := p.last.Swap(now); r.Iteration > 0 {
				p.iterNS.Add(now - last)
				p.iterN.Add(1)
			}
			if prev != nil {
				prev(r)
			}
		}
		if rec != nil {
			rec.Reset()
			opt.Trace = rec
		}
	}
	return opt, func(res *sim.Result) {
		t.add("reconfig.victim", p.victimN.Load(), time.Duration(p.victimNS.Load()))
		t.add("sim.draw", p.drawN.Load(), time.Duration(p.drawNS.Load()))
		t.add("sim.iteration", p.iterN.Load(), time.Duration(p.iterNS.Load()))
		if sequential && rec != nil {
			// The recorder's stage events carry whole microseconds. The
			// select stage takes well under one, so it always reads
			// zero there and is not reported; execute takes tens.
			// Admission events give the kernel's own grant refusals:
			// an instance admitted later than it arrived waited behind
			// a refused grant (its own or the queue head's).
			var exe agg
			var admitted, queued int64
			for _, ev := range rec.Events() {
				switch {
				case ev.Kind == obs.KindStage && ev.Detail == "execute":
					exe.n++
					exe.ns += ev.WallUS * int64(time.Microsecond)
				case ev.Kind == obs.KindAdmit:
					admitted++
				case ev.Kind == obs.KindQueue:
					queued++
				}
			}
			t.add("sim.execute", exe.n, time.Duration(exe.ns))
			t.count("fabric.admitted", admitted)
			t.count("fabric.queued", queued)
			t.count("trace.drops", rec.Drops())
		}
		if res != nil {
			t.simResult(res.Loads, res.PrefetchHits, res.Reuses, res.Subtasks)
			t.seamResult(res.Instances, res.PeakQueued)
		}
	}
}

// timedStore wraps an engine.Store, timing Get and Put and counting
// hits. It forwards the optional PeerGetter and FetchReporter
// interfaces so a wrapped peerstore.Store keeps its behaviour.
type timedStore struct {
	inner engine.Store
	t     *tracer
}

func (s timedStore) Get(key string) (*core.Analysis, bool) {
	start := time.Now()
	a, ok := s.inner.Get(key)
	s.t.add("engine.store_get", 1, time.Since(start))
	if ok {
		s.t.count("engine.store_hit", 1)
	}
	return a, ok
}

func (s timedStore) Put(key string, a *core.Analysis) {
	start := time.Now()
	s.inner.Put(key, a)
	s.t.add("engine.store_put", 1, time.Since(start))
	s.t.count("engine.store_put", 1)
}

func (s timedStore) Stats() engine.CacheStats { return s.inner.Stats() }

func (s timedStore) GetLocal(key string) (*core.Analysis, bool) {
	if pg, ok := s.inner.(engine.PeerGetter); ok {
		return pg.GetLocal(key)
	}
	return nil, false
}

func (s timedStore) Fetching(key string) bool {
	fr, ok := s.inner.(engine.FetchReporter)
	return ok && fr.Fetching(key)
}

// traceID extracts the request ID (W3C trace ID) from a traceparent
// header, or "" when there is none.
func traceID(h http.Header) string {
	tp, err := obs.ParseTraceParent(h.Get("traceparent"))
	if err != nil {
		return ""
	}
	return tp.TraceIDString()
}

// timedTransport is an http.RoundTripper that records one span per
// request, from send until the response body is drained or closed.
type timedTransport struct {
	inner  http.RoundTripper
	t      *tracer
	name   func(*http.Request) string // "" skips the request
	parent string
}

func (tt timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := tt.name(req)
	if name == "" {
		return tt.inner.RoundTrip(req)
	}
	start := time.Now()
	reqID := traceID(req.Header)
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		tt.t.span(name, tt.parent, reqID, "", start)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		tt.t.span(name, tt.parent, reqID, strconv.Itoa(resp.StatusCode), start)
	}}
	return resp, nil
}

// spanBody ends its span at the first EOF, error or Close.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// docKey identifies a request document by content.
func docKey(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return strconv.FormatUint(h.Sum64(), 16)
}

// middleware wraps a replica (layer "server") or the coordinator
// (layer "cluster") with one span per workload request. Replica spans
// carry the document key (simulate) or the cell count (sweep), which
// the in-process engine timings are matched against.
func (t *tracer) middleware(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint := strings.TrimPrefix(r.URL.Path, "/v1/")
		var name, parent, attr string
		switch {
		case layer == "cluster" && endpoint == "sweep":
			name, parent = "cluster.sweep", "client"
		case layer == "server" && (endpoint == "simulate" || endpoint == "analyze" || endpoint == "sweep"):
			name, parent = "server.handler."+endpoint, "client"
			if endpoint == "sweep" {
				parent = "cluster.dispatch"
			}
			body, err := io.ReadAll(r.Body)
			if err == nil {
				r.Body = io.NopCloser(bytes.NewReader(body))
				attr = docKey(body)
				if endpoint == "sweep" {
					var req server.SweepRequest
					if json.Unmarshal(body, &req) == nil {
						attr = strconv.Itoa(len(req.Values) * len(req.Approaches))
					}
				}
			}
		default:
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.span(name, parent, traceID(r.Header), attr, start)
	})
}

// depth orders the request-scoped layers from the client inwards.
func depth(name string) int {
	switch {
	case strings.HasPrefix(name, "client."):
		return 0
	case name == "cluster.sweep":
		return 1
	case name == "cluster.dispatch":
		return 2
	case strings.HasPrefix(name, "server.handler."):
		return 3
	default:
		return 4
	}
}

// selfTimes computes each span's self time: its duration minus the
// part of its interval covered by deeper spans of the same request.
// Spans without a request ID (store and peer-fill traffic) have no
// attributed children, so their self time is their duration.
func (t *tracer) selfTimes() map[string][2]float64 {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	byReq := map[string][]int{}
	for i, s := range spans {
		if s.Req != "" {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	out := map[string][2]float64{} // name → {total ns, self ns}
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var cover []iv
		if s.Req != "" {
			for _, j := range byReq[s.Req] {
				c := spans[j]
				if j != i && depth(c.Name) > depth(s.Name) && c.Start >= s.Start && c.End <= s.End {
					cover = append(cover, iv{c.Start, c.End})
				}
			}
		}
		sort.Slice(cover, func(a, b int) bool { return cover[a].a < cover[b].a })
		var covered, curA, curB int64
		curA, curB = -1, -1
		for _, c := range cover {
			if c.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = c.a, c.b
			} else if c.b > curB {
				curB = c.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		v := out[s.Name]
		v[0] += float64(s.End - s.Start)
		v[1] += float64(s.End - s.Start - covered)
		out[s.Name] = v
	}
	return out
}

// spanStats returns count, mean duration and mean self time (ms) per
// span name.
func (t *tracer) spanStats() map[string][3]float64 {
	self := t.selfTimes()
	t.mu.Lock()
	n := map[string]int{}
	for _, s := range t.spans {
		n[s.Name]++
	}
	t.mu.Unlock()
	out := map[string][3]float64{}
	for name, c := range n {
		v := self[name]
		out[name] = [3]float64{float64(c), v[0] / float64(c) / 1e6, v[1] / float64(c) / 1e6}
	}
	return out
}

// meanUS is an aggregate's mean call time in microseconds (0 when the
// seam was never called).
func (t *tracer) meanUS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n) / 1e3
}

func (t *tracer) calls(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[name]; a != nil {
		return a.n
	}
	return 0
}

func (t *tracer) counted(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perLayer derives the per-layer metrics.
func (t *tracer) perLayer() map[string]metric {
	st := t.spanStats()
	spanMS := func(name string) float64 { return st[name][1] }
	m := map[string]metric{}
	us := func(metricName, agg string) { m[metricName] = metric{t.meanUS(agg), "us"} }
	us("assign.list_us", "assign.list")
	m["core.analyze_ms"] = metric{t.meanUS("core.analyze") / 1e3, "ms"}
	t.mu.Lock()
	loopOps, loopPuts := t.loopOps, t.loopPuts
	t.mu.Unlock()
	m["core.analyze_calls"] = metric{ratio(loopPuts, int64(loopOps)), "1/op"}
	us("core.execute_us", "core.execute")
	us("prefetch.list_us", "prefetch.list")
	m["prefetch.hit_ratio"] = metric{ratio(t.counted("sim.prefetch_hits"), t.counted("sim.loads")), "ratio"}
	us("reconfig.map_us", "reconfig.map")
	us("reconfig.victim_us", "reconfig.victim")
	m["reconfig.victim_calls"] = metric{ratio(t.calls("reconfig.victim"), t.counted("seam.instances")), "1/instance"}
	m["reconfig.reuse_ratio"] = metric{ratio(t.counted("sim.reuses"), t.counted("sim.subtasks")), "ratio"}
	us("fabric.grant_us", "fabric.grant")
	m["fabric.grant_refused_ratio"] = metric{ratio(t.counted("fabric.queued"), t.counted("fabric.admitted")), "ratio"}
	m["fabric.peak_queued"] = metric{float64(t.counted("fabric.peak_queued")), "count"}
	us("sim.iteration_us", "sim.iteration")
	us("sim.draw_us", "sim.draw")
	us("sim.execute_us", "sim.execute")
	us("engine.store_get_us", "engine.store_get")
	us("engine.store_put_us", "engine.store_put")
	m["engine.cache_hit_ratio"] = metric{ratio(t.counted("engine.store_hit"), t.calls("engine.store_get")), "ratio"}
	us("workload.parse_run_us", "workload.parse_run")
	for _, ep := range []string{"simulate", "analyze", "sweep"} {
		m["server.handler_ms."+ep] = metric{spanMS("server.handler." + ep), "ms"}
		m["server.overhead_ms."+ep] = metric{t.overheadMS(ep), "ms"}
	}
	m["cluster.sweep_ms"] = metric{spanMS("cluster.sweep"), "ms"}
	m["cluster.dispatch_ms"] = metric{spanMS("cluster.dispatch"), "ms"}
	m["cluster.merge_self_ms"] = metric{st["cluster.sweep"][2], "ms"}
	m["cluster.retried_cells"] = metric{ratio(t.counted("cluster.retried_cells"), t.counted("cluster.sweeps")), "1/sweep"}
	m["peerstore.probe_ms"] = metric{spanMS("peerstore.probe"), "ms"}
	us("peerstore.encode_us", "peerstore.encode")
	us("peerstore.decode_us", "peerstore.decode")
	tiers := t.counted("tier.local") + t.counted("tier.peer") + t.counted("tier.compute")
	for _, tier := range []string{"local", "peer", "compute"} {
		m["peerstore.tier_ratio."+tier] = metric{ratio(t.counted("tier."+tier), tiers), "ratio"}
	}
	return m
}

// overheadMS is the mean replica handler time of an endpoint minus the
// in-process engine time of the same work: the document's own
// simulation, the mean cold analysis, or the sweep shard's cells at
// the in-process per-cell time.
func (t *tracer) overheadMS(endpoint string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := append([]span(nil), t.spans...)
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	seen := map[string]bool{}
	var diffs []float64
	for _, s := range spans {
		if s.Name != "server.handler."+endpoint {
			continue
		}
		ms := float64(s.End-s.Start) / 1e6
		switch endpoint {
		case "simulate":
			if in, ok := t.inproc[s.Attr]; ok {
				diffs = append(diffs, ms-in)
			}
		case "analyze":
			// A document the replay measured is cold the first time
			// any replica sees it and warm afterwards; a never-seen
			// random graph is compared with the mean cold analysis.
			key := "analyze-cold"
			if _, known := t.inproc["warm:"+s.Attr]; known {
				key = "cold:" + s.Attr
				if seen[s.Attr] {
					key = "warm:" + s.Attr
				}
				seen[s.Attr] = true
			}
			if in, ok := t.inproc[key]; ok {
				diffs = append(diffs, ms-in)
			}
		case "sweep":
			cells, err := strconv.Atoi(s.Attr)
			if in, ok := t.inproc["sweep-cell"]; ok && err == nil {
				diffs = append(diffs, ms-float64(cells)*in)
			}
		}
	}
	if len(diffs) == 0 {
		return 0
	}
	return mean(diffs)
}

// writeSelfTimes prints the per-layer self-time table.
func (t *tracer) writeSelfTimes(w io.Writer) {
	st := t.spanStats()
	var names []string
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool {
		if depth(names[a]) != depth(names[b]) {
			return depth(names[a]) < depth(names[b])
		}
		return names[a] < names[b]
	})
	fmt.Fprintf(w, "per-layer spans (request-scoped self time excludes deeper spans of the same request):\n")
	fmt.Fprintf(w, "  %-26s %8s %12s %12s\n", "span", "count", "mean ms", "self ms")
	for _, n := range names {
		v := st[n]
		fmt.Fprintf(w, "  %-26s %8.0f %12.4f %12.4f\n", n, v[0], v[1], v[2])
	}
	t.mu.Lock()
	var aggNames []string
	for n := range t.aggs {
		aggNames = append(aggNames, n)
	}
	t.mu.Unlock()
	sort.Strings(aggNames)
	fmt.Fprintf(w, "per-layer call aggregates:\n")
	for _, n := range aggNames {
		fmt.Fprintf(w, "  %-26s calls=%-9d mean=%.3fus\n", n, t.calls(n), t.meanUS(n))
	}
}

// writeSpans writes the spans, aggregates and counts as JSON.
func (t *tracer) writeSpans(dir, stem string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	t.mu.Lock()
	aggs := map[string][2]int64{}
	for n, a := range t.aggs {
		aggs[n] = [2]int64{a.n, a.ns}
	}
	doc := struct {
		Spans  []span              `json:"spans"`
		Aggs   map[string][2]int64 `json:"aggregates_calls_ns"`
		Counts map[string]int64    `json:"counts"`
	}{t.spans, aggs, t.counts}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	path := filepath.Join(dir, stem+".spans.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
