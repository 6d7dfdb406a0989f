package server

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"drhwsched/internal/engine"
	"drhwsched/internal/peerstore"
	"drhwsched/internal/sim"
)

// tierStatser is implemented by tiered analysis stores
// (peerstore.Store): when the engine runs over one, /metrics gains the
// per-tier hit counters and the peer-fill latency histogram.
type tierStatser interface {
	TierStats() peerstore.TierStats
}

// latencyBuckets are the histogram upper bounds in seconds. Analyses
// return in microseconds-to-milliseconds; full simulations and sweeps
// run for seconds, hence the wide spread.
var latencyBuckets = [...]float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram. The counts array has
// one slot per bucket plus a final +Inf slot; being an array, a struct
// copy under the metrics lock is a consistent snapshot.
type histogram struct {
	counts [len(latencyBuckets) + 1]int64
	sum    float64
	total  int64
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets[:], seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// metrics aggregates per-endpoint request counts (by status code) and
// latency histograms, plus the simulation-outcome counters every
// completed run folds in (prefetch attribution, reconfigurations paid
// vs avoided, queueing pressure, per-ISP utilization, trace drops).
// All methods are safe for concurrent use.
type metrics struct {
	mu       sync.Mutex
	now      func() time.Time // injectable clock (tests pin uptime)
	started  time.Time
	requests map[string]map[int]int64
	latency  map[string]*histogram

	simSequential int64 // completed runs executed as one whole-run replication
	simSharded    int64 // completed runs executed as 32-iteration replications

	prefetchHits    int64
	demandMisses    int64
	reconfigPaid    int64 // configurations actually loaded
	reconfigAvoided int64 // loads skipped through reuse/prefetch planning
	peakQueued      int64 // deepest admission queue any run observed
	ispBusySeconds  map[int]float64
	traceDropped    int64
}

func newMetrics() *metrics {
	m := &metrics{
		now:            time.Now,
		requests:       map[string]map[int]int64{},
		latency:        map[string]*histogram{},
		ispBusySeconds: map[int]float64{},
	}
	m.started = m.now()
	return m
}

func (m *metrics) observe(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byCode := m.requests[endpoint]
	if byCode == nil {
		byCode = map[int]int64{}
		m.requests[endpoint] = byCode
	}
	byCode[code]++
	h := m.latency[endpoint]
	if h == nil {
		h = &histogram{}
		m.latency[endpoint] = h
	}
	h.observe(d.Seconds())
}

// observeSim folds one completed simulation into the run-outcome
// families. SavedLoads counts the loads the approach skipped relative
// to the no-reuse baseline — the reconfigurations avoided.
func (m *metrics) observeSim(res *sim.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if res.Execution == "sharded" {
		m.simSharded++
	} else {
		m.simSequential++
	}
	m.prefetchHits += int64(res.PrefetchHits)
	m.demandMisses += int64(res.DemandMisses)
	m.reconfigPaid += int64(res.Loads)
	m.reconfigAvoided += int64(res.SavedLoads)
	if q := int64(res.PeakQueued); q > m.peakQueued {
		m.peakQueued = q
	}
	for i, d := range res.ISPBusy {
		m.ispBusySeconds[i] += d.Milliseconds() / 1000
	}
}

// observeTraceDrops accumulates recorder overflow across traced runs.
func (m *metrics) observeTraceDrops(n int64) {
	m.mu.Lock()
	m.traceDropped += n
	m.mu.Unlock()
}

// render writes the Prometheus text format: request counters, latency
// histograms, in-flight gauge, and the engine's cache counters. The
// text is built under the lock into a buffer, then written, so a slow
// reader never stalls request recording.
func (m *metrics) render(w io.Writer, eng *engine.Engine, inflight int) {
	var buf bytes.Buffer

	m.mu.Lock()
	fmt.Fprintf(&buf, "# TYPE drhwd_uptime_seconds gauge\n")
	fmt.Fprintf(&buf, "drhwd_uptime_seconds %g\n", m.now().Sub(m.started).Seconds())
	fmt.Fprintf(&buf, "# TYPE drhwd_inflight_requests gauge\n")
	fmt.Fprintf(&buf, "drhwd_inflight_requests %d\n", inflight)

	endpoints := make([]string, 0, len(m.requests))
	for ep := range m.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)

	fmt.Fprintf(&buf, "# TYPE drhwd_requests_total counter\n")
	for _, ep := range endpoints {
		byCode := m.requests[ep]
		codes := make([]int, 0, len(byCode))
		for c := range byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(&buf, "drhwd_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, c, byCode[c])
		}
	}
	fmt.Fprintf(&buf, "# TYPE drhwd_request_duration_seconds histogram\n")
	for _, ep := range endpoints {
		h := m.latency[ep]
		var cum int64
		for i, le := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(&buf, "drhwd_request_duration_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", ep, le, cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(&buf, "drhwd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(&buf, "drhwd_request_duration_seconds_sum{endpoint=%q} %g\n", ep, h.sum)
		fmt.Fprintf(&buf, "drhwd_request_duration_seconds_count{endpoint=%q} %d\n", ep, h.total)
	}

	// Simulation-outcome families: the run-time reconfiguration story
	// of every simulation this replica has completed. Both execution
	// labels always render (zeros included) so rate() queries never see
	// a series appear mid-scrape.
	fmt.Fprintf(&buf, "# TYPE drhwd_sim_runs_total counter\n")
	fmt.Fprintf(&buf, "drhwd_sim_runs_total{execution=\"sequential\"} %d\n", m.simSequential)
	fmt.Fprintf(&buf, "drhwd_sim_runs_total{execution=\"sharded\"} %d\n", m.simSharded)
	fmt.Fprintf(&buf, "# TYPE drhwd_sim_prefetch_hits_total counter\n")
	fmt.Fprintf(&buf, "drhwd_sim_prefetch_hits_total %d\n", m.prefetchHits)
	fmt.Fprintf(&buf, "# TYPE drhwd_sim_demand_misses_total counter\n")
	fmt.Fprintf(&buf, "drhwd_sim_demand_misses_total %d\n", m.demandMisses)
	fmt.Fprintf(&buf, "# TYPE drhwd_sim_reconfig_paid_total counter\n")
	fmt.Fprintf(&buf, "drhwd_sim_reconfig_paid_total %d\n", m.reconfigPaid)
	fmt.Fprintf(&buf, "# TYPE drhwd_sim_reconfig_avoided_total counter\n")
	fmt.Fprintf(&buf, "drhwd_sim_reconfig_avoided_total %d\n", m.reconfigAvoided)
	fmt.Fprintf(&buf, "# TYPE drhwd_sim_peak_queued_instances gauge\n")
	fmt.Fprintf(&buf, "drhwd_sim_peak_queued_instances %d\n", m.peakQueued)
	if len(m.ispBusySeconds) > 0 {
		isps := make([]int, 0, len(m.ispBusySeconds))
		for i := range m.ispBusySeconds {
			isps = append(isps, i)
		}
		sort.Ints(isps)
		fmt.Fprintf(&buf, "# TYPE drhwd_sim_isp_busy_seconds_total counter\n")
		for _, i := range isps {
			fmt.Fprintf(&buf, "drhwd_sim_isp_busy_seconds_total{isp=\"%d\"} %g\n", i, m.ispBusySeconds[i])
		}
	}
	fmt.Fprintf(&buf, "# TYPE drhwd_trace_dropped_events_total counter\n")
	fmt.Fprintf(&buf, "drhwd_trace_dropped_events_total %d\n", m.traceDropped)
	m.mu.Unlock()

	st := eng.CacheStats()
	fmt.Fprintf(&buf, "# TYPE drhwd_engine_cache_hits_total counter\n")
	fmt.Fprintf(&buf, "drhwd_engine_cache_hits_total %d\n", st.Hits)
	fmt.Fprintf(&buf, "# TYPE drhwd_engine_cache_misses_total counter\n")
	fmt.Fprintf(&buf, "drhwd_engine_cache_misses_total %d\n", st.Misses)
	fmt.Fprintf(&buf, "# TYPE drhwd_engine_cache_evictions_total counter\n")
	fmt.Fprintf(&buf, "drhwd_engine_cache_evictions_total %d\n", st.Evictions)
	fmt.Fprintf(&buf, "# TYPE drhwd_engine_cache_entries gauge\n")
	fmt.Fprintf(&buf, "drhwd_engine_cache_entries %d\n", st.Entries)
	fmt.Fprintf(&buf, "# TYPE drhwd_engine_workers gauge\n")
	fmt.Fprintf(&buf, "drhwd_engine_workers %d\n", eng.Workers())

	// Tiered-store families (peer-fill replicas only). All three tier
	// labels always render so rate() queries never see a series appear
	// mid-scrape; the fetch histogram counts successful fills only —
	// failures land in the error/reject counters.
	if ts, ok := eng.Store().(tierStatser); ok {
		t := ts.TierStats()
		fmt.Fprintf(&buf, "# TYPE drhwd_store_tier_hits_total counter\n")
		fmt.Fprintf(&buf, "drhwd_store_tier_hits_total{tier=\"local\"} %d\n", t.Local)
		fmt.Fprintf(&buf, "drhwd_store_tier_hits_total{tier=\"peer\"} %d\n", t.Peer)
		fmt.Fprintf(&buf, "drhwd_store_tier_hits_total{tier=\"compute\"} %d\n", t.Compute)
		fmt.Fprintf(&buf, "# TYPE drhwd_store_peer_errors_total counter\n")
		fmt.Fprintf(&buf, "drhwd_store_peer_errors_total %d\n", t.PeerErrors)
		fmt.Fprintf(&buf, "# TYPE drhwd_store_artifacts_rejected_total counter\n")
		fmt.Fprintf(&buf, "drhwd_store_artifacts_rejected_total %d\n", t.Rejected)
		fmt.Fprintf(&buf, "# TYPE drhwd_store_peer_fetch_seconds histogram\n")
		var cum int64
		for i, le := range peerstore.FetchBucketBounds {
			cum += t.FetchBuckets[i]
			fmt.Fprintf(&buf, "drhwd_store_peer_fetch_seconds_bucket{le=\"%g\"} %d\n", le, cum)
		}
		cum += t.FetchBuckets[len(peerstore.FetchBucketBounds)]
		fmt.Fprintf(&buf, "drhwd_store_peer_fetch_seconds_bucket{le=\"+Inf\"} %d\n", cum)
		fmt.Fprintf(&buf, "drhwd_store_peer_fetch_seconds_sum %g\n", t.FetchSumSeconds)
		fmt.Fprintf(&buf, "drhwd_store_peer_fetch_seconds_count %d\n", t.FetchCount)
	}

	w.Write(buf.Bytes())
}
