package server

import (
	"bytes"
	"io"
	"maps"
	"slices"
	"strconv"
	"sync"
	"time"

	"drhwsched/internal/engine"
	"drhwsched/internal/httpd"
	"drhwsched/internal/obs"
	"drhwsched/internal/peerstore"
	"drhwsched/internal/sim"
)

// tierStatser is implemented by tiered analysis stores
// (peerstore.Store): when the engine runs over one, /metrics gains the
// per-tier hit counters and the peer-fill latency histogram.
type tierStatser interface {
	TierStats() peerstore.TierStats
}

// metrics aggregates the shell's per-endpoint request counts and
// latency histograms, plus the simulation-outcome counters every
// completed run folds in (prefetch attribution, reconfigurations paid
// vs avoided, queueing pressure, per-ISP utilization, trace drops).
// All methods are safe for concurrent use.
type metrics struct {
	mu       sync.Mutex
	now      func() time.Time // injectable clock (tests pin uptime)
	started  time.Time
	requests httpd.Requests

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
		ispBusySeconds: map[int]float64{},
	}
	m.started = m.now()
	return m
}

// observe records one finished request; the shell calls it.
func (m *metrics) observe(endpoint string, code int, d time.Duration) {
	m.requests.Observe(endpoint, code, d)
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

// render writes the Prometheus text format: uptime and in-flight
// gauges, the request families, the simulation-outcome families, and
// the engine's cache counters. The text is built under the lock into a
// buffer, then written, so a slow reader never stalls request
// recording.
func (m *metrics) render(w io.Writer, eng *engine.Engine, inflight int) {
	var buf bytes.Buffer
	pw := obs.NewWriter(&buf)

	m.mu.Lock()
	pw.Family("drhwd_uptime_seconds", "gauge").Float(m.now().Sub(m.started).Seconds())
	pw.Family("drhwd_inflight_requests", "gauge").Int(int64(inflight))

	m.requests.Render(&buf, "drhwd")

	// Simulation-outcome families: the run-time reconfiguration story
	// of every simulation this replica has completed. Both execution
	// labels always render (zeros included) so rate() queries never see
	// a series appear mid-scrape.
	pw.Family("drhwd_sim_runs_total", "counter")
	pw.Int(m.simSequential, "execution", "sequential")
	pw.Int(m.simSharded, "execution", "sharded")
	pw.Family("drhwd_sim_prefetch_hits_total", "counter").Int(m.prefetchHits)
	pw.Family("drhwd_sim_demand_misses_total", "counter").Int(m.demandMisses)
	pw.Family("drhwd_sim_reconfig_paid_total", "counter").Int(m.reconfigPaid)
	pw.Family("drhwd_sim_reconfig_avoided_total", "counter").Int(m.reconfigAvoided)
	pw.Family("drhwd_sim_peak_queued_instances", "gauge").Int(m.peakQueued)
	pw.Family("drhwd_sim_isp_busy_seconds_total", "counter")
	for _, i := range slices.Sorted(maps.Keys(m.ispBusySeconds)) {
		pw.Float(m.ispBusySeconds[i], "isp", strconv.Itoa(i))
	}
	pw.Family("drhwd_trace_dropped_events_total", "counter").Int(m.traceDropped)
	m.mu.Unlock()

	st := eng.CacheStats()
	pw.Family("drhwd_engine_cache_hits_total", "counter").Int(st.Hits)
	pw.Family("drhwd_engine_cache_misses_total", "counter").Int(st.Misses)
	pw.Family("drhwd_engine_cache_evictions_total", "counter").Int(st.Evictions)
	pw.Family("drhwd_engine_cache_entries", "gauge").Int(int64(st.Entries))
	pw.Family("drhwd_engine_workers", "gauge").Int(int64(eng.Workers()))

	// Tiered-store families (peer-fill replicas only). All three tier
	// labels always render so rate() queries never see a series appear
	// mid-scrape; the fetch histogram counts successful fills only —
	// failures land in the error/reject counters.
	if ts, ok := eng.Store().(tierStatser); ok {
		t := ts.TierStats()
		pw.Family("drhwd_store_tier_hits_total", "counter")
		pw.Int(t.Local, "tier", "local")
		pw.Int(t.Peer, "tier", "peer")
		pw.Int(t.Compute, "tier", "compute")
		pw.Family("drhwd_store_peer_errors_total", "counter").Int(t.PeerErrors)
		pw.Family("drhwd_store_artifacts_rejected_total", "counter").Int(t.Rejected)
		pw.Family("drhwd_store_peer_fetch_seconds", "histogram").Histogram(&t.Fetch)
	}

	w.Write(buf.Bytes())
}
