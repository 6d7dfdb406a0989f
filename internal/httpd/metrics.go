package httpd

import (
	"bytes"
	"maps"
	"slices"
	"strconv"
	"sync"
	"time"

	"drhwsched/internal/obs"
)

// latencyBuckets are the request-duration histogram upper bounds in
// seconds. Analyses return in microseconds to milliseconds; full
// simulations and sweeps run for seconds, hence the wide spread.
var latencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// endpointStats are one endpoint's request counts by status code and
// its latency histogram.
type endpointStats struct {
	codes   map[int]int64
	latency obs.Histogram
}

// Requests counts requests per endpoint and status code and keeps one
// latency histogram per endpoint. The zero value is ready to use; it
// is safe for concurrent use.
type Requests struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
}

// Observe records one finished request.
func (m *Requests) Observe(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.endpoints[endpoint]
	if e == nil {
		if m.endpoints == nil {
			m.endpoints = map[string]*endpointStats{}
		}
		e = &endpointStats{codes: map[int]int64{}, latency: obs.NewHistogram(latencyBuckets)}
		m.endpoints[endpoint] = e
	}
	e.codes[code]++
	e.latency.Observe(d.Seconds())
}

// Render appends the PREFIX_requests_total counter and the
// PREFIX_request_duration_seconds histogram in Prometheus text format,
// endpoints sorted; before the first request neither family appears.
func (m *Requests) Render(buf *bytes.Buffer, prefix string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	endpoints := slices.Sorted(maps.Keys(m.endpoints))
	w := obs.NewWriter(buf).Family(prefix+"_requests_total", "counter")
	for _, ep := range endpoints {
		byCode := m.endpoints[ep].codes
		for _, c := range slices.Sorted(maps.Keys(byCode)) {
			w.Int(byCode[c], "endpoint", ep, "code", strconv.Itoa(c))
		}
	}
	w.Family(prefix+"_request_duration_seconds", "histogram")
	for _, ep := range endpoints {
		w.Histogram(&m.endpoints[ep].latency, "endpoint", ep)
	}
}
