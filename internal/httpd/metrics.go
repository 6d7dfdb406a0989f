package httpd

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"
)

// latencyBuckets are the request-duration histogram upper bounds in
// seconds. Analyses return in microseconds to milliseconds; full
// simulations and sweeps run for seconds, hence the wide spread.
var latencyBuckets = [...]float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram: one count per bucket
// plus a final +Inf slot.
type histogram struct {
	counts [len(latencyBuckets) + 1]int64
	sum    float64
	total  int64
}

// Requests counts requests per endpoint and status code and keeps one
// latency histogram per endpoint. The zero value is ready to use; it
// is safe for concurrent use.
type Requests struct {
	mu      sync.Mutex
	counts  map[string]map[int]int64
	latency map[string]*histogram
}

// Observe records one finished request.
func (m *Requests) Observe(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.counts == nil {
		m.counts = map[string]map[int]int64{}
		m.latency = map[string]*histogram{}
	}
	byCode := m.counts[endpoint]
	if byCode == nil {
		byCode = map[int]int64{}
		m.counts[endpoint] = byCode
	}
	byCode[code]++
	h := m.latency[endpoint]
	if h == nil {
		h = &histogram{}
		m.latency[endpoint] = h
	}
	seconds := d.Seconds()
	h.counts[sort.SearchFloat64s(latencyBuckets[:], seconds)]++
	h.sum += seconds
	h.total++
}

// Render appends the PREFIX_requests_total counter and the
// PREFIX_request_duration_seconds histogram in Prometheus text format,
// endpoints sorted.
func (m *Requests) Render(buf *bytes.Buffer, prefix string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	endpoints := make([]string, 0, len(m.counts))
	for ep := range m.counts {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)

	fmt.Fprintf(buf, "# TYPE %s_requests_total counter\n", prefix)
	for _, ep := range endpoints {
		byCode := m.counts[ep]
		codes := make([]int, 0, len(byCode))
		for c := range byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(buf, "%s_requests_total{endpoint=%q,code=\"%d\"} %d\n", prefix, ep, c, byCode[c])
		}
	}
	fmt.Fprintf(buf, "# TYPE %s_request_duration_seconds histogram\n", prefix)
	for _, ep := range endpoints {
		h := m.latency[ep]
		var cum int64
		for i, le := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(buf, "%s_request_duration_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", prefix, ep, le, cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(buf, "%s_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", prefix, ep, cum)
		fmt.Fprintf(buf, "%s_request_duration_seconds_sum{endpoint=%q} %g\n", prefix, ep, h.sum)
		fmt.Fprintf(buf, "%s_request_duration_seconds_count{endpoint=%q} %d\n", prefix, ep, h.total)
	}
}
