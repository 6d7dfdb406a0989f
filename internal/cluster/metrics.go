package cluster

import (
	"bytes"
	"io"
	"sync/atomic"
	"time"

	"drhwsched/internal/httpd"
	"drhwsched/internal/obs"
)

// metrics aggregates the coordinator's counters for /metrics. The
// request families are the shell's, as on drhwd, so one scrape config
// covers both tiers of the fabric; names use the drhwcoord_ prefix.
type metrics struct {
	requests httpd.Requests
	started  time.Time

	sweeps          atomic.Int64 // completed coordinator sweeps
	cells           atomic.Int64 // cells merged into client streams
	cellRetries     atomic.Int64 // cells re-dispatched after a replica failure
	replicaFailures atomic.Int64 // replica streams abandoned (error or idle timeout)
	shards          atomic.Int64 // sub-sweeps issued (including retry waves)

	replicasAdded    atomic.Int64 // pool additions (hot-add and reactivation)
	replicasRemoved  atomic.Int64 // admin drains (pool → drained)
	replicasEvicted  atomic.Int64 // probe-driven evictions (dropped entirely)
	peerPushes       atomic.Int64 // successful /v1/peers pushes to members
	peerPushFailures atomic.Int64 // failed pushes (member falls back to compute)
}

func newMetrics() *metrics { return &metrics{started: time.Now()} }

func (m *metrics) sweepDone(cells, retried, failures, shards int) {
	m.sweeps.Add(1)
	m.cells.Add(int64(cells))
	m.cellRetries.Add(int64(retried))
	m.replicaFailures.Add(int64(failures))
	m.shards.Add(int64(shards))
}

// render writes the Prometheus text format. replicas is the active
// pool size; drained counts admin-removed members still serving peer
// fills.
func (m *metrics) render(w io.Writer, replicas, drained int) {
	var buf bytes.Buffer
	pw := obs.NewWriter(&buf)
	pw.Family("drhwcoord_uptime_seconds", "gauge").Float(time.Since(m.started).Seconds())
	pw.Family("drhwcoord_replicas", "gauge").Int(int64(replicas))
	pw.Family("drhwcoord_replicas_drained", "gauge").Int(int64(drained))
	m.requests.Render(&buf, "drhwcoord")
	for _, c := range []struct {
		name string
		v    *atomic.Int64
	}{
		{"sweeps", &m.sweeps}, {"cells", &m.cells}, {"cell_retries", &m.cellRetries},
		{"replica_failures", &m.replicaFailures}, {"shards", &m.shards},
		{"replicas_added", &m.replicasAdded}, {"replicas_removed", &m.replicasRemoved},
		{"replicas_evicted", &m.replicasEvicted},
		{"peer_pushes", &m.peerPushes}, {"peer_push_failures", &m.peerPushFailures},
	} {
		pw.Family("drhwcoord_"+c.name+"_total", "counter").Int(c.v.Load())
	}
	w.Write(buf.Bytes())
}
