// Package server is the scheduling-as-a-service layer: a long-running
// HTTP/JSON daemon (cmd/drhwd) over the experiment engine.
//
// The paper's asymmetry — an expensive design-time analysis computed
// once, an O(N) run-time phase replayed per task arrival — is exactly
// the shape of a request/response service, and the engine already
// memoizes the expensive half in a single-flight LRU cache. The server
// owns one shared Engine, so concurrent clients analyzing or simulating
// the same workloads hit each other's cached analyses; this mirrors how
// run-time reconfiguration managers run as resident services in online
// hardware-multitasking systems.
//
// Endpoints:
//
//	POST /v1/analyze   workload document → per-scenario Critical-Subtask
//	                   set, stored design-time schedule, cold-start
//	                   overhead
//	POST /v1/simulate  workload document (with platform + sim blocks) →
//	                   full simulation aggregate with per-iteration tail
//	                   percentiles; ?stream=iterations streams one
//	                   NDJSON record per iteration, then the aggregate
//	                   as a done=true summary line
//	POST /v1/sweep     grid spec → NDJSON stream of per-cell results in
//	                   completion order, then a summary line
//	GET  /healthz      liveness
//	GET  /metrics      request counts, latency histograms, engine cache
//	                   counters (Prometheus text format)
//
// The HTTP shell is internal/httpd, shared with drhwcoord: a bounded
// in-flight slot pool (429), the request-body bound (413, as is a
// document over MaxSubtasks), and a per-request deadline whose context
// is threaded through the engine into the simulator, so an abandoned or
// over-budget request stops consuming workers at its next iteration
// boundary. Shutdown drains, then cancels the stragglers.
package server

import (
	"context"
	"crypto/rand"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"

	"drhwsched/internal/engine"
	"drhwsched/internal/httpd"
	"drhwsched/internal/peerstore"
)

// Config sizes the service. The zero value is fully usable.
type Config struct {
	// Engine is the shared analysis-caching engine; nil means a fresh
	// engine.New(engine.Config{}) (GOMAXPROCS workers, 256-entry cache).
	Engine *engine.Engine
	// MaxInFlight bounds concurrently admitted requests (healthz and
	// metrics are exempt); excess requests are refused with 429. Zero
	// or negative means 2×GOMAXPROCS.
	MaxInFlight int
	// MaxSubtasks bounds the total subtask definitions across one
	// document's scenario graphs; larger documents are refused with
	// 413. Zero or negative means 4096.
	MaxSubtasks int
	// MaxSweepCells bounds the grid size of one sweep request (values ×
	// approaches). Zero or negative means 1024.
	MaxSweepCells int
	// MaxBodyBytes bounds the request body; zero or negative means
	// 1 MiB.
	MaxBodyBytes int64
	// RequestTimeout is the per-request deadline, threaded through the
	// engine into the simulator. Zero or negative means 60 s.
	RequestTimeout time.Duration
	// DrainTimeout is how long Serve waits for in-flight requests on
	// shutdown before canceling their contexts. Zero or negative means
	// 10 s.
	DrainTimeout time.Duration
	// ReplicaID names this process in a replica pool; it is surfaced on
	// /healthz (with the cache counters) so a coordinator and operators
	// can verify which replica they reached and whether shard-cache
	// affinity is holding. Empty means a random "drhwd-xxxxxxxx".
	ReplicaID string
	// PeerStore, when the engine runs over a tiered peerstore.Store,
	// lets the coordinator update this replica's peer set live via
	// POST /v1/peers. Nil disables that endpoint; the GET /v1/analysis
	// peer endpoint serves from any engine store regardless.
	PeerStore *peerstore.Store
	// Logf receives lifecycle log lines (nil: silent). The "listening
	// on HOST:PORT" line is a stable contract scripts grep for.
	Logf func(format string, args ...any)
	// Logger receives structured per-request records (endpoint, status,
	// duration, request ID, trace/span IDs). Nil means no request log.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.MaxSubtasks <= 0 {
		c.MaxSubtasks = 4096
	}
	if c.MaxSweepCells <= 0 {
		c.MaxSweepCells = 1024
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.ReplicaID == "" {
		var b [4]byte
		rand.Read(b[:])
		c.ReplicaID = fmt.Sprintf("drhwd-%x", b)
	}
}

// Server is the HTTP scheduling service. It implements http.Handler,
// so it can be mounted in tests (httptest.NewServer) or behind other
// muxes; cmd/drhwd runs it via ListenAndServe.
type Server struct {
	cfg     Config
	eng     *engine.Engine
	shell   *httpd.Shell
	metrics *metrics
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	eng := cfg.Engine
	if eng == nil {
		eng = engine.New(engine.Config{})
	}
	s := &Server{cfg: cfg, eng: eng, metrics: newMetrics()}
	sh := httpd.New(httpd.Config{
		Name:           "drhwd",
		Role:           "server",
		IDPrefix:       cfg.ReplicaID,
		MaxInFlight:    cfg.MaxInFlight,
		MaxBodyBytes:   cfg.MaxBodyBytes,
		RequestTimeout: cfg.RequestTimeout,
		DrainTimeout:   cfg.DrainTimeout,
		Observe:        s.metrics.observe,
		Logf:           cfg.Logf,
		Logger:         cfg.Logger,
	})
	s.shell = sh
	sh.Handle("/healthz", sh.Instrument("healthz", http.MethodGet, false, s.handleHealthz))
	sh.Handle("/metrics", sh.Instrument("metrics", http.MethodGet, false, s.handleMetrics))
	sh.Handle("/v1/analyze", sh.Instrument("analyze", http.MethodPost, true, s.handleAnalyze))
	sh.Handle("/v1/simulate", sh.Instrument("simulate", http.MethodPost, true, s.handleSimulate))
	sh.Handle("/v1/sweep", sh.Instrument("sweep", http.MethodPost, true, s.handleSweep))
	// Peer-fill endpoints are control/fill plane, not workload: they
	// bypass the admission slot pool (admit=false). An admitted peer
	// fetch could deadlock two replicas sweeping at capacity — each
	// holding its own slots while waiting for a slot on the other.
	sh.Handle(peerstore.PathPrefix, sh.Instrument("analysis", http.MethodGet, false, peerstore.Handler(eng)))
	sh.Handle("/v1/peers", sh.Instrument("peers", http.MethodPost, false, s.handlePeers))
	return s
}

// Engine exposes the server's shared engine (tests assert on its
// CacheStats; embedders may pre-warm it).
func (s *Server) Engine() *engine.Engine { return s.eng }

// ReplicaID reports the identity the server advertises on /healthz.
func (s *Server) ReplicaID() string { return s.cfg.ReplicaID }

// ServeHTTP dispatches to the server's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.shell.ServeHTTP(w, r) }

// Serve runs the service on l until ctx is canceled, then drains:
// in-flight requests get DrainTimeout to finish before their contexts
// are canceled and the remaining connections are closed. Returns nil
// after a clean drain.
func (s *Server) Serve(ctx context.Context, l net.Listener) error { return s.shell.Serve(ctx, l) }

// ListenAndServe binds addr (use host:0 for an ephemeral port — the
// bound address is logged via Config.Logf) and serves until ctx is
// canceled.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	return s.shell.ListenAndServe(ctx, addr, fmt.Sprintf("inflight=%d, timeout=%v, workers=%d",
		s.shell.MaxInFlight, s.cfg.RequestTimeout, s.eng.Workers()))
}

// HealthResponse is the /healthz body: liveness plus the replica's
// identity and cache counters, so a coordinator (or an operator with
// curl) can verify which replica it reached and whether the shard's
// analyses are actually warming this replica's cache.
type HealthResponse struct {
	Status  string    `json:"status"`
	Replica string    `json:"replica"`
	Workers int       `json:"workers"`
	Cache   CacheWire `json:"cache"`
	// Store carries the tiered-store counters when the engine runs
	// over a peer-fill store, so a coordinator (or the smoke test) can
	// assert that re-homed keys filled over the network instead of
	// recomputing; absent on plain-LRU replicas.
	Store *peerstore.TierStats `json:"store,omitempty"`
	// TraceID echoes the request's W3C trace context (accepted from
	// the caller or minted here), so a coordinator health fan-out can
	// stitch its replica probes into one trace.
	TraceID string `json:"trace_id,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	resp := HealthResponse{
		Status:  "ok",
		Replica: s.cfg.ReplicaID,
		Workers: s.eng.Workers(),
		Cache:   cacheWire(s.eng.CacheStats()),
		TraceID: httpd.TraceFrom(r.Context()).TraceIDString(),
	}
	if ts, ok := s.eng.Store().(tierStatser); ok {
		t := ts.TierStats()
		resp.Store = &t
	}
	return httpd.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.render(w, s.eng, s.shell.InFlight())
	return nil
}
