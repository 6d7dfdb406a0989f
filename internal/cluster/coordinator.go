package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"drhwsched/internal/httpd"
	"drhwsched/internal/obs"
	"drhwsched/internal/server"
)

// Config sizes a coordinator. Replicas is required; everything else
// has usable defaults.
type Config struct {
	// Replicas are the drhwd base URLs forming the pool. Every sweep
	// starts from the full configured pool, so a replica that failed
	// during one request is probed again by the next.
	Replicas []string
	// VNodes is the consistent-hash points per replica; zero or
	// negative means DefaultVNodes.
	VNodes int
	// MaxInFlight bounds concurrently admitted sweeps (healthz and
	// metrics are exempt); excess requests are refused with 429. Zero
	// or negative means 2×GOMAXPROCS.
	MaxInFlight int
	// MaxSubtasks and MaxSweepCells mirror drhwd's admission bounds
	// (413 when exceeded); zero or negative means 4096 and 1024. The
	// coordinator checks them before fanning out, so an oversized
	// request never touches the pool.
	MaxSubtasks   int
	MaxSweepCells int
	// MaxBodyBytes bounds the request body; zero or negative means
	// 1 MiB.
	MaxBodyBytes int64
	// StreamIdleTimeout bounds the silence on one replica's cell
	// stream before the coordinator declares it dead and retries its
	// remaining cells elsewhere. Zero or negative means 60 s.
	StreamIdleTimeout time.Duration
	// MaxRetryWaves caps how many times the coordinator re-hashes the
	// ring and re-dispatches undelivered cells after replica failures.
	// Zero or negative means 3.
	MaxRetryWaves int
	// RetryBackoff is the first wave's backoff; it doubles per wave up
	// to MaxRetryBackoff. Zero or negative means 100 ms and 2 s.
	RetryBackoff    time.Duration
	MaxRetryBackoff time.Duration
	// DrainTimeout is how long Serve waits for in-flight requests on
	// shutdown. Zero or negative means 10 s.
	DrainTimeout time.Duration
	// EvictAfterProbes is how many consecutive failed /healthz probes
	// drop a replica from the cluster entirely — out of the sweep pool
	// and out of every peer set (a dead process serves no peer fills).
	// Zero means 3; negative disables probe-driven eviction.
	EvictAfterProbes int
	// HTTPClient issues the replica requests; nil means a client
	// without an overall timeout (streams are bounded by
	// StreamIdleTimeout instead).
	HTTPClient *http.Client
	// Logf receives lifecycle log lines (nil: silent). The "listening
	// on HOST:PORT" line is a stable contract scripts grep for.
	Logf func(format string, args ...any)
	// Logger receives structured per-request and per-shard records
	// (endpoint, status, trace/span IDs, replica, timing). Nil means no
	// structured log.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.MaxSubtasks <= 0 {
		c.MaxSubtasks = 4096
	}
	if c.MaxSweepCells <= 0 {
		c.MaxSweepCells = 1024
	}
	if c.StreamIdleTimeout <= 0 {
		c.StreamIdleTimeout = 60 * time.Second
	}
	if c.MaxRetryWaves <= 0 {
		c.MaxRetryWaves = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.MaxRetryBackoff <= 0 {
		c.MaxRetryBackoff = 2 * time.Second
	}
	if c.EvictAfterProbes == 0 {
		c.EvictAfterProbes = 3
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
}

// Coordinator accepts drhwd's /v1/sweep request shape, shards the grid
// across the replica pool by analysis fingerprint, merges the per-cell
// NDJSON streams in completion order (global indices preserved), and
// retries undelivered cells on surviving replicas when a replica fails
// or stalls. It implements http.Handler; cmd/drhwcoord runs it via
// ListenAndServe.
type Coordinator struct {
	cfg     Config
	shell   *httpd.Shell
	metrics *metrics

	// poolMu guards the dynamic membership below. pool holds the
	// replicas sweeps shard across. drained holds admin-removed
	// replicas: out of every sweep, but still in every peer set, so
	// their warm caches keep serving peer fills while their former
	// keys re-home. failStreak counts consecutive failed health
	// probes per URL, feeding EvictAfterProbes.
	poolMu     sync.Mutex
	pool       map[string]*Replica
	drained    map[string]*Replica
	failStreak map[string]int
}

// New builds a coordinator over cfg.Replicas. Duplicate replica URLs
// (after trailing-slash normalization) are a configuration error: a
// doubled URL would silently skew the hash ring toward one process.
func New(cfg Config) (*Coordinator, error) {
	cfg.fillDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas configured")
	}
	c := &Coordinator{
		cfg:        cfg,
		metrics:    newMetrics(),
		pool:       map[string]*Replica{},
		drained:    map[string]*Replica{},
		failStreak: map[string]int{},
	}
	for _, u := range cfg.Replicas {
		r := newReplica(u, cfg.HTTPClient)
		if r.URL == "" {
			return nil, fmt.Errorf("cluster: empty replica URL in pool")
		}
		if _, dup := c.pool[r.URL]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica URL %q in pool", r.URL)
		}
		c.pool[r.URL] = r
	}
	// The coordinator has no request deadline: a sweep runs as long as
	// its replicas keep streaming (StreamIdleTimeout bounds silence).
	sh := httpd.New(httpd.Config{
		Name:         "drhwcoord",
		Role:         "coordinator",
		IDPrefix:     "drhwcoord",
		MaxInFlight:  cfg.MaxInFlight,
		MaxBodyBytes: cfg.MaxBodyBytes,
		DrainTimeout: cfg.DrainTimeout,
		Observe:      c.metrics.requests.Observe,
		Logf:         cfg.Logf,
		Logger:       cfg.Logger,
	})
	c.shell = sh
	sh.Handle("/healthz", sh.Instrument("healthz", http.MethodGet, false, c.handleHealthz))
	sh.Handle("/metrics", sh.Instrument("metrics", http.MethodGet, false, c.handleMetrics))
	sh.Handle("/v1/sweep", sh.Instrument("sweep", http.MethodPost, true, c.handleSweep))
	getReplicas := sh.Instrument("replicas", http.MethodGet, false, c.handleReplicasGet)
	postReplicas := sh.Instrument("replicas", http.MethodPost, false, c.handleReplicasUpdate)
	sh.Handle("/v1/replicas", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			getReplicas.ServeHTTP(w, r)
			return
		}
		postReplicas.ServeHTTP(w, r)
	}))
	return c, nil
}

// Replicas lists the active pool (the replicas sweeps shard across),
// sorted.
func (c *Coordinator) Replicas() []string {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	return sortedKeys(c.pool)
}

// Drained lists the admin-removed replicas that still serve peer
// fills, sorted.
func (c *Coordinator) Drained() []string {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	return sortedKeys(c.drained)
}

func sortedKeys(m map[string]*Replica) []string {
	out := make([]string, 0, len(m))
	for u := range m {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// ServeHTTP dispatches to the coordinator's routes.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.shell.ServeHTTP(w, r) }

// Serve runs the coordinator on l until ctx is canceled, then drains
// in-flight requests for up to DrainTimeout.
func (c *Coordinator) Serve(ctx context.Context, l net.Listener) error { return c.shell.Serve(ctx, l) }

// ListenAndServe binds addr (host:0 picks an ephemeral port; the bound
// address is logged via Config.Logf) and serves until ctx is canceled.
func (c *Coordinator) ListenAndServe(ctx context.Context, addr string) error {
	return c.shell.ListenAndServe(ctx, addr, fmt.Sprintf("replicas=%d, vnodes=%d, idle=%v",
		len(c.Replicas()), c.cfg.VNodes, c.cfg.StreamIdleTimeout))
}

// member is one replica the coordinator probes and lists in peer sets.
type member struct {
	rep     *Replica
	drained bool // admin-removed: peer fills only, no sweep shards
}

// members snapshots the pool and the drained set, sorted by URL.
func (c *Coordinator) members() []member {
	c.poolMu.Lock()
	out := make([]member, 0, len(c.pool)+len(c.drained))
	for _, rep := range c.pool {
		out = append(out, member{rep, false})
	}
	for _, rep := range c.drained {
		out = append(out, member{rep, true})
	}
	c.poolMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].rep.URL < out[j].rep.URL })
	return out
}

// HealthResponse is the coordinator's /healthz body: the pool's
// per-replica health (identity and cache counters as each replica
// reported them). Status is "ok" while at least one replica answers.
type HealthResponse struct {
	Status   string          `json:"status"`
	Replicas []ReplicaHealth `json:"replicas"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	tp := httpd.TraceFrom(r.Context())
	members := c.members()
	out := make([]ReplicaHealth, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = m.rep.Health(ctx, tp.Child().String())
			out[i].Drained = m.drained
		}()
	}
	wg.Wait()
	c.noteProbes(out)
	resp := HealthResponse{Status: "down", Replicas: out}
	for _, h := range out {
		if h.OK && !h.Drained {
			resp.Status = "ok"
			break
		}
	}
	code := http.StatusOK
	if resp.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	return httpd.WriteJSON(w, code, resp)
}

// noteProbes feeds one /healthz round into the per-URL failure
// streaks and evicts members whose streak reached EvictAfterProbes:
// they leave the pool, the drained set, and every peer set — a dead
// process serves no fills — and the shrunken peer set is pushed to
// the survivors.
func (c *Coordinator) noteProbes(probes []ReplicaHealth) {
	if c.cfg.EvictAfterProbes < 0 {
		return
	}
	var evicted []string
	c.poolMu.Lock()
	for _, h := range probes {
		if h.OK {
			delete(c.failStreak, h.URL)
			continue
		}
		c.failStreak[h.URL]++
		if c.failStreak[h.URL] < c.cfg.EvictAfterProbes {
			continue
		}
		_, inPool := c.pool[h.URL]
		_, inDrained := c.drained[h.URL]
		if !inPool && !inDrained {
			continue
		}
		delete(c.pool, h.URL)
		delete(c.drained, h.URL)
		delete(c.failStreak, h.URL)
		evicted = append(evicted, h.URL)
	}
	c.poolMu.Unlock()
	if len(evicted) == 0 {
		return
	}
	for _, u := range evicted {
		c.shell.Log("evicting replica %s after %d failed probes", u, c.cfg.EvictAfterProbes)
		c.metrics.replicasEvicted.Add(1)
	}
	c.pushPeers()
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.poolMu.Lock()
	active, drained := len(c.pool), len(c.drained)
	c.poolMu.Unlock()
	c.metrics.render(w, active, drained)
	return nil
}

// SweepSummary terminates the coordinator's merged stream: the global
// cell accounting plus the fan-out telemetry (shards issued, cells
// retried, retry waves, surviving replicas) and the replica cache
// counters summed over the pool. A client that never sees done=true
// knows its sweep was cut short.
type SweepSummary struct {
	Done         bool             `json:"done"`
	Cells        int              `json:"cells"`
	Delivered    int              `json:"delivered"`
	Errors       int              `json:"errors"`
	Replicas     int              `json:"replicas"`
	Shards       int              `json:"shards"`
	RetriedCells int              `json:"retried_cells"`
	RetryWaves   int              `json:"retry_waves"`
	Cache        server.CacheWire `json:"cache"`
	// TraceID is the W3C trace the whole sweep ran under; every shard
	// dispatch below carries a child span of it. ShardDispatches lists
	// each dispatch (retries included) with its span ID and timing, so
	// the summary doubles as a flat trace of the fan-out.
	TraceID         string          `json:"trace_id,omitempty"`
	ShardDispatches []ShardDispatch `json:"shard_dispatches,omitempty"`
}

// ShardDispatch is one sub-sweep attempt: the replica it went to, the
// child span it carried (unique per attempt, even across retries of
// the same cells), the wave it belonged to, its wall-clock duration as
// the coordinator measured it, and the error if it failed.
type ShardDispatch struct {
	Replica   string  `json:"replica"`
	SpanID    string  `json:"span_id"`
	Wave      int     `json:"wave"`
	Values    int     `json:"values"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Error     string  `json:"error,omitempty"`
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) error {
	sw, err := server.ReadSweep(r, c.cfg.MaxSubtasks, c.cfg.MaxSweepCells)
	if err != nil {
		return err
	}
	grid := &Grid{Sweep: sw}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	http.NewResponseController(w).Flush() // commit the headers before the first shard answers
	sum, err := c.runSweep(r.Context(), httpd.TraceFrom(r.Context()), grid, w)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if err := json.NewEncoder(w).Encode(sum); err != nil {
		return fmt.Errorf("sweep: writing summary: %w", err)
	}
	http.NewResponseController(w).Flush()
	return nil
}

// shardOut is one sub-sweep's outcome.
type shardOut struct {
	url     string
	span    string
	values  int
	elapsed time.Duration
	sum     *server.SweepSummary
	err     error
}

// runSweep fans the grid out over the pool and merges the cell streams
// into w, retrying undelivered cells when replicas fail. On success the
// returned summary accounts for every grid cell exactly once.
func (c *Coordinator) runSweep(parent context.Context, tp obs.TraceParent, grid *Grid, w http.ResponseWriter) (*SweepSummary, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	// Snapshot the active pool: membership changes mid-sweep apply to
	// the next sweep, not this one (a drained replica still finishes
	// the shard it already holds).
	live := map[string]*Replica{}
	c.poolMu.Lock()
	for u, r := range c.pool {
		live[u] = r
	}
	c.poolMu.Unlock()
	delivered := make([]bool, grid.Cells())
	pending := make([]int, len(grid.Values)) // value positions with undelivered cells
	for vi := range pending {
		pending[vi] = vi
	}

	// The merge: every replica stream funnels through mu into one
	// NDJSON writer. Cells are deduplicated by global index, so a
	// retried value whose earlier cells did arrive never double-emits.
	var mu sync.Mutex
	var writeErr error
	enc := json.NewEncoder(w)
	deliveredCount, errCells := 0, 0
	onCell := func(vis []int, cell server.SweepCell) {
		li := cell.Index % len(grid.Lines)
		lvi := cell.Index / len(grid.Lines)
		if lvi >= len(vis) || li >= len(grid.Lines) {
			return // malformed replica index; the cell stays pending
		}
		gi := grid.Index(vis[lvi], li)
		mu.Lock()
		defer mu.Unlock()
		if delivered[gi] || writeErr != nil {
			return
		}
		cell.Index = gi
		if err := enc.Encode(cell); err != nil {
			writeErr = err
			cancel() // the client is gone; unwind every replica stream
			return
		}
		http.NewResponseController(w).Flush()
		delivered[gi] = true
		deliveredCount++
		if cell.Error != "" {
			errCells++
		}
	}

	summaries := map[string]server.SweepSummary{} // latest per replica
	var dispatches []ShardDispatch
	totalShards, retriedCells, failures, waves := 0, 0, 0, 0
	for {
		if len(live) == 0 {
			return nil, fmt.Errorf("no replicas left with %d cells undelivered", grid.Cells()-deliveredCount)
		}
		urls := make([]string, 0, len(live))
		for u := range live {
			urls = append(urls, u)
		}
		ring := NewRing(urls, c.cfg.VNodes)
		assignment := grid.Assign(ring, pending)

		results := make(chan shardOut, len(assignment))
		for url, vis := range assignment {
			rep, vis := live[url], vis
			values := make([]int, len(vis))
			for i, vi := range vis {
				values[i] = grid.Values[vi]
			}
			sub := server.SweepRequest{
				Workload:   grid.Raw,
				Param:      grid.Param,
				Values:     values,
				Approaches: grid.Lines,
			}
			// Every dispatch gets its own child span — a retry of the
			// same cells on another wave is a new attempt and must not
			// reuse a span ID.
			span := tp.Child()
			go func() {
				shardStart := time.Now()
				sum, err := rep.SweepShard(ctx, sub, span.String(), c.cfg.StreamIdleTimeout, func(cell server.SweepCell) {
					onCell(vis, cell)
				})
				results <- shardOut{url: rep.URL, span: span.SpanIDString(),
					values: len(vis), elapsed: time.Since(shardStart), sum: sum, err: err}
			}()
		}
		totalShards += len(assignment)
		for range assignment {
			out := <-results
			d := ShardDispatch{Replica: out.url, SpanID: out.span, Wave: waves,
				Values: out.values, ElapsedMS: float64(out.elapsed.Microseconds()) / 1000}
			if out.err != nil {
				d.Error = out.err.Error()
			}
			dispatches = append(dispatches, d)
			if c.cfg.Logger != nil {
				c.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "shard",
					slog.String("replica", out.url),
					slog.String("trace_id", tp.TraceIDString()),
					slog.String("span_id", out.span),
					slog.Int("wave", waves),
					slog.Int("values", out.values),
					slog.Duration("duration", out.elapsed),
					slog.Bool("ok", out.err == nil),
				)
			}
			if out.err != nil {
				if ctx.Err() == nil {
					c.shell.Log("replica %s failed mid-sweep: %v", out.url, out.err)
					failures++
					delete(live, out.url)
				}
				continue
			}
			summaries[out.url] = *out.sum
		}
		mu.Lock()
		wErr := writeErr
		mu.Unlock()
		if wErr != nil {
			return nil, fmt.Errorf("writing cell: %w", wErr)
		}
		if err := parent.Err(); err != nil {
			return nil, err
		}

		pending = pending[:0]
		missing := 0
		for vi := range grid.Values {
			undone := 0
			for li := range grid.Lines {
				if !delivered[grid.Index(vi, li)] {
					undone++
				}
			}
			if undone > 0 {
				pending = append(pending, vi)
				missing += undone
			}
		}
		if missing == 0 {
			break
		}
		waves++
		retriedCells += missing
		if waves > c.cfg.MaxRetryWaves {
			return nil, fmt.Errorf("%d cells undelivered after %d retry waves", missing, c.cfg.MaxRetryWaves)
		}
		backoff := min(c.cfg.RetryBackoff<<(waves-1), c.cfg.MaxRetryBackoff)
		c.shell.Log("retry wave %d: %d cells across %d values, backoff %v, %d replicas left",
			waves, missing, len(pending), backoff, len(live))
		select {
		case <-time.After(backoff):
		case <-parent.Done():
			return nil, parent.Err()
		}
	}

	sum := &SweepSummary{
		Done:            true,
		Cells:           grid.Cells(),
		Delivered:       deliveredCount,
		Errors:          errCells,
		Replicas:        len(live),
		Shards:          totalShards,
		RetriedCells:    retriedCells,
		RetryWaves:      waves,
		TraceID:         tp.TraceIDString(),
		ShardDispatches: dispatches,
	}
	for _, s := range summaries {
		sum.Cache.Hits += s.Cache.Hits
		sum.Cache.Misses += s.Cache.Misses
		sum.Cache.Evictions += s.Cache.Evictions
		sum.Cache.Entries += s.Cache.Entries
	}
	if total := sum.Cache.Hits + sum.Cache.Misses; total > 0 {
		sum.Cache.HitRate = float64(sum.Cache.Hits) / float64(total)
	}
	c.metrics.sweepDone(deliveredCount, retriedCells, failures, totalShards)
	return sum, nil
}
