// Command drhwcoord is the cluster coordinator: it accepts drhwd's
// /v1/sweep request shape, shards the sweep grid across a pool of
// drhwd replicas by analysis fingerprint on a consistent-hash ring,
// merges the replicas' NDJSON cell streams into one client stream
// (global cell indices preserved), and retries undelivered cells on
// surviving replicas when a replica dies or stalls mid-stream.
//
// Usage:
//
//	drhwcoord -replica URL[,URL...] [-replica URL ...]
//	          [-addr host:port] [-vnodes N] [-max-inflight N]
//	          [-max-subtasks N] [-max-sweep-cells N]
//	          [-idle-timeout D] [-retry-waves N] [-backoff D]
//	          [-max-backoff D] [-drain D] [-evict-after N]
//	          [-pprof-addr host:port]
//
// Endpoints: POST /v1/sweep (streaming NDJSON), GET /healthz (pool
// health with per-replica identity and cache counters), GET /metrics,
// and GET/POST /v1/replicas — the hot add/remove admin surface.
// Removing a replica drains it: out of future sweeps, but kept in
// every peer set so its warm cache serves peer fills while its keys
// re-home. Adding it back (or a fresh URL) rejoins the ring; every
// membership change pushes the updated peer set to all members'
// /v1/peers. A replica that fails -evict-after consecutive health
// probes is dropped entirely.
//
// Use -addr 127.0.0.1:0 for an ephemeral port; the bound address is
// logged as "listening on HOST:PORT" once the listener is up. SIGINT
// and SIGTERM trigger a graceful drain, same as drhwd.
//
// Per-request and per-shard-dispatch records (trace and span IDs,
// replica, wave, timing) are structured slog lines on stderr.
// -pprof-addr opens a second listener serving net/http/pprof — keep it
// on a private address; it is off unless the flag is set.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"drhwsched/internal/cluster"
	"drhwsched/internal/httpd/pprofd"
	"drhwsched/internal/peerstore"
)

// urlList collects repeated -replica flags, each of which may itself
// be a comma-separated list. Duplicates (after trailing-slash
// normalization) are rejected right here at parse time: a doubled URL
// would skew the hash ring toward one process, and catching it in the
// flag error names the offending URL before anything boots.
type urlList []string

func (l *urlList) String() string { return strings.Join(*l, ",") }

func (l *urlList) Set(v string) error {
	for _, u := range strings.Split(v, ",") {
		u = peerstore.NormalizeURL(u)
		if u == "" {
			continue
		}
		for _, have := range *l {
			if have == u {
				return fmt.Errorf("duplicate replica URL %q", u)
			}
		}
		*l = append(*l, u)
	}
	return nil
}

func main() {
	var replicas urlList
	var (
		addr        = flag.String("addr", "127.0.0.1:8090", "listen address (host:0 picks an ephemeral port)")
		vnodes      = flag.Int("vnodes", 0, "consistent-hash points per replica (0: 64)")
		maxInflight = flag.Int("max-inflight", 0, "admitted concurrent sweeps before 429 (0: 2*GOMAXPROCS)")
		maxSubtasks = flag.Int("max-subtasks", 0, "per-document subtask bound before 413 (0: 4096)")
		maxCells    = flag.Int("max-sweep-cells", 0, "per-sweep grid-cell bound before 413 (0: 1024)")
		idle        = flag.Duration("idle-timeout", 0, "replica stream idle bound before it is declared dead (0: 60s)")
		retryWaves  = flag.Int("retry-waves", 0, "re-dispatch waves after replica failures before giving up (0: 3)")
		backoff     = flag.Duration("backoff", 0, "first retry wave's backoff, doubling per wave (0: 100ms)")
		maxBackoff  = flag.Duration("max-backoff", 0, "retry backoff ceiling (0: 2s)")
		drain       = flag.Duration("drain", 0, "shutdown drain budget for in-flight sweeps (0: 10s)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this side address (empty: disabled)")
		evictAfter  = flag.Int("evict-after", 0, "consecutive failed health probes before a replica is evicted (0: 3, negative: never)")
	)
	flag.Var(&replicas, "replica", "drhwd replica base URL (repeatable; accepts comma-separated lists)")
	flag.Parse()

	if len(replicas) == 0 {
		fmt.Fprintln(os.Stderr, "drhwcoord: at least one -replica URL is required")
		flag.Usage()
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	if *pprofAddr != "" {
		pprofd.Serve(*pprofAddr, logger.Printf)
	}
	coord, err := cluster.New(cluster.Config{
		Replicas:          replicas,
		VNodes:            *vnodes,
		MaxInFlight:       *maxInflight,
		MaxSubtasks:       *maxSubtasks,
		MaxSweepCells:     *maxCells,
		StreamIdleTimeout: *idle,
		MaxRetryWaves:     *retryWaves,
		RetryBackoff:      *backoff,
		MaxRetryBackoff:   *maxBackoff,
		DrainTimeout:      *drain,
		EvictAfterProbes:  *evictAfter,
		Logf:              logger.Printf,
		Logger:            slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "drhwcoord: %v\n", err)
		os.Exit(1)
	}

	// Seed every replica's peer set from the configured pool; replicas
	// that are not up yet (or run -peer-fill=false) just miss a
	// best-effort push and catch the next membership change.
	coord.SyncPeers()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	if err := coord.ListenAndServe(ctx, *addr); err != nil {
		fmt.Fprintf(os.Stderr, "drhwcoord: %v\n", err)
		os.Exit(1)
	}
	logger.Printf("drhwcoord: exiting after %v", time.Since(start).Round(time.Millisecond))
}
