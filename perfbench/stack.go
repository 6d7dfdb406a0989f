package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"drhwsched/internal/cluster"
	"drhwsched/internal/engine"
	"drhwsched/internal/obs"
	"drhwsched/internal/peerstore"
	"drhwsched/internal/server"
	"drhwsched/internal/sim"
	"drhwsched/internal/workload"
)

// stack is an in-process serving tier: drhwd replicas on loopback
// listeners, each over a peerstore.Store whose peers are the other
// replicas (drhwd's default), behind a cluster.Coordinator. With a
// tracer, handler middleware wraps every replica and the coordinator,
// and timing RoundTrippers wrap the coordinator's and the peer
// stores' HTTP clients.
type stack struct {
	tr       *tracer
	replicas []*replicaNode
	coordURL string
	servers  []*http.Server
	served   sync.WaitGroup
	client   *http.Client
	closers  []*http.Transport
}

type replicaNode struct {
	url string
	ps  *peerstore.Store
}

func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	return t
}

// startStack boots n replicas and a coordinator, each engine with
// nproc workers.
func startStack(n, nproc int, tr *tracer) (*stack, error) {
	s := &stack{tr: tr}
	var lns []net.Listener
	for i := 0; i <= n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("listening: %w", err)
		}
		lns = append(lns, ln)
	}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		urls[i] = "http://" + lns[i].Addr().String()
	}
	client := func(name func(*http.Request) string, parent string) *http.Client {
		base := newTransport()
		s.closers = append(s.closers, base)
		if tr == nil {
			return &http.Client{Transport: base}
		}
		return &http.Client{Transport: timedTransport{base, tr, name, parent}}
	}
	for i := 0; i < n; i++ {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		ps := peerstore.New(peerstore.Config{
			Peers:  peers,
			Client: client(func(*http.Request) string { return "peerstore.probe" }, "engine.store_get"),
		})
		var store engine.Store = ps
		if tr != nil {
			store = timedStore{ps, tr}
		}
		srv := server.New(server.Config{
			Engine:    engine.New(engine.Config{Workers: nproc, Store: store}),
			PeerStore: ps,
			ReplicaID: fmt.Sprintf("bench-replica-%d", i),
		})
		s.replicas = append(s.replicas, &replicaNode{url: urls[i], ps: ps})
		s.serve(lns[i], tr.middleware("server", srv))
	}
	coord, err := cluster.New(cluster.Config{
		Replicas: urls,
		HTTPClient: client(func(r *http.Request) string {
			if r.URL.Path == "/v1/sweep" {
				return "cluster.dispatch"
			}
			return ""
		}, "cluster.sweep"),
		EvictAfterProbes: -1,
	})
	if err != nil {
		lns[n].Close()
		s.close()
		return nil, err
	}
	s.coordURL = "http://" + lns[n].Addr().String()
	s.serve(lns[n], tr.middleware("cluster", coord))
	s.client = &http.Client{Transport: newTransport()}
	s.closers = append(s.closers, s.client.Transport.(*http.Transport))
	return s, nil
}

func (s *stack) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, hs)
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
}

// close shuts every server down and waits for their goroutines.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range s.servers {
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
	}
	s.served.Wait()
	for _, t := range s.closers {
		t.CloseIdleConnections()
	}
}

// tierStats folds the replicas' peer-store tier counters into tr.
func (s *stack) tierStats(tr *tracer) {
	for _, r := range s.replicas {
		ts := r.ps.TierStats()
		tr.count("tier.local", ts.Local)
		tr.count("tier.peer", ts.Peer)
		tr.count("tier.compute", ts.Compute)
	}
}

// post sends one workload request with a fresh W3C trace (its trace ID
// is the request ID every layer's span carries) and returns the body.
// A non-2xx status is an error. With a tracer the client span is
// recorded as "client.<class>".
func (s *stack) post(class, url string, body []byte) ([]byte, error) {
	tp := obs.NewTrace()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("traceparent", tp.String())
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.tr.span("client."+class, "", tp.TraceIDString(), "", start)
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// sweepOut is the coordinator's merged stream, split into cells and
// the summary.
type sweepOut struct {
	cells   []server.SweepCell
	summary cluster.SweepSummary
}

func parseSweep(data []byte) (*sweepOut, error) {
	out := &sweepOut{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	done := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var probe struct {
			Done *bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("sweep line: %w", err)
		}
		if probe.Done != nil {
			if err := json.Unmarshal(line, &out.summary); err != nil {
				return nil, fmt.Errorf("sweep summary: %w", err)
			}
			done = true
			continue
		}
		var c server.SweepCell
		if err := json.Unmarshal(line, &c); err != nil {
			return nil, fmt.Errorf("sweep cell: %w", err)
		}
		out.cells = append(out.cells, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !done || !out.summary.Done {
		return nil, errors.New("sweep stream ended without a done summary")
	}
	return out, nil
}

// sweepBody builds a /v1/sweep request over tile counts × approaches.
func sweepBody(doc []byte, tiles []int, approaches []string) []byte {
	b, _ := json.Marshal(server.SweepRequest{Workload: doc, Param: "tiles", Values: tiles, Approaches: approaches})
	return b
}

// expectedSweep is the in-process engine.Sweep of a sweep request's
// grid, in the server's cell order (values × approaches).
func expectedSweep(eng *engine.Engine, body []byte) ([]engine.RunResult, error) {
	runs, err := sweepRuns(body)
	if err != nil {
		return nil, err
	}
	_, out, err := eng.Sweep("tiles", runs)
	return out, err
}

// sweepRuns expands a tiles sweep request the way drhwd does.
func sweepRuns(body []byte) ([]engine.Run, error) {
	var req server.SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	spec, err := workload.ParseRun(req.Workload)
	if err != nil {
		return nil, err
	}
	var runs []engine.Run
	for _, x := range req.Values {
		p := spec.Platform
		p.Tiles = x
		for _, line := range req.Approaches {
			ap, err := workload.ParseApproach(line)
			if err != nil {
				return nil, err
			}
			o := spec.Options
			o.Approach = ap
			runs = append(runs, engine.Run{X: x, Line: line, Mix: spec.Mix, Platform: p, Options: o})
		}
	}
	return runs, nil
}

// checkSweep compares the coordinator's cells with the in-process
// sweep: every cell exactly once, no errors, identical values.
func checkSweep(out *sweepOut, want []engine.RunResult) error {
	if n := len(want); out.summary.Cells != n || out.summary.Delivered != n || out.summary.Errors != 0 || len(out.cells) != n {
		return fmt.Errorf("sweep delivered %d cells (summary: %d/%d, %d errors), want %d",
			len(out.cells), out.summary.Delivered, out.summary.Cells, out.summary.Errors, n)
	}
	seen := make([]bool, len(want))
	for _, c := range out.cells {
		if c.Index < 0 || c.Index >= len(want) || seen[c.Index] {
			return fmt.Errorf("sweep cell index %d duplicated or out of range", c.Index)
		}
		seen[c.Index] = true
		w := want[c.Index]
		r := w.Result
		if c.Error != "" || c.X != w.Run.X || c.Line != w.Run.Line ||
			c.OverheadPct != r.OverheadPct || c.IdealMS != r.IdealTotal.Milliseconds() ||
			c.ActualMS != r.ActualTotal.Milliseconds() || c.ReusePct != r.ReusePct {
			return fmt.Errorf("sweep cell %d (x=%d %s) = %+v, in-process overhead %v ideal %v actual %v reuse %v",
				c.Index, w.Run.X, w.Run.Line, c, r.OverheadPct, r.IdealTotal.Milliseconds(),
				r.ActualTotal.Milliseconds(), r.ReusePct)
		}
	}
	return nil
}

// checkSimulate compares a /v1/simulate reply with the in-process
// engine.Simulate of the same document, field by field in wire units.
func checkSimulate(got *server.SimulateResponse, want *sim.Result) error {
	g := [12]float64{got.OverheadPct, got.IdealMS, got.ActualMS, float64(got.Instances), float64(got.Loads),
		float64(got.Reuses), float64(got.PrefetchHits), float64(got.DemandMisses), got.ResponseP50MS,
		got.ResponseP99MS, got.MakespanP99MS, got.QueueDelayP99MS}
	w := [12]float64{want.OverheadPct, want.IdealTotal.Milliseconds(), want.ActualTotal.Milliseconds(),
		float64(want.Instances), float64(want.Loads), float64(want.Reuses), float64(want.PrefetchHits),
		float64(want.DemandMisses), want.ResponseTime.P50, want.ResponseTime.P99, want.IterMakespan.P99,
		want.QueueDelay.P99}
	if g != w {
		return fmt.Errorf("simulate reply %v differs from in-process %v", g, w)
	}
	return nil
}
