package peerstore

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/graph"
	"drhwsched/internal/httpd"
	"drhwsched/internal/platform"
	"drhwsched/internal/prefetch"
	"drhwsched/internal/schedule"
)

// ownerServer serves eng's artifacts the way drhwd does: Handler
// mounted on an HTTP shell.
func ownerServer(t *testing.T, eng *engine.Engine) *httptest.Server {
	sh := httpd.New(httpd.Config{})
	sh.Handle(PathPrefix, sh.Instrument("analysis", http.MethodGet, false, Handler(eng)))
	srv := httptest.NewServer(sh)
	t.Cleanup(srv.Close)
	return srv
}

func TestTierLocalAndCompute(t *testing.T) {
	key, a := testAnalysis(t, 3)
	s := New(Config{CacheSize: 8})

	if _, ok := s.Get(key); ok {
		t.Fatalf("cold Get reported a hit")
	}
	s.Put(key, a)
	if got, ok := s.Get(key); !ok || got != a {
		t.Fatalf("Get after Put: got %v, %v", got, ok)
	}

	ts := s.TierStats()
	if ts.Local != 1 || ts.Peer != 0 || ts.Compute != 1 {
		t.Fatalf("tiers = %+v, want local=1 peer=0 compute=1", ts)
	}
	cs := s.Stats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("Stats = %+v, want hits=1 misses=1 entries=1", cs)
	}
}

func TestPeerFill(t *testing.T) {
	key, a := testAnalysis(t, 3)

	owner := engine.New(engine.Config{Workers: 1, Store: New(Config{CacheSize: 8})})
	owner.Store().Put(key, a)
	srv := ownerServer(t, owner)

	s := New(Config{CacheSize: 8, Peers: []string{srv.URL}})
	got, ok := s.Get(key)
	if !ok || got == nil {
		t.Fatalf("peer-backed Get missed")
	}
	if fp := engine.Fingerprint(got.Sched, got.P, core.Options{}); fp != key {
		t.Fatalf("fetched artifact fingerprints differently")
	}
	ts := s.TierStats()
	if ts.Peer != 1 || ts.Compute != 0 {
		t.Fatalf("tiers = %+v, want peer=1 compute=0", ts)
	}
	if ts.Fetch.Count() != 1 || ts.Fetch.Sum() <= 0 {
		t.Fatalf("fetch histogram not observed: %+v", ts)
	}

	// The fill landed in the local tier: the next Get stays local.
	if _, ok := s.Get(key); !ok {
		t.Fatalf("second Get missed")
	}
	if ts := s.TierStats(); ts.Local != 1 {
		t.Fatalf("second Get did not hit the local tier: %+v", ts)
	}
	// Peer-tier fills count as hits in engine.Store accounting.
	if cs := s.Stats(); cs.Hits != 2 || cs.Misses != 0 {
		t.Fatalf("Stats = %+v, want hits=2 misses=0", cs)
	}
}

// TestPeerDownFallsBack: a dead peer is a silent compute fallback, not
// an error.
func TestPeerDownFallsBack(t *testing.T) {
	key, _ := testAnalysis(t, 3)
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // connection refused from here on

	s := New(Config{CacheSize: 8, Peers: []string{url}, FetchTimeout: 2 * time.Second})
	if _, ok := s.Get(key); ok {
		t.Fatalf("Get reported a hit with the only peer down")
	}
	ts := s.TierStats()
	if ts.PeerErrors == 0 || ts.Compute != 1 {
		t.Fatalf("tiers = %+v, want peer_errors>0 compute=1", ts)
	}
}

// TestCorruptArtifactRejected: corrupt or truncated bodies are rejected
// and the Get falls through to compute.
func TestCorruptArtifactRejected(t *testing.T) {
	key, a := testAnalysis(t, 3)
	valid, err := Encode(key, a)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	cases := []struct {
		name string
		body []byte
	}{
		{"garbage", []byte(`{"version":1,"oops`)},
		{"truncated", valid[:len(valid)/3]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write(tc.body)
			}))
			defer srv.Close()
			s := New(Config{CacheSize: 8, Peers: []string{srv.URL}})
			if _, ok := s.Get(key); ok {
				t.Fatalf("Get accepted a %s artifact", tc.name)
			}
			ts := s.TierStats()
			if ts.Rejected != 1 || ts.Compute != 1 {
				t.Fatalf("tiers = %+v, want rejected=1 compute=1", ts)
			}
			if ts.Fetch.Count() != 0 {
				t.Fatalf("rejected fill observed in the latency histogram: %+v", ts)
			}
		})
	}
}

// gateScheduler blocks the first design-time scheduling call until
// Release is closed, letting a test hold an engine mid-compute. Both
// engines under test share one *gateScheduler value so their
// fingerprints agree; the mutable gate state hides behind a pointer
// because the fingerprint renders the scheduler with %+v — a sync.Once
// or channel field inline would shift the key as the gate fires.
type gateScheduler struct{ state *gateState }

type gateState struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateScheduler() *gateScheduler {
	return &gateScheduler{state: &gateState{started: make(chan struct{}), release: make(chan struct{})}}
}

func (g *gateScheduler) Name() string { return "gate" }

func (g *gateScheduler) ScheduleScratch(s *assign.Schedule, st *schedule.Static, loads []graph.SubtaskID, b schedule.Instance, sc *prefetch.Scratch) (*prefetch.Result, error) {
	g.state.once.Do(func() {
		close(g.state.started)
		<-g.state.release
	})
	return prefetch.List{}.ScheduleScratch(s, st, loads, b, sc)
}

// TestPoolWideSingleCompute: two replicas asked for the same key
// concurrently perform one compute total — the second replica's peer
// fetch parks on the first's in-flight computation (Engine.Peek) and is
// served its result.
func TestPoolWideSingleCompute(t *testing.T) {
	gate := newGateScheduler()
	opt := core.Options{Scheduler: gate}

	g := graph.New("pool-pipe")
	s0 := g.AddConfigured("a", 10000, "")
	s1 := g.AddConfigured("b", 12000, "")
	g.AddEdge(s0, s1)
	p := platform.Default(3)
	sched, err := assign.List(g, p, assign.Options{})
	if err != nil {
		t.Fatalf("assign.List: %v", err)
	}
	key := engine.Fingerprint(sched, p, opt)

	storeA := New(Config{CacheSize: 8, FetchTimeout: 10 * time.Second})
	storeB := New(Config{CacheSize: 8, FetchTimeout: 10 * time.Second})
	engA := engine.New(engine.Config{Workers: 1, Store: storeA})
	engB := engine.New(engine.Config{Workers: 1, Store: storeB})
	srvA := ownerServer(t, engA)
	srvB := ownerServer(t, engB)
	storeA.SetPeers([]string{srvB.URL})
	storeB.SetPeers([]string{srvA.URL})

	type res struct {
		a   *core.Analysis
		err error
	}
	aCh := make(chan res, 1)
	go func() {
		a, err := engA.Analyze(sched, p, opt)
		aCh <- res{a, err}
	}()
	<-gate.state.started // A is mid-compute, holding the flight for key

	bCh := make(chan res, 1)
	go func() {
		a, err := engB.Analyze(sched, p, opt)
		bCh <- res{a, err}
	}()
	// Wait for B's outbound fetch to be in flight (parked inside A's
	// Peek), then let A's compute finish.
	for i := 0; i < 200 && !storeB.Fetching(key); i++ {
		time.Sleep(5 * time.Millisecond)
	}
	close(gate.state.release)

	ra, rb := <-aCh, <-bCh
	if ra.err != nil || rb.err != nil {
		t.Fatalf("analyze errors: %v / %v", ra.err, rb.err)
	}
	if fa, fb := engine.Fingerprint(ra.a.Sched, ra.a.P, opt), engine.Fingerprint(rb.a.Sched, rb.a.P, opt); fa != key || fb != key {
		t.Fatalf("analyses fingerprint differently: %x / %x vs key %x", fa, fb, key)
	}

	ta, tb := storeA.TierStats(), storeB.TierStats()
	if computes := ta.Compute + tb.Compute; computes != 1 {
		t.Fatalf("pool performed %d computes, want 1 (A %+v, B %+v)", computes, ta, tb)
	}
	if tb.Peer != 1 || tb.Compute != 0 {
		t.Fatalf("replica B tiers = %+v, want peer=1 compute=0", tb)
	}
}

// TestPeekBreaksFetchCycles: while the store is fetching a key from
// peers, Peek must answer from local state immediately instead of
// waiting on the flight — that flight is waiting on the network, and in
// a cross-fetch cycle waiting would deadlock the pool.
func TestPeekBreaksFetchCycles(t *testing.T) {
	key, _ := testAnalysis(t, 3)

	release := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		http.NotFound(w, r)
	}))
	defer stall.Close()
	defer close(release)

	s := New(Config{CacheSize: 8, Peers: []string{stall.URL}, FetchTimeout: 30 * time.Second})
	eng := engine.New(engine.Config{Workers: 1, Store: s})

	sched, p := testInputs(t, 3)
	go eng.Analyze(sched, p, core.Options{}) // parks fetching key
	for i := 0; i < 200 && !s.Fetching(key); i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if !s.Fetching(key) {
		t.Fatalf("store never entered the fetching state")
	}

	done := make(chan bool, 1)
	go func() {
		_, ok := eng.Peek(context.Background(), key)
		done <- ok
	}()
	select {
	case ok := <-done:
		if ok {
			t.Fatalf("Peek reported a hit for an absent key")
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Peek blocked behind an outbound peer fetch")
	}
}
