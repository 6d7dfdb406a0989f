package engine

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/sim"
	"drhwsched/internal/stats"
	"drhwsched/internal/tcm"
)

// pipeline builds a small test graph: a chain of n stages with distinct
// configurations plus a fork/join tail for some tile-level parallelism.
func pipeline(name string, n int) *graph.Graph {
	g := graph.New(name)
	var ids []graph.SubtaskID
	for i := 0; i < n; i++ {
		ids = append(ids, g.AddSubtask(fmt.Sprintf("s%d", i), model.MS(float64(2+i))))
	}
	g.Chain(ids...)
	a := g.AddSubtask("fork-a", model.MS(3))
	b := g.AddSubtask("fork-b", model.MS(4))
	j := g.AddSubtask("join", model.MS(2))
	g.AddEdge(ids[n-1], a)
	g.AddEdge(ids[n-1], b)
	g.AddEdge(a, j)
	g.AddEdge(b, j)
	return g
}

func testMix(t *testing.T) []sim.TaskMix {
	t.Helper()
	return []sim.TaskMix{
		{Task: tcm.NewTask("alpha", pipeline("alpha", 4))},
		{Task: tcm.NewTask("beta", pipeline("beta-s0", 3), pipeline("beta-s1", 5))},
	}
}

func testGrid(t *testing.T, mix []sim.TaskMix) []Run {
	t.Helper()
	var runs []Run
	for _, tiles := range []int{3, 4, 5} {
		for _, ap := range []sim.Approach{
			sim.NoPrefetch, sim.DesignTimePrefetch, sim.RunTime, sim.RunTimeInterTask, sim.Hybrid,
		} {
			runs = append(runs, Run{
				X: tiles, Line: ap.String(), Mix: mix, Platform: platform.Default(tiles),
				Options: sim.Options{Approach: ap, Iterations: 40, Seed: 7},
			})
		}
	}
	return runs
}

// TestSweepMatchesSerial is the engine's core contract: a concurrent
// Sweep over an experiment grid aggregates into a series that is
// byte-identical (CSV and text renderings) to the one a serial loop
// over plain sim.Run produces.
func TestSweepMatchesSerial(t *testing.T) {
	mix := testMix(t)
	runs := testGrid(t, mix)

	serial := stats.NewSeries("tiles",
		sim.NoPrefetch.String(), sim.DesignTimePrefetch.String(),
		sim.RunTime.String(), sim.RunTimeInterTask.String(), sim.Hybrid.String())
	for _, r := range runs {
		res, err := sim.Run(r.Mix, r.Platform, r.Options)
		if err != nil {
			t.Fatal(err)
		}
		serial.Set(r.X, r.Line, res.OverheadPct)
	}

	eng := New(Config{Workers: 8, CacheSize: 64})
	got, results, err := eng.Sweep("tiles", runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(runs) {
		t.Fatalf("results = %d, want %d", len(results), len(runs))
	}
	for i, rr := range results {
		if rr.Result == nil || rr.Err != nil {
			t.Fatalf("run %d: %+v", i, rr.Err)
		}
		if rr.Run.X != runs[i].X || rr.Run.Line != runs[i].Line {
			t.Fatalf("run %d out of order: got (%d,%s)", i, rr.Run.X, rr.Run.Line)
		}
	}
	if got.CSV() != serial.CSV() {
		t.Fatalf("CSV mismatch:\nengine:\n%s\nserial:\n%s", got.CSV(), serial.CSV())
	}
	if got.Table() != serial.Table() {
		t.Fatalf("table mismatch:\nengine:\n%s\nserial:\n%s", got.Table(), serial.Table())
	}
	st := eng.CacheStats()
	if st.Misses == 0 {
		t.Fatal("sweep performed no analyses")
	}
	if st.Hits == 0 {
		t.Fatal("grid repeats schedules across approaches; expected cache hits")
	}
}

// TestAnalyzeMemoized checks that a second Analyze of the same inputs is
// a cache hit and returns the identical artifact, while changed inputs
// miss.
func TestAnalyzeMemoized(t *testing.T) {
	g := pipeline("memo", 4)
	p := platform.Default(3)
	s, err := assign.List(g, p, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{})

	a1, err := eng.Analyze(s, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := eng.Analyze(s, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("repeated Analyze did not return the cached artifact")
	}
	st := eng.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}

	p2 := p
	p2.ReconfigLatency = model.MS(1)
	s2, err := assign.List(g, p2, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(s2, p2, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Misses != 2 {
		t.Fatalf("different platform should miss: %+v", st)
	}
}

// TestFingerprint checks key stability and sensitivity.
func TestFingerprint(t *testing.T) {
	p := platform.Default(3)
	g := pipeline("fp", 4)
	s, err := assign.List(g, p, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := Fingerprint(s, p, core.Options{})

	if Fingerprint(s, p, core.Options{}) != base {
		t.Fatal("fingerprint is not deterministic")
	}
	// An identical-content schedule built separately keys the same.
	s2, err := assign.List(pipeline("fp", 4), p, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(s2, p, core.Options{}) != base {
		t.Fatal("identical content must fingerprint identically")
	}
	if Fingerprint(s, p, core.Options{AddAllDelayed: true}) == base {
		t.Fatal("options must affect the fingerprint")
	}
	p2 := p
	p2.Ports = 2
	if Fingerprint(s, p2, core.Options{}) == base {
		t.Fatal("platform must affect the fingerprint")
	}
	g2 := pipeline("fp", 4)
	g2.SetLoad(0, model.MS(1))
	s3, err := assign.List(g2, p, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(s3, p, core.Options{}) == base {
		t.Fatal("graph content must affect the fingerprint")
	}
}

// TestFingerprintAllocs pins the cache key's allocations at a count
// that does not grow with the schedule: the hash is fed field by field
// through one buffer.
func TestFingerprintAllocs(t *testing.T) {
	p := platform.Default(3)
	allocs := func(n int) float64 {
		s, err := assign.List(pipeline("fp", n), p, assign.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { Fingerprint(s, p, core.Options{}) })
	}
	small, large := allocs(4), allocs(400)
	if large > small {
		t.Fatalf("Fingerprint allocates %.0f objects at 7 subtasks but %.0f at 403; want no growth", small, large)
	}
}

// TestCacheEviction exercises the default store's LRU bound through
// the engine's lookup path.
func TestCacheEviction(t *testing.T) {
	e := New(Config{CacheSize: 2})
	mk := func() (*core.Analysis, error) { return &core.Analysis{}, nil }
	for _, k := range []string{"a", "b", "c"} {
		if _, hit, err := e.lookup(k, mk); hit || err != nil {
			t.Fatalf("insert %q: hit=%v err=%v", k, hit, err)
		}
	}
	st := e.CacheStats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	// "a" was least recently used and must be gone; "c" must hit.
	if _, hit, _ := e.lookup("c", mk); !hit {
		t.Fatal("most recent entry evicted")
	}
	if _, hit, _ := e.lookup("a", mk); hit {
		t.Fatal("evicted entry still present")
	}
}

// TestCacheErrorNotMemoized checks that failed computations are retried
// and every concurrent waiter of a single flight sees the same outcome.
func TestCacheErrorNotMemoized(t *testing.T) {
	e := New(Config{CacheSize: 4})
	boom := errors.New("boom")
	if _, _, err := e.lookup("k", func() (*core.Analysis, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	a, hit, err := e.lookup("k", func() (*core.Analysis, error) { return &core.Analysis{}, nil })
	if hit || err != nil || a == nil {
		t.Fatalf("retry after error: hit=%v err=%v", hit, err)
	}
}

// TestCacheSingleFlight checks that concurrent lookups of one key run
// the computation exactly once, whatever Store backs the engine.
func TestCacheSingleFlight(t *testing.T) {
	e := New(Config{CacheSize: 4})
	var calls int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := e.lookup("k", func() (*core.Analysis, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				return &core.Analysis{}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := e.CacheStats()
	if st.Misses != 1 || st.Hits != 15 {
		t.Fatalf("stats = %+v, want 1 miss / 15 hits", st)
	}
}

// countingStore wraps a Store and records Get/Put traffic, standing in
// for a remote backend behind the Config.Store seam.
type countingStore struct {
	Store
	mu   sync.Mutex
	gets int
	puts int
}

func (s *countingStore) Get(key string) (*core.Analysis, bool) {
	s.mu.Lock()
	s.gets++
	s.mu.Unlock()
	return s.Store.Get(key)
}

func (s *countingStore) Put(key string, a *core.Analysis) {
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	s.Store.Put(key, a)
}

// TestCustomStoreSeam checks that a caller-supplied Store receives all
// analysis traffic and that single-flight still holds above it: N
// concurrent lookups of one key reach the backend with exactly one Put.
func TestCustomStoreSeam(t *testing.T) {
	cs := &countingStore{Store: NewLRUStore(8)}
	e := New(Config{Store: cs})
	var calls int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := e.lookup("shared", func() (*core.Analysis, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				return &core.Analysis{}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1 (single-flight above the store)", calls)
	}
	cs.mu.Lock()
	gets, puts := cs.gets, cs.puts
	cs.mu.Unlock()
	if puts != 1 {
		t.Fatalf("backend saw %d puts, want 1", puts)
	}
	if gets != 8 {
		t.Fatalf("backend saw %d gets, want 8 (one per lookup)", gets)
	}
	if st := e.CacheStats(); st.Hits != 7 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 7 hits / 1 miss", st)
	}
}

// TestSimulateReportsCacheTraffic checks the per-run hit accounting: a
// repeat of an identical simulation serves every analysis from cache.
func TestSimulateReportsCacheTraffic(t *testing.T) {
	mix := testMix(t)
	p := platform.Default(4)
	opt := sim.Options{Approach: sim.Hybrid, Iterations: 20, Seed: 3}
	eng := New(Config{})

	r1, err := eng.Simulate(mix, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Three prepared schedules (alpha + two beta scenarios): all misses.
	if r1.CacheMisses != 3 || r1.CacheHits != 0 {
		t.Fatalf("cold run: %d hits / %d misses, want 0/3", r1.CacheHits, r1.CacheMisses)
	}
	r2, err := eng.Simulate(mix, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHits != 3 || r2.CacheMisses != 0 || r2.CacheHitRate != 1 {
		t.Fatalf("warm run: %d hits / %d misses (rate %v), want 3/0 (1)", r2.CacheHits, r2.CacheMisses, r2.CacheHitRate)
	}
	if r1.OverheadPct != r2.OverheadPct {
		t.Fatalf("cached analyses changed the result: %v vs %v", r1.OverheadPct, r2.OverheadPct)
	}
	// The serial path must agree with both.
	rs, err := sim.Run(mix, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rs.OverheadPct != r1.OverheadPct || rs.ActualTotal != r1.ActualTotal {
		t.Fatalf("engine result diverged from sim.Run: %+v vs %+v", r1, rs)
	}
}

// TestMultitaskSharesAnalysisCache pins the fingerprint contract for
// the fabric layer: the multitask admission mode is run-time-only, so a
// run under partition admission served after a serial run on the same
// engine hits the cache for every analysis — a mode sweep pays the
// design-time phase exactly once.
func TestMultitaskSharesAnalysisCache(t *testing.T) {
	mix := testMix(t)
	p := platform.Default(6)
	eng := New(Config{})

	serial, err := eng.Simulate(mix, p, sim.Options{Approach: sim.Hybrid, Iterations: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if serial.CacheMisses == 0 {
		t.Fatal("cold serial run computed no analyses")
	}
	part, err := eng.Simulate(mix, p, sim.Options{
		Approach:   sim.Hybrid,
		Iterations: 20,
		Seed:       3,
		Multitask:  sim.Multitask{Mode: "partition", Partitions: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if part.CacheMisses != 0 || part.CacheHits != serial.CacheMisses {
		t.Fatalf("partition run after serial: %d hits / %d misses, want %d/0 (multitask must not change analysis keys)",
			part.CacheHits, part.CacheMisses, serial.CacheMisses)
	}
	if part.MultitaskMode != "partition" || serial.MultitaskMode != "serial" {
		t.Fatalf("multitask telemetry lost through the engine: %q / %q", serial.MultitaskMode, part.MultitaskMode)
	}
}

// TestShardedSharesAnalysisCache pins the fingerprint contract for
// sharded execution: parallelism is a run-time-only knob, so a sharded
// run served after a sequential run on the same engine hits the cache
// for every analysis, and the sharded aggregates are identical for any
// worker count.
func TestShardedSharesAnalysisCache(t *testing.T) {
	mix := testMix(t)
	p := platform.Default(4)
	eng := New(Config{})

	seq, err := eng.Simulate(mix, p, sim.Options{Approach: sim.Hybrid, Iterations: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if seq.CacheMisses == 0 {
		t.Fatal("cold sequential run computed no analyses")
	}
	var prev *sim.Result
	for _, workers := range []int{1, 4} {
		r, err := eng.Simulate(mix, p, sim.Options{
			Approach: sim.Hybrid, Iterations: 64, Seed: 3, Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.CacheMisses != 0 || r.CacheHits != seq.CacheMisses {
			t.Fatalf("P=%d run after sequential: %d hits / %d misses, want %d/0 (parallelism must not change analysis keys)",
				workers, r.CacheHits, r.CacheMisses, seq.CacheMisses)
		}
		if r.Execution != "sharded" {
			t.Fatalf("P=%d: execution = %q, want sharded", workers, r.Execution)
		}
		if r.Workers != workers {
			t.Fatalf("P=%d: result records %d workers", workers, r.Workers)
		}
		if prev != nil {
			a, b := *prev, *r
			a.CacheHits, a.CacheMisses, a.CacheHitRate = 0, 0, 0
			b.CacheHits, b.CacheMisses, b.CacheHitRate = 0, 0, 0
			// Workers is the one field documented to vary with the
			// worker count.
			a.Workers, b.Workers = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("sharded aggregates depend on the worker count:\nP=1 %+v\nP=4 %+v", a, b)
			}
		}
		prev = r
	}
}

// TestSweepDuplicateCellDeterministic checks that a grid repeating one
// (X, Line) cell resolves last-write-wins in input order, exactly as a
// serial loop would — regardless of which worker finishes first.
func TestSweepDuplicateCellDeterministic(t *testing.T) {
	mix := testMix(t)
	var runs []Run
	for _, seed := range []int64{1, 2, 3, 4} {
		runs = append(runs, Run{
			X: 3, Line: "hybrid", Mix: mix, Platform: platform.Default(3),
			Options: sim.Options{Approach: sim.Hybrid, Iterations: 15, Seed: seed},
		})
	}
	want, err := sim.Run(runs[3].Mix, runs[3].Platform, runs[3].Options)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		eng := New(Config{Workers: 4})
		s, _, err := eng.Sweep("tiles", runs)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(3, "hybrid")
		if !ok || got != want.OverheadPct {
			t.Fatalf("trial %d: series holds %v, want last run's %v", trial, got, want.OverheadPct)
		}
	}
}

// TestSimulateRespectsCallerAnalyzer checks that a caller-supplied
// Analyzer is used untouched instead of being replaced by the engine's
// cache closure.
func TestSimulateRespectsCallerAnalyzer(t *testing.T) {
	mix := testMix(t)
	p := platform.Default(4)
	var calls int
	opt := sim.Options{
		Approach: sim.Hybrid, Iterations: 5,
		Analyzer: func(s *assign.Schedule, p platform.Platform, o core.Options) (*core.Analysis, error) {
			calls++
			return core.Analyze(s, p, o)
		},
	}
	eng := New(Config{})
	r, err := eng.Simulate(mix, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("caller-supplied analyzer was not invoked")
	}
	if st := eng.CacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("engine cache was used despite a custom analyzer: %+v", st)
	}
	if r.CacheHits != 0 || r.CacheMisses != 0 {
		t.Fatalf("cache traffic reported for a custom analyzer: %+v", r)
	}
}

// TestBatchError checks that a failing cell surfaces the first error in
// input order while the other cells still complete.
func TestBatchError(t *testing.T) {
	mix := testMix(t)
	good := Run{X: 3, Line: "ok", Mix: mix, Platform: platform.Default(3),
		Options: sim.Options{Approach: sim.Hybrid, Iterations: 5}}
	bad := good
	bad.Line = "bad"
	bad.Platform.Tiles = 0 // fails platform validation
	eng := New(Config{Workers: 2})
	out, err := eng.Batch([]Run{good, bad, good})
	if err == nil {
		t.Fatal("expected error from invalid platform")
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatal("healthy cells should have completed")
	}
	if out[1].Err == nil {
		t.Fatal("failing cell lost its error")
	}
}

// TestEngineDefaults pins the documented zero-config behaviour.
func TestEngineDefaults(t *testing.T) {
	eng := New(Config{})
	if eng.Workers() < 1 {
		t.Fatalf("workers = %d", eng.Workers())
	}
	if s, _, err := eng.Sweep("x", nil); err != nil || len(s.Xs()) != 0 {
		t.Fatalf("empty sweep: %v %v", s, err)
	}
}
