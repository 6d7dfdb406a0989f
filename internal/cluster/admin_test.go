package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"drhwsched/internal/engine"
	"drhwsched/internal/peerstore"
	"drhwsched/internal/server"
)

func TestNewRejectsDuplicateReplicas(t *testing.T) {
	_, err := New(Config{Replicas: []string{"http://x:1", "http://x:1/"}})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("New with a doubled URL: err = %v, want duplicate error", err)
	}
}

// adminPost drives POST /v1/replicas and decodes the echo.
func adminPost(t *testing.T, coordURL, body string) (int, ReplicasResponse, string) {
	t.Helper()
	resp, err := http.Post(coordURL+"/v1/replicas", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var rr ReplicasResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatalf("parsing replicas echo %q: %v", raw, err)
		}
	}
	return resp.StatusCode, rr, string(raw)
}

func adminGet(t *testing.T, coordURL string) ReplicasResponse {
	t.Helper()
	resp, err := http.Get(coordURL + "/v1/replicas")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/replicas status = %d", resp.StatusCode)
	}
	var rr ReplicasResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

func fetchBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

func TestAdminAddRemove(t *testing.T) {
	r1 := newReplicaServer(t, "r1")
	r2 := newReplicaServer(t, "r2")
	r3 := newReplicaServer(t, "r3")
	_, cts := newCoordinator(t, Config{Replicas: []string{r1.URL, r2.URL}})

	if rr := adminGet(t, cts.URL); len(rr.Replicas) != 2 || len(rr.Drained) != 0 {
		t.Fatalf("initial membership = %+v", rr)
	}

	// Drain r2: out of the pool, into the drained set.
	status, rr, raw := adminPost(t, cts.URL, fmt.Sprintf(`{"remove": [%q]}`, r2.URL))
	if status != http.StatusOK {
		t.Fatalf("remove status = %d: %s", status, raw)
	}
	if len(rr.Replicas) != 1 || rr.Replicas[0] != r1.URL {
		t.Fatalf("pool after drain = %v", rr.Replicas)
	}
	if len(rr.Drained) != 1 || rr.Drained[0] != r2.URL {
		t.Fatalf("drained after drain = %v", rr.Drained)
	}

	// The drained member still shows on /healthz, flagged.
	var hr HealthResponse
	if err := json.Unmarshal([]byte(fetchBody(t, cts.URL+"/healthz")), &hr); err != nil {
		t.Fatal(err)
	}
	foundDrained := false
	for _, h := range hr.Replicas {
		if h.URL == r2.URL {
			foundDrained = h.Drained && h.OK
		}
	}
	if !foundDrained {
		t.Fatalf("healthz does not flag %s as drained+ok: %+v", r2.URL, hr.Replicas)
	}

	// Refusals: removing the last active replica, unknown URLs,
	// double-adds. None of them may change membership.
	if status, _, _ := adminPost(t, cts.URL, fmt.Sprintf(`{"remove": [%q]}`, r1.URL)); status != http.StatusBadRequest {
		t.Fatalf("removing the last active replica: status = %d, want 400", status)
	}
	if status, _, _ := adminPost(t, cts.URL, `{"remove": ["http://nobody:1"]}`); status != http.StatusBadRequest {
		t.Fatalf("removing an unknown replica: status = %d, want 400", status)
	}
	if status, _, _ := adminPost(t, cts.URL, fmt.Sprintf(`{"add": [%q]}`, r1.URL)); status != http.StatusBadRequest {
		t.Fatalf("re-adding an active replica: status = %d, want 400", status)
	}
	if status, _, _ := adminPost(t, cts.URL, `{}`); status != http.StatusBadRequest {
		t.Fatalf("empty update: status = %d, want 400", status)
	}

	// Reactivate r2 (cache intact) and hot-add r3.
	status, rr, raw = adminPost(t, cts.URL, fmt.Sprintf(`{"add": [%q, %q]}`, r2.URL, r3.URL))
	if status != http.StatusOK {
		t.Fatalf("add status = %d: %s", status, raw)
	}
	if len(rr.Replicas) != 3 || len(rr.Drained) != 0 {
		t.Fatalf("membership after add = %+v", rr)
	}

	// A sweep after the churn still delivers every cell exactly once.
	cells, sum := sweepThrough(t, cts.URL, sweepBody(`[2, 3, 4]`))
	requireExactlyOnce(t, cells, 3)
	if sum == nil || !sum.Done {
		t.Fatalf("sweep after membership churn did not complete")
	}

	metrics := fetchBody(t, cts.URL+"/metrics")
	for _, want := range []string{
		"drhwcoord_replicas 3",
		"drhwcoord_replicas_drained 0",
		"drhwcoord_replicas_added_total 2",
		"drhwcoord_replicas_removed_total 1",
		"drhwcoord_replicas_evicted_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestHealthzEviction(t *testing.T) {
	live := newReplicaServer(t, "live")
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	_, cts := newCoordinator(t, Config{
		Replicas:         []string{live.URL, deadURL},
		EvictAfterProbes: 2,
	})

	// First failed probe: streak 1, still a member.
	fetchBody(t, cts.URL+"/healthz")
	if rr := adminGet(t, cts.URL); len(rr.Replicas) != 2 {
		t.Fatalf("membership after one failed probe = %v, want both", rr.Replicas)
	}
	// Second failed probe reaches the threshold: dropped entirely.
	fetchBody(t, cts.URL+"/healthz")
	rr := adminGet(t, cts.URL)
	if len(rr.Replicas) != 1 || rr.Replicas[0] != live.URL || len(rr.Drained) != 0 {
		t.Fatalf("membership after eviction = %+v, want only %s", rr, live.URL)
	}
	if m := fetchBody(t, cts.URL+"/metrics"); !strings.Contains(m, "drhwcoord_replicas_evicted_total 1") {
		t.Fatalf("metrics missing eviction count:\n%s", m)
	}
}

// peerReplica is one drhwd-shaped replica with peer fill wired in, as
// cmd/drhwd builds it when -peers/-peer-fill are in play.
type peerReplica struct {
	ps  *peerstore.Store
	srv *server.Server
	ts  *httptest.Server
}

func newPeerReplicaServer(t *testing.T, id string) *peerReplica {
	t.Helper()
	ps := peerstore.New(peerstore.Config{CacheSize: 1024, Logf: t.Logf})
	srv := server.New(server.Config{
		ReplicaID: id,
		Engine:    engine.New(engine.Config{Workers: 2, Store: ps}),
		PeerStore: ps,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &peerReplica{ps: ps, srv: srv, ts: ts}
}

func totalMisses(reps []*peerReplica) int64 {
	var n int64
	for _, r := range reps {
		n += r.srv.Engine().CacheStats().Misses
	}
	return n
}

// TestPeerFillAfterDrain is the re-shard acceptance gate: drain a
// warm replica, re-sweep the same grid, and require (a) the merged
// cells byte-identical to a fully warm single node, (b) zero new
// engine misses pool-wide (nothing recomputed), and (c) peer-tier
// fills observed — the re-homed keys arrived over the wire.
func TestPeerFillAfterDrain(t *testing.T) {
	body := sweepBody(`[2, 3, 4, 5, 6, 7, 8, 9]`)
	const cells = 8

	// Reference: a single node swept twice; the second pass is fully
	// cache-warm, which is what the re-shard sweep must match.
	single := newReplicaServer(t, "single")
	sweepThrough(t, single.URL, body)
	want, wantSum := sweepThrough(t, single.URL, body)
	if wantSum == nil || !wantSum.Done {
		t.Fatalf("single-node warm sweep did not complete")
	}
	wantSorted := sortByIndex(t, want)

	reps := make([]*peerReplica, 3)
	urls := make([]string, len(reps))
	for i := range reps {
		reps[i] = newPeerReplicaServer(t, fmt.Sprintf("r%d", i+1))
		urls[i] = reps[i].ts.URL
	}
	c, cts := newCoordinator(t, Config{Replicas: urls})
	c.SyncPeers() // what cmd/drhwcoord does once the pool is up

	cells1, sum1 := sweepThrough(t, cts.URL, body)
	requireExactlyOnce(t, cells1, cells)
	if sum1 == nil || !sum1.Done {
		t.Fatalf("cold coordinator sweep did not complete")
	}
	coldMisses := totalMisses(reps)
	if coldMisses == 0 {
		t.Fatalf("cold sweep computed nothing")
	}

	// Drain a replica that actually owns analyses, so its keys re-home.
	victim := ""
	for _, r := range reps {
		if r.srv.Engine().CacheStats().Misses > 0 {
			victim = r.ts.URL
			break
		}
	}
	if victim == "" {
		t.Fatalf("no replica with computed analyses to drain")
	}
	status, rr, raw := adminPost(t, cts.URL, fmt.Sprintf(`{"remove": [%q]}`, victim))
	if status != http.StatusOK {
		t.Fatalf("drain status = %d: %s", status, raw)
	}
	if len(rr.Drained) != 1 || rr.Drained[0] != victim {
		t.Fatalf("drained = %v, want [%s]", rr.Drained, victim)
	}

	cells2, sum2 := sweepThrough(t, cts.URL, body)
	requireExactlyOnce(t, cells2, cells)
	if sum2 == nil || !sum2.Done {
		t.Fatalf("re-shard sweep did not complete")
	}
	got := sortByIndex(t, cells2)
	for i := range wantSorted {
		if got[i] != wantSorted[i] {
			t.Fatalf("re-shard cell %d differs from warm single node:\n got %s\nwant %s", i, got[i], wantSorted[i])
		}
	}

	if after := totalMisses(reps); after != coldMisses {
		t.Fatalf("re-shard recomputed analyses: pool misses %d -> %d", coldMisses, after)
	}
	var peerFills int64
	for _, r := range reps {
		peerFills += r.ps.TierStats().Peer
	}
	if peerFills == 0 {
		t.Fatalf("re-homed keys never filled from peers")
	}
	t.Logf("re-shard: %d peer fills, %d pool misses (unchanged)", peerFills, coldMisses)
}

// TestReplicasBodyBounded: a /v1/replicas body over the 1 MiB default
// bound is refused with 413 and the JSON error envelope, and the
// membership is untouched.
func TestReplicasBodyBounded(t *testing.T) {
	c, err := New(Config{Replicas: []string{"http://r1:1"}, HTTPClient: &http.Client{Transport: offline{}}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(`{"add": [`)
	for i := 0; sb.Len() < 2<<20; i++ {
		fmt.Fprintf(&sb, `"http://replica-%d.example:8080",`, i)
	}
	sb.WriteString(`"http://last.example:8080"]}`)
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/replicas", strings.NewReader(sb.String())))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %.200s", rec.Code, rec.Body.String())
	}
	var e struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != "request body exceeds 1048576 bytes" {
		t.Fatalf("error body = %q (%v)", rec.Body.String(), err)
	}
	if got := c.Replicas(); len(got) != 1 {
		t.Fatalf("oversize body changed the pool to %v", got)
	}
}
