package server

import (
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/peerstore"
	"drhwsched/internal/platform"
)

// warmServer boots a peerstore-backed server and warms one analysis
// into its engine, returning the raw fingerprint key.
func warmServer(t *testing.T) (*Server, string, string) {
	t.Helper()
	ps := peerstore.New(peerstore.Config{CacheSize: 16})
	s, ts := newTestServer(t, Config{
		Engine:    engine.New(engine.Config{Workers: 1, Store: ps}),
		PeerStore: ps,
	})

	g := graph.New("peer-pipe")
	a := g.AddSubtask("a", model.MS(10))
	b := g.AddSubtask("b", model.MS(12))
	g.AddEdge(a, b)
	p := platform.Default(3)
	sched, err := assign.List(g, p, assign.Options{})
	if err != nil {
		t.Fatalf("assign.List: %v", err)
	}
	if _, err := s.Engine().Analyze(sched, p, core.Options{}); err != nil {
		t.Fatalf("warm Analyze: %v", err)
	}
	return s, engine.Fingerprint(sched, p, core.Options{}), ts.URL
}

func TestAnalysisArtifactEndpoint(t *testing.T) {
	_, key, url := warmServer(t)

	resp, err := http.Get(url + peerstore.PathPrefix + hex.EncodeToString([]byte(key)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	a, err := peerstore.Decode(key, body)
	if err != nil {
		t.Fatalf("served artifact does not decode: %v", err)
	}
	if fp := engine.Fingerprint(a.Sched, a.P, core.Options{}); fp != key {
		t.Fatalf("served artifact fingerprints differently")
	}

	t.Run("miss-404", func(t *testing.T) {
		absent := strings.Repeat("ab", 32)
		resp, err := http.Get(url + peerstore.PathPrefix + absent)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("absent fingerprint status = %d, want 404", resp.StatusCode)
		}
	})
	t.Run("bad-fingerprint-400", func(t *testing.T) {
		resp, err := http.Get(url + peerstore.PathPrefix + "not-hex")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad fingerprint status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("post-405", func(t *testing.T) {
		resp, _ := post(t, url+peerstore.PathPrefix+hex.EncodeToString([]byte(key)), "{}")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST status = %d, want 405", resp.StatusCode)
		}
	})
}

func TestPeersEndpoint(t *testing.T) {
	s, _, url := warmServer(t)

	resp, body := post(t, url+"/v1/peers", `{"peers": ["http://a:1/", "http://b:2", "http://a:1", ""]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var pr PeersResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatalf("parsing response: %v", err)
	}
	want := []string{"http://a:1", "http://b:2"}
	if len(pr.Peers) != 2 || pr.Peers[0] != want[0] || pr.Peers[1] != want[1] {
		t.Fatalf("peers = %v, want %v (normalized, deduped, sorted)", pr.Peers, want)
	}
	if got := s.cfg.PeerStore.Peers(); len(got) != 2 {
		t.Fatalf("store peers = %v after push", got)
	}

	t.Run("disabled-404", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		resp, _ := post(t, ts.URL+"/v1/peers", `{"peers": []}`)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404 on a replica without peer fill", resp.StatusCode)
		}
	})
	t.Run("bad-body-400", func(t *testing.T) {
		resp, _ := post(t, url+"/v1/peers", `{"peers": 7}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})

	// Healthz surfaces the tier counters on peerstore-backed replicas.
	hresp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Store == nil {
		t.Fatalf("healthz has no store tier block on a peerstore replica")
	}
	if hr.Store.Compute != 1 {
		t.Fatalf("store tiers = %+v, want compute=1 after one warm analyze", hr.Store)
	}
}

// TestPeersBodyBounded: the body bound applies to /v1/peers although
// the route bypasses admission. An 8 MiB peer list is refused with 413
// and the JSON error envelope instead of being decoded.
func TestPeersBodyBounded(t *testing.T) {
	s, _, _ := warmServer(t)
	var sb strings.Builder
	sb.WriteString(`{"peers": [`)
	for sb.Len() < 8<<20 {
		sb.WriteString(`"http://peer.example:8080",`)
	}
	sb.WriteString(`"http://peer.example:8080"]}`)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/peers", strings.NewReader(sb.String())))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	var e struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != "request body exceeds 1048576 bytes" {
		t.Fatalf("error body = %q (%v)", rec.Body.String(), err)
	}
	if got := s.cfg.PeerStore.Peers(); len(got) != 0 {
		t.Fatalf("oversize body changed the peer set to %d peers", len(got))
	}
}
