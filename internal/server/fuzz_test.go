// Fuzz coverage for drhwd's POST /v1/peers admin body, driven through
// the handler: every input must end in either a 4xx JSON error or a
// 200 whose echoed peer set is normalized (trimmed, no trailing slash,
// non-empty), sorted, free of duplicates, and the set the store now
// holds — never a panic or a 5xx.
//
// The seed corpus under testdata/fuzz/FuzzPeersRequest/ pins a list
// needing normalization, a wrong-typed field, null, an empty body and
// trailing garbage; `go test -fuzz=FuzzPeersRequest ./internal/server`
// explores from there.
package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"drhwsched/internal/engine"
	"drhwsched/internal/peerstore"
)

func FuzzPeersRequest(f *testing.F) {
	ps := peerstore.New(peerstore.Config{CacheSize: 4})
	s := New(Config{Engine: engine.New(engine.Config{Workers: 1, Store: ps}), PeerStore: ps})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/peers", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			requireJSONError(t, rec)
			return
		}
		var pr PeersResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
			t.Fatalf("200 with unparsable body %q: %v", rec.Body.String(), err)
		}
		for i, p := range pr.Peers {
			if p == "" || p != strings.TrimRight(strings.TrimSpace(p), "/") {
				t.Fatalf("peer %q is not normalized", p)
			}
			if i > 0 && p <= pr.Peers[i-1] {
				t.Fatalf("peers %v not sorted and distinct", pr.Peers)
			}
		}
		if got := ps.Peers(); !slices.Equal(got, pr.Peers) {
			t.Fatalf("store holds %v, response echoed %v", got, pr.Peers)
		}
	})
}

// requireJSONError asserts a 4xx carrying the {"error": ...} envelope.
func requireJSONError(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code < 400 || rec.Code >= 500 {
		t.Fatalf("status = %d, want 200 or 4xx: %s", rec.Code, rec.Body.String())
	}
	var e struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("%d without a JSON error body: %q", rec.Code, rec.Body.String())
	}
}
