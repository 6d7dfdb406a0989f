// Fuzz coverage for the coordinator's sweep planner: server.ParseSweep
// must reject a malformed or out-of-range sweep request with an error —
// never a panic, and never an allocation sized by a swept value — and
// any grid it accepts must expand to exactly values × lines cells.
//
// The seed corpus under testdata/fuzz/FuzzParseGrid/ pins an oversize
// tile value, an oversize grid, a valid seed sweep, an unknown param
// and an empty body; `go test -fuzz=FuzzParseGrid ./internal/cluster`
// explores from there.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"drhwsched/internal/peerstore"
	"drhwsched/internal/server"
	"drhwsched/internal/workload"
)

func FuzzParseGrid(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req server.SweepRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		g, err := parseGrid(&req)
		if err != nil {
			return // rejected cleanly — all the contract asks of bad input
		}
		if len(g.Values) != len(req.Values) {
			t.Fatalf("grid has %d values, request %d", len(g.Values), len(req.Values))
		}
		if len(req.Approaches) == 0 && len(g.Lines) != len(workload.Approaches()) {
			t.Fatalf("default lines = %v", g.Lines)
		}
		if g.Cells() != len(g.Values)*len(g.Lines) {
			t.Fatalf("cells = %d, want %d × %d", g.Cells(), len(g.Values), len(g.Lines))
		}
		// Every accepted tile value must make a valid platform: the
		// shard keys below schedule each scenario on it.
		if g.Param == "tiles" {
			p := g.Spec.Platform
			for _, x := range g.Values {
				p.Tiles = x
				if err := p.Validate(); err != nil {
					t.Fatalf("accepted tile value %d: %v", x, err)
				}
			}
		}
		// An oversize grid was refused above, before any scenario was
		// scheduled; an accepted one keys every value.
		for vi := range g.Values {
			if g.Key(vi) == "" {
				t.Fatalf("value position %d has no shard key", vi)
			}
		}
	})
}

// offline is an HTTP transport that refuses every request, so the peer
// pushes a fuzzed membership change triggers never leave the process.
type offline struct{}

func (offline) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("offline")
}

// FuzzReplicasUpdate drives drhwcoord's POST /v1/replicas admin body
// through the handler, starting each input from a two-replica pool.
// Every input must end in either a 4xx JSON error or a 200 whose echoed
// membership is normalized (peerstore.NormalizeURL is a no-op on each
// URL), sorted, free of duplicates across the pool and the drained set,
// never empty, and the membership the coordinator now holds.
//
// The seed corpus under testdata/fuzz/FuzzReplicasUpdate/ pins an add,
// a drain, a re-add of a spelling variant, removing the last replica, a
// duplicate in one list, a wrong-typed field and an empty body.
func FuzzReplicasUpdate(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := New(Config{
			Replicas:   []string{"http://r1:1", "http://r2:2"},
			HTTPClient: &http.Client{Transport: offline{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/replicas", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("status = %d, want 200 or 4xx: %s", rec.Code, rec.Body.String())
			}
			var e struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%d without a JSON error body: %q", rec.Code, rec.Body.String())
			}
			return
		}
		var rr ReplicasResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
			t.Fatalf("200 with unparsable body %q: %v", rec.Body.String(), err)
		}
		if len(rr.Replicas) == 0 {
			t.Fatal("update left an empty pool")
		}
		seen := map[string]bool{}
		for _, list := range [][]string{rr.Replicas, rr.Drained} {
			for i, u := range list {
				if u == "" || u != peerstore.NormalizeURL(u) {
					t.Fatalf("replica URL %q is not normalized", u)
				}
				if seen[u] || (i > 0 && u < list[i-1]) {
					t.Fatalf("membership %+v not sorted and distinct", rr)
				}
				seen[u] = true
			}
		}
		if got := c.Replicas(); !slices.Equal(got, rr.Replicas) {
			t.Fatalf("pool is %v, response echoed %v", got, rr.Replicas)
		}
		if got := c.Drained(); !slices.Equal(got, rr.Drained) {
			t.Fatalf("drained set is %v, response echoed %v", got, rr.Drained)
		}
	})
}
