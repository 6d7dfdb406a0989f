// Tests of the shared HTTP shell as drhwcoord runs it: sweep
// rejections agree with drhwd's byte for byte, and the whole-request
// read bound frees the admission slot of a client that never finishes
// its body without cutting short a sweep that outlives it.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"drhwsched/internal/server"
)

// TestSweepRejectionsAgree runs one table of bad /v1/sweep requests
// against drhwd and drhwcoord under the same bounds and requires the
// same status and the same error text from both.
func TestSweepRejectionsAgree(t *testing.T) {
	const maxSubtasks, maxCells = 3, 3
	single := server.New(server.Config{MaxSubtasks: maxSubtasks, MaxSweepCells: maxCells})
	coord, err := New(Config{
		Replicas:      []string{"http://127.0.0.1:1"}, // never reached: every case is refused first
		MaxSubtasks:   maxSubtasks,
		MaxSweepCells: maxCells,
	})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(doc, param, values, approaches string) string {
		return fmt.Sprintf(`{"workload": %s, "param": %q, "values": %s, "approaches": %s}`, doc, param, values, approaches)
	}
	bigDoc := strings.Replace(planDoc, `{"name": "c", "exec_ms": 8}`, `{"name": "c", "exec_ms": 8}, {"name": "d", "exec_ms": 8}`, 1)
	cases := []struct {
		name, body string
		code       int
	}{
		{"bad json", `{"workload": nope}`, http.StatusBadRequest},
		{"no workload", `{"values": [4]}`, http.StatusBadRequest},
		{"bad doc", `{"workload": {"tasks": 7}, "values": [4]}`, http.StatusBadRequest},
		{"too many subtasks", sweep(bigDoc, "tiles", `[4]`, `["hybrid"]`), http.StatusRequestEntityTooLarge},
		{"no values", sweep(planDoc, "tiles", `[]`, `["hybrid"]`), http.StatusBadRequest},
		{"bad param", sweep(planDoc, "voltage", `[1]`, `["hybrid"]`), http.StatusBadRequest},
		{"grid too big", sweep(planDoc, "tiles", `[2, 3]`, `["hybrid", "run-time"]`), http.StatusRequestEntityTooLarge},
		{"default lines", sweep(planDoc, "", `[4]`, `null`), http.StatusRequestEntityTooLarge},
		{"zero tiles", sweep(planDoc, "tiles", `[0]`, `["hybrid"]`), http.StatusBadRequest},
		{"huge tiles", sweep(planDoc, "tiles", `[4, 1000000000]`, `["hybrid"]`), http.StatusBadRequest},
		{"bad approach", sweep(planDoc, "seed", `[4]`, `["psychic"]`), http.StatusBadRequest},
		// Two faults: the first in the shared check order is reported.
		{"bad approach on oversize grid", sweep(planDoc, "tiles", `[2, 3]`, `["psychic", "hybrid"]`), http.StatusRequestEntityTooLarge},
		{"bad tiles and bad approach", sweep(planDoc, "tiles", `[0]`, `["psychic"]`), http.StatusBadRequest},
		{"bad param on bad doc", `{"workload": {"tasks": 7}, "param": "voltage", "values": [1]}`, http.StatusBadRequest},
		{"oversize body", sweep(planDoc, "tiles", "["+strings.Repeat("4, ", 1<<19)+"4]", `["hybrid"]`), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		var errs [2]string
		for i, h := range []http.Handler{single, coord} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(tc.body)))
			if rec.Code != tc.code {
				t.Errorf("%s: %s answered %d, want %d: %s", tc.name, []string{"drhwd", "drhwcoord"}[i], rec.Code, tc.code, rec.Body.String())
			}
			var e struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s: no JSON error body: %q", tc.name, rec.Body.String())
			}
			errs[i] = e.Error
		}
		if errs[0] != errs[1] {
			t.Errorf("%s: error texts differ:\n drhwd:     %s\n drhwcoord: %s", tc.name, errs[0], errs[1])
		}
	}
}

// serveCoordinator runs c through its own Serve (the path cmd/drhwcoord
// takes, with the read bound) on an ephemeral port.
func serveCoordinator(t *testing.T, c *Coordinator) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Serve(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve = %v", err)
		}
	})
	return l.Addr().String()
}

// trickle opens a request to path that declares a body it never
// finishes sending, so its handler sits in the body read, holding an
// admission slot, until the connection closes or the read bound fires.
func trickle(t *testing.T, addr, path string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{", path)
}

// TestCoordinatorReadTimeoutReleasesSlot: a client that sends its
// /v1/sweep headers and then trickles the body holds the only
// admission slot, and other sweeps are shed, until the whole-request
// read bound fires; then the slot is free again.
func TestCoordinatorReadTimeoutReleasesSlot(t *testing.T) {
	r1 := newReplicaServer(t, "r1")
	c, err := New(Config{Replicas: []string{r1.URL}, MaxInFlight: 1, DrainTimeout: 2 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	const bound = time.Second
	c.shell.ReadTimeout = bound
	addr := serveCoordinator(t, c)

	start := time.Now()
	trickle(t, addr, "/v1/sweep")
	for c.shell.InFlight() != 1 {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the trickling sweep was never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	status := func() int {
		resp, err := http.Post("http://"+addr+"/v1/sweep", "application/json", strings.NewReader(sweepBody(`[2]`)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := status(); code != http.StatusTooManyRequests {
		t.Fatalf("sweep beside the trickling one: %d, want 429", code)
	}
	for status() != http.StatusOK {
		if time.Since(start) > 5*bound {
			t.Fatalf("slot still held after %v", time.Since(start))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if held := time.Since(start); held < bound {
		t.Fatalf("slot freed after %v, before the %v read bound", held, bound)
	}
}

// TestCoordinatorSweepOutlivesReadTimeout: the read bound covers
// reading the request only. A sweep whose replica takes longer than
// the bound to answer still streams to the done=true summary.
func TestCoordinatorSweepOutlivesReadTimeout(t *testing.T) {
	inner := server.New(server.Config{ReplicaID: "slow"})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sweep" {
			time.Sleep(2 * time.Second)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	c, err := New(Config{Replicas: []string{slow.URL}, StreamIdleTimeout: 30 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	c.shell.ReadTimeout = time.Second
	addr := serveCoordinator(t, c)

	cells, sum := sweepThrough(t, "http://"+addr, sweepBody(`[2, 3]`))
	if sum == nil || !sum.Done || len(cells) != 2 {
		t.Fatalf("sweep behind a 1s read bound: %d cells, summary %+v", len(cells), sum)
	}
}
