package httpd

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
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"drhwsched/internal/obs"
)

type observation struct {
	endpoint string
	code     int
}

// newShell builds a shell that records its observations.
func newShell(cfg Config) (*Shell, *[]observation) {
	var seen []observation
	cfg.Observe = func(endpoint string, code int, _ time.Duration) {
		seen = append(seen, observation{endpoint, code})
	}
	return New(cfg), &seen
}

func serve(h http.Handler, method, path, body string, hdr ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func errorText(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var e struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("no JSON error envelope in %q: %v", rec.Body.String(), err)
	}
	return e.Error
}

func TestInstrumentStampsEveryResponse(t *testing.T) {
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	sh, seen := newShell(Config{IDPrefix: "node"})
	var handlerTrace string
	sh.Handle("/x", sh.Instrument("x", http.MethodGet, false, func(w http.ResponseWriter, r *http.Request) error {
		handlerTrace = TraceFrom(r.Context()).String()
		return WriteJSON(w, http.StatusOK, map[string]int{"n": 1})
	}))
	for i := 1; i <= 2; i++ {
		rec := serve(sh, http.MethodGet, "/x", "", obs.Header, tp)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
		}
		if got, want := rec.Header().Get("X-Request-Id"), fmt.Sprintf("node-%d", i); got != want {
			t.Fatalf("request ID = %q, want %q", got, want)
		}
		if rec.Header().Get(obs.Header) != tp || handlerTrace != tp {
			t.Fatalf("traceparent echoed %q, handler saw %q, want %s", rec.Header().Get(obs.Header), handlerTrace, tp)
		}
		if !strings.HasPrefix(rec.Header().Get("Server-Timing"), "app;dur=") {
			t.Fatalf("Server-Timing = %q", rec.Header().Get("Server-Timing"))
		}
	}
	// Without a client traceparent one is minted and echoed.
	rec := serve(sh, http.MethodGet, "/x", "")
	if _, err := obs.ParseTraceParent(rec.Header().Get(obs.Header)); err != nil || handlerTrace != rec.Header().Get(obs.Header) {
		t.Fatalf("minted traceparent %q (%v), handler saw %q", rec.Header().Get(obs.Header), err, handlerTrace)
	}
	if len(*seen) != 3 || (*seen)[0] != (observation{"x", 200}) {
		t.Fatalf("observations = %v", *seen)
	}
}

func TestInstrumentMapsErrors(t *testing.T) {
	sh, seen := newShell(Config{MaxBodyBytes: 8, RequestTimeout: 20 * time.Millisecond})
	route := func(path string, admit bool, h HandlerFunc) {
		sh.Handle(path, sh.Instrument(strings.TrimPrefix(path, "/"), http.MethodPost, admit, h))
	}
	route("/read", false, func(w http.ResponseWriter, r *http.Request) error {
		_, err := io.ReadAll(r.Body)
		return err
	})
	route("/decode", false, func(w http.ResponseWriter, r *http.Request) error {
		var v []int
		return DecodeJSON(r, &v, "numbers")
	})
	route("/typed", false, func(w http.ResponseWriter, r *http.Request) error {
		return &Error{Code: http.StatusNotFound, Msg: "nothing here"}
	})
	route("/slow", true, func(w http.ResponseWriter, r *http.Request) error {
		<-r.Context().Done()
		return r.Context().Err()
	})
	route("/broken", false, func(w http.ResponseWriter, r *http.Request) error {
		return errors.New("boom")
	})
	route("/late", false, func(w http.ResponseWriter, r *http.Request) error {
		io.WriteString(w, "partial")
		return errors.New("stream cut")
	})
	cases := []struct {
		method, path, body string
		code               int
		msg                string
	}{
		{http.MethodGet, "/read", "", http.StatusMethodNotAllowed, "use POST"},
		{http.MethodPost, "/read", "0123456789", http.StatusRequestEntityTooLarge, "request body exceeds 8 bytes"},
		{http.MethodPost, "/decode", "[1, 2, 3, 4]", http.StatusRequestEntityTooLarge, "request body exceeds 8 bytes"},
		{http.MethodPost, "/decode", "[1,", http.StatusBadRequest, "parsing numbers body: unexpected EOF"},
		{http.MethodPost, "/typed", "", http.StatusNotFound, "nothing here"},
		{http.MethodPost, "/slow", "", http.StatusGatewayTimeout, "request exceeded the 20ms deadline"},
		{http.MethodPost, "/broken", "", http.StatusInternalServerError, "boom"},
	}
	for _, tc := range cases {
		rec := serve(sh, tc.method, tc.path, tc.body)
		if rec.Code != tc.code || errorText(t, rec) != tc.msg {
			t.Errorf("%s %s: %d %q, want %d %q", tc.method, tc.path, rec.Code, rec.Body.String(), tc.code, tc.msg)
		}
	}
	if rec := serve(sh, http.MethodGet, "/read", ""); rec.Header().Get("Allow") != http.MethodPost {
		t.Errorf("405 without Allow: %v", rec.Header())
	}
	// A failure after the first write leaves the response as written.
	if rec := serve(sh, http.MethodPost, "/late", ""); rec.Code != http.StatusOK || rec.Body.String() != "partial" {
		t.Errorf("late error rewrote the response: %d %q", rec.Code, rec.Body.String())
	}
	if last := (*seen)[len(*seen)-1]; last != (observation{"late", 200}) {
		t.Errorf("last observation = %v", last)
	}
}

func TestInstrumentShedsBeyondCapacity(t *testing.T) {
	sh, _ := newShell(Config{Role: "node", MaxInFlight: 1})
	entered, release := make(chan struct{}), make(chan struct{})
	sh.Handle("/work", sh.Instrument("work", http.MethodPost, true, func(w http.ResponseWriter, r *http.Request) error {
		close(entered)
		<-release
		return nil
	}))
	sh.Handle("/free", sh.Instrument("free", http.MethodPost, false, func(w http.ResponseWriter, r *http.Request) error {
		return nil
	}))
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- serve(sh, http.MethodPost, "/work", "") }()
	<-entered
	if sh.InFlight() != 1 {
		t.Fatalf("InFlight = %d with one admitted request", sh.InFlight())
	}
	rec := serve(sh, http.MethodPost, "/work", "")
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" ||
		errorText(t, rec) != "node at capacity (1 requests in flight)" {
		t.Fatalf("over capacity: %d %v %q", rec.Code, rec.Header(), rec.Body.String())
	}
	if rec := serve(sh, http.MethodPost, "/free", ""); rec.Code != http.StatusOK {
		t.Fatalf("unadmitted route under load: %d", rec.Code)
	}
	close(release)
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("admitted request: %d", rec.Code)
	}
	if sh.InFlight() != 0 {
		t.Fatalf("InFlight = %d after release", sh.InFlight())
	}
}

func TestServeDrains(t *testing.T) {
	var log bytes.Buffer
	sh := New(Config{Name: "d", DrainTimeout: time.Second, Logf: func(f string, a ...any) {
		fmt.Fprintf(&log, f+"\n", a...)
	}})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- sh.ListenAndServe(ctx, "127.0.0.1:0", "detail") }()
	cancel() // Serve drains at once; the listener is bound and logged first
	if err := <-errc; err != nil {
		t.Fatalf("ListenAndServe = %v", err)
	}
	lines := log.String()
	for _, want := range []string{"d: listening on 127.0.0.1:", "(detail)", "d: drained"} {
		if !strings.Contains(lines, want) {
			t.Fatalf("log missing %q:\n%s", want, lines)
		}
	}
}

func TestRequestsRenderValidates(t *testing.T) {
	var m Requests
	m.Observe("b", 200, 3*time.Millisecond)
	m.Observe("a", 429, 20*time.Second)
	m.Observe("a", 200, time.Millisecond)
	var buf bytes.Buffer
	m.Render(&buf, "p")
	text := buf.String()
	if err := obs.ValidateExposition(text); err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	for _, want := range []string{
		`p_requests_total{endpoint="a",code="200"} 1`,
		`p_requests_total{endpoint="a",code="429"} 1`,
		`p_request_duration_seconds_bucket{endpoint="a",le="0.001"} 1`,
		`p_request_duration_seconds_bucket{endpoint="a",le="10"} 1`,
		`p_request_duration_seconds_bucket{endpoint="a",le="+Inf"} 2`,
		`p_request_duration_seconds_count{endpoint="b"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q:\n%s", want, text)
		}
	}
	if strings.Index(text, `endpoint="a"`) > strings.Index(text, `endpoint="b"`) {
		t.Fatalf("endpoints not sorted:\n%s", text)
	}
}

// TestBodyReadTimeoutIs408: a client that sends its headers and then
// trickles the body past the read bound gets a 408 with a fixed
// message, not a 500 echoing the socket error and its addresses.
func TestBodyReadTimeoutIs408(t *testing.T) {
	sh := New(Config{ReadTimeout: 200 * time.Millisecond})
	sh.Handle("/read", sh.Instrument("read", http.MethodPost, false, func(w http.ResponseWriter, r *http.Request) error {
		_, err := io.ReadAll(r.Body)
		return err
	}))
	sh.Handle("/decode", sh.Instrument("decode", http.MethodPost, false, func(w http.ResponseWriter, r *http.Request) error {
		var v []int
		return DecodeJSON(r, &v, "numbers")
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sh.Serve(ctx, l) }()
	defer func() {
		cancel()
		<-done
	}()

	for _, path := range []string{"/read", "/decode"} {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: 64\r\n\r\n[1,", path)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			conn.Close()
			t.Fatalf("%s: reading the response: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		conn.Close()
		if resp.StatusCode != http.StatusRequestTimeout || strings.Contains(string(body), "127.0.0.1:") {
			t.Errorf("%s: %d %s, want 408 without socket addresses", path, resp.StatusCode, body)
		}
	}
}
