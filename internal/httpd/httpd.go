// Package httpd is the HTTP shell drhwd (internal/server) and drhwcoord
// (internal/cluster) share: one middleware stack for every route, the
// JSON error envelope, the request metrics families, and the
// Serve/drain lifecycle (package pprofd holds the opt-in profiling
// listener, apart so that importers of the shell do not link
// net/http/pprof). Each daemon mounts its own handlers on a Shell and
// renders its own /metrics around the shell's request families.
//
// Every route gets, in order: a method check (405), W3C trace context
// (a client traceparent is accepted, otherwise one is minted; either
// way it is echoed), a request ID, the request-body bound (413). An
// admitted route additionally takes a slot from a bounded pool (429
// when exhausted: load shedding, not queueing) and runs under the
// per-request deadline when one is configured (504 when exceeded).
// Handler errors map to statuses (*Error carries its own), the first
// write carries a Server-Timing header, and every request ends in a
// slog record and one observation of the request metrics.
package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"drhwsched/internal/obs"
)

// DefaultReadTimeout bounds the whole request read (headers and body)
// of a shell without a request deadline. It equals drhwd's default
// bound (its 60 s request deadline plus 5 s).
const DefaultReadTimeout = 65 * time.Second

// Config is what a daemon hands its shell.
type Config struct {
	// Name prefixes lifecycle log lines ("drhwd: drained") and metric
	// families (drhwd_requests_total).
	Name string
	// Role names the daemon in the 429 message ("server at capacity").
	Role string
	// IDPrefix starts every request ID: IDPrefix-1, IDPrefix-2, ...
	IDPrefix string
	// MaxInFlight sizes the admission slot pool; zero or negative means
	// 2×GOMAXPROCS.
	MaxInFlight int
	// MaxBodyBytes bounds every request body; zero or negative means
	// 1 MiB.
	MaxBodyBytes int64
	// RequestTimeout is the deadline of admitted requests; zero means
	// none.
	RequestTimeout time.Duration
	// ReadTimeout bounds the whole request read; zero means
	// RequestTimeout + 5 s, or DefaultReadTimeout without a request
	// deadline. Without it a client trickling its body would hold an
	// admission slot for good: reading the body is not context-aware,
	// so the request deadline alone cannot reclaim it.
	ReadTimeout time.Duration
	// DrainTimeout is how long Serve waits for in-flight requests on
	// shutdown before canceling their contexts; zero or negative means
	// 10 s.
	DrainTimeout time.Duration
	// Observe receives one observation per finished request (nil: none).
	Observe func(endpoint string, code int, d time.Duration)
	// Logf receives lifecycle log lines (nil: silent).
	Logf func(format string, args ...any)
	// Logger receives one structured record per request (nil: none).
	Logger *slog.Logger
}

// HandlerFunc is a route handler. A returned error is mapped to a
// status by the shell unless the handler already wrote its header.
type HandlerFunc func(http.ResponseWriter, *http.Request) error

// Shell routes requests through the shared middleware. Routes are
// mounted with Handle(pattern, Instrument(...)); the embedded Config
// may be adjusted before Serve.
type Shell struct {
	Config
	*http.ServeMux
	inflight chan struct{}
	reqSeq   atomic.Int64
}

// New builds a shell from cfg. drhwd and drhwcoord document the same
// defaults on their own configs; they are filled here, once.
func New(cfg Config) *Shell {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = DefaultReadTimeout
		if cfg.RequestTimeout > 0 {
			cfg.ReadTimeout = cfg.RequestTimeout + 5*time.Second
		}
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	return &Shell{Config: cfg, ServeMux: http.NewServeMux(), inflight: make(chan struct{}, cfg.MaxInFlight)}
}

// InFlight reports how many admitted requests hold a slot.
func (s *Shell) InFlight() int { return len(s.inflight) }

// Log writes one lifecycle line prefixed with the daemon's name.
func (s *Shell) Log(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(s.Name+": "+format, args...)
	}
}

// Serve runs the shell on l until ctx is canceled, then drains:
// in-flight requests get DrainTimeout to finish before their contexts
// are canceled and the remaining connections are closed. Returns nil
// after a clean drain.
func (s *Shell) Serve(ctx context.Context, l net.Listener) error {
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	hs := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       s.ReadTimeout,
		BaseContext:       func(net.Listener) context.Context { return base },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.Log("shutdown requested, draining for up to %v", s.DrainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), s.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	if err != nil {
		// Stragglers: cancel their request contexts and close the
		// connections.
		cancelBase()
		hs.Close()
	}
	<-errc // always http.ErrServerClosed after Shutdown/Close
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	s.Log("drained")
	return nil
}

// ListenAndServe binds addr (host:0 picks an ephemeral port), logs
// "listening on HOST:PORT (detail)" — a line scripts grep for — and
// serves until ctx is canceled.
func (s *Shell) ListenAndServe(ctx context.Context, addr, detail string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Log("listening on %s (%s)", l.Addr(), detail)
	return s.Serve(ctx, l)
}

// Error carries a status code out of a handler.
type Error struct {
	Code int
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

// BadRequest is a 400 handler error.
func BadRequest(format string, args ...any) error {
	return &Error{Code: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// TooLarge is a 413 handler error.
func TooLarge(format string, args ...any) error {
	return &Error{Code: http.StatusRequestEntityTooLarge, Msg: fmt.Sprintf(format, args...)}
}

// DecodeJSON decodes the request body into v. A body over the shell's
// bound keeps its *http.MaxBytesError (413), a read past the read bound
// its timeout (408); any other failure is a 400 naming what was parsed.
func DecodeJSON(r *http.Request, v any, what string) error {
	err := json.NewDecoder(r.Body).Decode(v)
	var mbe *http.MaxBytesError
	if err == nil || errors.As(err, &mbe) || isTimeout(err) {
		return err
	}
	return BadRequest("parsing %s body: %v", what, err)
}

// isTimeout reports a network timeout: unanswered by a handler, one is
// a body read past the read deadline, and its text names socket
// addresses, so the client gets a fixed 408 message instead.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// statusWriter records the status code (and whether the header went
// out) for metrics and late-error suppression, passing Flush through
// for streaming responses. The before hook runs exactly once,
// immediately ahead of the first header write: the last moment a
// header like Server-Timing can still be set.
type statusWriter struct {
	http.ResponseWriter
	code   int
	wrote  bool
	before func()
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.before()
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.before()
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ctxKey scopes the request-trace context value to this package.
type ctxKey int

const traceCtxKey ctxKey = iota

// TraceFrom recovers the request's trace context inside a handler.
func TraceFrom(ctx context.Context) obs.TraceParent {
	tp, _ := ctx.Value(traceCtxKey).(obs.TraceParent)
	return tp
}

// Instrument wraps h in the shared middleware (see the package
// comment). Only admitted routes take a slot and a deadline.
func (s *Shell) Instrument(endpoint, method string, admit bool, h HandlerFunc) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tp, tpErr := obs.ParseTraceParent(r.Header.Get(obs.Header))
		if tpErr != nil {
			tp = obs.NewTrace()
		}
		reqID := fmt.Sprintf("%s-%d", s.IDPrefix, s.reqSeq.Add(1))
		w := &statusWriter{ResponseWriter: rw, code: http.StatusOK}
		w.before = func() {
			w.Header().Set("Server-Timing",
				fmt.Sprintf("app;dur=%.3f", float64(time.Since(start).Microseconds())/1000))
		}
		w.Header().Set(obs.Header, tp.String())
		w.Header().Set("X-Request-Id", reqID)
		r = r.WithContext(context.WithValue(r.Context(), traceCtxKey, tp))
		defer func() {
			d := time.Since(start)
			if s.Observe != nil {
				s.Observe(endpoint, w.code, d)
			}
			if s.Logger != nil {
				s.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
					slog.String("endpoint", endpoint),
					slog.Int("code", w.code),
					slog.Duration("duration", d),
					slog.String("request_id", reqID),
					slog.String("trace_id", tp.TraceIDString()),
					slog.String("span_id", tp.SpanIDString()),
				)
			}
		}()

		if r.Method != method {
			w.Header().Set("Allow", method)
			WriteError(w, http.StatusMethodNotAllowed, fmt.Sprintf("use %s", method))
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
		if admit {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				// Refuse immediately so the client can back off or
				// retry elsewhere.
				w.Header().Set("Retry-After", "1")
				WriteError(w, http.StatusTooManyRequests,
					fmt.Sprintf("%s at capacity (%d requests in flight)", s.Role, s.MaxInFlight))
				return
			}
			if s.RequestTimeout > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), s.RequestTimeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}

		err := h(w, r)
		if err == nil {
			return
		}
		if w.wrote {
			// Mid-stream failure: the status is already on the wire;
			// the NDJSON summary line (or its absence) tells the
			// client. Just log.
			s.Log("%s: late error: %v", endpoint, err)
			return
		}
		var he *Error
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &he):
			WriteError(w, he.Code, he.Msg)
		case errors.As(err, &mbe):
			WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
		case errors.Is(err, context.DeadlineExceeded):
			WriteError(w, http.StatusGatewayTimeout,
				fmt.Sprintf("request exceeded the %v deadline", s.RequestTimeout))
		case errors.Is(err, context.Canceled):
			// Client went away; nothing to write.
			s.Log("%s: canceled: %v", endpoint, err)
		case isTimeout(err):
			WriteError(w, http.StatusRequestTimeout,
				fmt.Sprintf("request not read within the %v read bound", s.ReadTimeout))
		default:
			WriteError(w, http.StatusInternalServerError, err.Error())
		}
	})
}

// WriteError emits the JSON error envelope {"error": msg}.
func WriteError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// WriteJSON emits v as an indented JSON body under status code.
func WriteJSON(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
