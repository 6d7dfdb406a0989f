// Package pprofd is the opt-in net/http/pprof side listener of drhwd
// and drhwcoord (their -pprof-addr flag).
package pprofd

import (
	"net/http"
	"net/http/pprof"
)

// Serve serves the pprof handlers on addr from their own mux (not
// http.DefaultServeMux), so the side listener serves profiles and
// nothing else. It returns at once; listener errors go to logf.
func Serve(addr string, logf func(string, ...any)) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		logf("pprof listening on %s", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			logf("pprof listener: %v", err)
		}
	}()
}
