package peerstore

import (
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"

	"drhwsched/internal/engine"
	"drhwsched/internal/httpd"
)

// KeyFromPath extracts the raw fingerprint key from a peer-endpoint
// request path (PathPrefix + hex-encoded sha256 fingerprint).
func KeyFromPath(path string) (string, error) {
	hexKey := strings.TrimPrefix(path, PathPrefix)
	if hexKey == path || hexKey == "" || strings.Contains(hexKey, "/") {
		return "", fmt.Errorf("peerstore: path %q is not %s{fingerprint}", path, PathPrefix)
	}
	raw, err := hex.DecodeString(hexKey)
	if err != nil {
		return "", fmt.Errorf("peerstore: fingerprint %q is not hex: %v", hexKey, err)
	}
	if len(raw) != 32 {
		return "", fmt.Errorf("peerstore: fingerprint is %d bytes, want 32", len(raw))
	}
	return string(raw), nil
}

// Handler serves GET /v1/analysis/{fingerprint}, the peer-fill
// endpoint drhwd mounts on its shell: a sibling replica that was just
// assigned one of this replica's former shard keys fetches the warm
// artifact here instead of recomputing it. It answers 200 with the
// encoded envelope on a local hit, 404 on a miss and 400 on a
// malformed fingerprint. Peek waits on an in-flight local compute (so
// concurrent same-key work pool-wide stays at one compute) but never
// starts one.
func Handler(eng *engine.Engine) httpd.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) error {
		key, err := KeyFromPath(r.URL.Path)
		if err != nil {
			return httpd.BadRequest("%v", err)
		}
		a, ok := eng.Peek(r.Context(), key)
		if !ok {
			return &httpd.Error{Code: http.StatusNotFound, Msg: "no analysis under that fingerprint"}
		}
		data, err := Encode(key, a)
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", "application/json")
		_, err = w.Write(data)
		return err
	}
}
