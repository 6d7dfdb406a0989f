package server

import (
	"net/http"

	"drhwsched/internal/httpd"
	"drhwsched/internal/peerstore"
)

// TierWire mirrors peerstore.TierStats on /healthz, so a coordinator
// (or the smoke test) can assert that re-homed keys filled over the
// network instead of recomputing.
type TierWire struct {
	Local      int64 `json:"local"`
	Peer       int64 `json:"peer"`
	Compute    int64 `json:"compute"`
	PeerErrors int64 `json:"peer_errors,omitempty"`
	Rejected   int64 `json:"rejected,omitempty"`
}

func tierWire(t peerstore.TierStats) *TierWire {
	return &TierWire{
		Local:      t.Local,
		Peer:       t.Peer,
		Compute:    t.Compute,
		PeerErrors: t.PeerErrors,
		Rejected:   t.Rejected,
	}
}

// handleAnalysisArtifact serves GET /v1/analysis/{fingerprint}: the
// peer-fill endpoint. A sibling replica that was just assigned one of
// this replica's former shard keys fetches the warm artifact here
// instead of recomputing it. Peek waits on an in-flight local compute
// (so concurrent same-key work pool-wide stays at one compute) but
// never starts one.
func (s *Server) handleAnalysisArtifact(w http.ResponseWriter, r *http.Request) error {
	key, err := peerstore.KeyFromPath(r.URL.Path)
	if err != nil {
		return httpd.BadRequest("%v", err)
	}
	a, ok := s.eng.Peek(r.Context(), key)
	if !ok {
		return &httpd.Error{Code: http.StatusNotFound, Msg: "no analysis under that fingerprint"}
	}
	data, err := peerstore.Encode(key, a)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	_, err = w.Write(data)
	return err
}

// PeersRequest is the POST /v1/peers body: the full replacement peer
// set for this replica's tiered store (the coordinator pushes it on
// every pool change).
type PeersRequest struct {
	Peers []string `json:"peers"`
}

// PeersResponse echoes the normalized peer set now in effect.
type PeersResponse struct {
	Peers []string `json:"peers"`
}

func (s *Server) handlePeers(w http.ResponseWriter, r *http.Request) error {
	if s.cfg.PeerStore == nil {
		return &httpd.Error{Code: http.StatusNotFound, Msg: "peer fill not enabled on this replica"}
	}
	var req PeersRequest
	if err := httpd.DecodeJSON(r, &req, "peers"); err != nil {
		return err
	}
	s.cfg.PeerStore.SetPeers(req.Peers)
	peers := s.cfg.PeerStore.Peers()
	s.shell.Log("peer set updated: %d peer(s)", len(peers))
	return httpd.WriteJSON(w, http.StatusOK, PeersResponse{Peers: peers})
}
