package server

import (
	"net/http"

	"drhwsched/internal/httpd"
)

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
