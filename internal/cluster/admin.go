package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"drhwsched/internal/httpd"
	"drhwsched/internal/peerstore"
)

// ReplicasResponse is the GET /v1/replicas body and the echo after a
// POST: the active sweep pool plus the drained members still serving
// peer fills.
type ReplicasResponse struct {
	Replicas []string `json:"replicas"`
	Drained  []string `json:"drained,omitempty"`
}

// ReplicasUpdateRequest is the POST /v1/replicas body. Remove moves
// active replicas to the drained set — out of future sweeps, still in
// every peer set, so re-homed keys fill from their warm caches
// instead of recomputing. Add activates new URLs, or reactivates
// drained ones cache intact. Either list may be empty, not both.
type ReplicasUpdateRequest struct {
	Add    []string `json:"add,omitempty"`
	Remove []string `json:"remove,omitempty"`
}

func (c *Coordinator) handleReplicasGet(w http.ResponseWriter, r *http.Request) error {
	return httpd.WriteJSON(w, http.StatusOK, ReplicasResponse{Replicas: c.Replicas(), Drained: c.Drained()})
}

func (c *Coordinator) handleReplicasUpdate(w http.ResponseWriter, r *http.Request) error {
	var req ReplicasUpdateRequest
	if err := httpd.DecodeJSON(r, &req, "replicas"); err != nil {
		return err
	}
	adds, err := normalizeURLs(req.Add, "add")
	if err != nil {
		return err
	}
	removes, err := normalizeURLs(req.Remove, "remove")
	if err != nil {
		return err
	}
	if len(adds) == 0 && len(removes) == 0 {
		return httpd.BadRequest("replicas update needs add or remove entries")
	}

	c.poolMu.Lock()
	// Validate the whole request against current membership before
	// mutating anything, so a half-bad request changes nothing.
	for _, u := range removes {
		if _, ok := c.pool[u]; !ok {
			c.poolMu.Unlock()
			return httpd.BadRequest("remove: %q is not an active replica", u)
		}
	}
	for _, u := range adds {
		if _, ok := c.pool[u]; ok {
			c.poolMu.Unlock()
			return httpd.BadRequest("add: %q is already an active replica", u)
		}
	}
	if len(c.pool)-len(removes)+len(adds) == 0 {
		c.poolMu.Unlock()
		return httpd.BadRequest("cannot remove the last active replica")
	}
	for _, u := range removes {
		c.drained[u] = c.pool[u]
		delete(c.pool, u)
	}
	for _, u := range adds {
		if rep, ok := c.drained[u]; ok {
			// Reactivation: the drained process kept its warm cache,
			// hand it sweeps again as-is.
			c.pool[u] = rep
			delete(c.drained, u)
		} else {
			c.pool[u] = newReplica(u, c.cfg.HTTPClient)
		}
		delete(c.failStreak, u)
	}
	active, drained := sortedKeys(c.pool), sortedKeys(c.drained)
	c.poolMu.Unlock()

	for _, u := range adds {
		c.metrics.replicasAdded.Add(1)
		c.shell.Log("replica %s added to pool", u)
	}
	for _, u := range removes {
		c.metrics.replicasRemoved.Add(1)
		c.shell.Log("replica %s drained (peer fills only)", u)
	}
	c.pushPeers()
	return httpd.WriteJSON(w, http.StatusOK, ReplicasResponse{Replicas: active, Drained: drained})
}

// normalizeURLs trims and slash-normalizes one admin list, rejecting
// empties and within-list duplicates.
func normalizeURLs(in []string, verb string) ([]string, error) {
	out := make([]string, 0, len(in))
	seen := map[string]bool{}
	for _, u := range in {
		u = peerstore.NormalizeURL(u)
		if u == "" {
			return nil, httpd.BadRequest("%s: empty replica URL", verb)
		}
		if seen[u] {
			return nil, httpd.BadRequest("%s: duplicate replica URL %q", verb, u)
		}
		seen[u] = true
		out = append(out, u)
	}
	return out, nil
}

// SyncPeers pushes the current membership's peer sets to every member
// — the same best-effort broadcast admin changes and evictions issue
// automatically. cmd/drhwcoord calls it once at boot, so replicas
// need no -peers flags of their own.
func (c *Coordinator) SyncPeers() { c.pushPeers() }

// pushPeers posts the full membership — pool and drained alike, since
// a drained replica's warm cache is exactly what peer fill is for —
// to every member's /v1/peers, minus the member itself. Best effort:
// a replica that misses a push still falls back to computing, so
// failures are logged and counted, never fatal.
func (c *Coordinator) pushPeers() {
	members := c.members()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, m := range members {
		rep := m.rep
		peers := make([]string, 0, len(members)-1)
		for _, o := range members {
			if o.rep.URL != rep.URL {
				peers = append(peers, o.rep.URL)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rep.PushPeers(ctx, peers); err != nil {
				c.shell.Log("pushing peer set to %s: %v", rep.URL, err)
				c.metrics.peerPushFailures.Add(1)
				return
			}
			c.metrics.peerPushes.Add(1)
		}()
	}
	wg.Wait()
}
