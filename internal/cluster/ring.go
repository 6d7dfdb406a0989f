// Package cluster is the distributed sweep fabric: a coordinator that
// shards sweep grids across a pool of drhwd replicas and merges their
// NDJSON cell streams back into one client stream.
//
// One drhwd process caps out at GOMAXPROCS workers and one in-process
// analysis store. The engine's design-time artifacts are
// content-addressed (engine.Fingerprint), so a sweep grid shards
// naturally by analysis fingerprint: a consistent-hash ring assigns
// every fingerprint's cells to one replica, keeping that replica's
// cache hot for its shard — the same locality argument that drives
// replacement-aware configuration reuse inside a single fabric. On
// replica failure or timeout, the coordinator retries the affected
// cells against the surviving replicas with capped exponential backoff
// after re-hashing the ring, deduplicating by global cell index so
// every cell reaches the client exactly once.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring over replica base URLs. Each node
// owns vnodes points on the ring; a key is served by the first point
// clockwise from the key's hash. Removing a node moves only the keys
// it owned — every other shard keeps its replica, and with it its warm
// analysis cache.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultVNodes balances shard spread against ring-build cost; at 64
// points per node the load imbalance across a handful of replicas
// stays within a few percent.
const DefaultVNodes = 64

func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over nodes (vnodes points each; zero or
// negative means DefaultVNodes). Duplicate nodes collapse to one.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{}
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on node so the assignment is deterministic even in
		// the (astronomically unlikely) event of a hash collision.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Lookup returns the node owning key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise
	}
	return r.points[i].node
}
