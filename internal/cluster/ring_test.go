package cluster

import (
	"fmt"
	"testing"
)

func TestRingLookupDeterministic(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	r1 := NewRing(nodes, 64)
	r2 := NewRing([]string{"http://c", "http://a", "http://b"}, 64) // order must not matter
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		if r1.Lookup(key) != r2.Lookup(key) {
			t.Fatalf("lookup of %q depends on construction order", key)
		}
		if r1.Lookup(key) != r1.Lookup(key) {
			t.Fatalf("lookup of %q is not deterministic", key)
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	r := NewRing(nodes, 64)
	got := map[string]int{}
	for i := 0; i < 300; i++ {
		got[r.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	for _, n := range nodes {
		if got[n] == 0 {
			t.Fatalf("node %s owns no keys: %v", n, got)
		}
	}
}

// TestRingWithoutMovesOnlyOrphans: removing a node must re-home only
// the keys it owned — consistent hashing's whole point, since every
// moved key is a cold analysis cache on its new replica.
func TestRingWithoutMovesOnlyOrphans(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c", "http://d"}
	r := NewRing(nodes, 64)
	shrunk := NewRing([]string{"http://a", "http://c", "http://d"}, 64)
	if len(shrunk.points) != 3*64 {
		t.Fatalf("shrunk ring has %d points, want 3 nodes of 64", len(shrunk.points))
	}
	moved, kept := 0, 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, after := r.Lookup(key), shrunk.Lookup(key)
		if before == "http://b" {
			if after == "http://b" {
				t.Fatalf("key %q still on removed node", key)
			}
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %q moved from %s to %s though its owner survived", key, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

func TestRingEmptyAndDuplicates(t *testing.T) {
	if got := NewRing(nil, 8).Lookup("k"); got != "" {
		t.Fatalf("empty ring returned %q", got)
	}
	r := NewRing([]string{"http://a", "http://a", ""}, 8)
	if len(r.points) != 8 {
		t.Fatalf("duplicates not collapsed: %d points, want one node of 8", len(r.points))
	}
	if got := r.Lookup("k"); got != "http://a" {
		t.Fatalf("single-node ring returned %q", got)
	}
}
