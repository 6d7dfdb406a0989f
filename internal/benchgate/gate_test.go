package benchgate

import (
	"strings"
	"testing"
)

func rec(name string, ns, allocs float64, cpus int) Record {
	return Record{Name: name, Iterations: 5, NsOp: ns, AllocsOp: allocs, HostCPUs: cpus}
}

func TestCheckPassesIdenticalArtifacts(t *testing.T) {
	rows := []Record{
		rec("BenchmarkSimRun/hybrid", 2e6, 600, 1),
		rec("BenchmarkSimRunParallel/workers=1", 3e6, 700, 1),
		rec("BenchmarkSimRunParallel/workers=4", 3e6, 780, 1),
	}
	if bad := Check(rows, rows, DefaultLimits()); len(bad) != 0 {
		t.Fatalf("identical artifacts flagged: %v", bad)
	}
}

func TestCheckFlagsAllocRegression(t *testing.T) {
	base := []Record{rec("BenchmarkSimRun/hybrid", 2e6, 600, 1)}
	cur := []Record{rec("BenchmarkSimRun/hybrid", 2e6, 1000, 1)}
	bad := Check(cur, base, DefaultLimits())
	if len(bad) != 1 || !strings.Contains(bad[0], "allocs/op") {
		t.Fatalf("alloc regression 600 -> 1000 not flagged: %v", bad)
	}
	// Within ratio+slack passes: 600*1.3+8 = 788.
	cur[0].AllocsOp = 788
	if bad := Check(cur, base, DefaultLimits()); len(bad) != 0 {
		t.Fatalf("in-budget alloc growth flagged: %v", bad)
	}
}

func TestCheckAllocSlackProtectsTinyBaselines(t *testing.T) {
	base := []Record{rec("BenchmarkTiny", 100, 2, 1)}
	cur := []Record{rec("BenchmarkTiny", 100, 10, 1)}
	if bad := Check(cur, base, DefaultLimits()); len(bad) != 0 {
		t.Fatalf("2 -> 10 allocs within slack flagged: %v", bad)
	}
	cur[0].AllocsOp = 11 // 2*1.3 + 8 = 10.6
	if bad := Check(cur, base, DefaultLimits()); len(bad) != 1 {
		t.Fatalf("2 -> 11 allocs not flagged: %v", bad)
	}
}

func TestCheckGatesZeroAllocBaselines(t *testing.T) {
	base := []Record{{Name: "BenchmarkMapInto/tiles=8", AllocsOp: 0, HostCPUs: 2}}
	cur := []Record{rec("BenchmarkMapInto/tiles=8", 400, 8, 2)}
	if bad := Check(cur, base, DefaultLimits()); len(bad) != 0 {
		t.Fatalf("0 -> 8 allocs within slack flagged: %v", bad)
	}
	cur[0].AllocsOp = 9
	if bad := Check(cur, base, DefaultLimits()); len(bad) != 1 || !strings.Contains(bad[0], "allocs/op") {
		t.Fatalf("0 -> 9 allocs not flagged: %v", bad)
	}
}

func TestCheckNsOnlyComparedOnMatchingHosts(t *testing.T) {
	base := []Record{rec("BenchmarkSimRun/hybrid", 1e6, 600, 1)}

	// 100x slower on a different host: skipped.
	cur := []Record{rec("BenchmarkSimRun/hybrid", 1e8, 600, 8)}
	if bad := Check(cur, base, DefaultLimits()); len(bad) != 0 {
		t.Fatalf("cross-host ns comparison not skipped: %v", bad)
	}

	// Same host: flagged past the generous ratio.
	cur[0].HostCPUs = 1
	bad := Check(cur, base, DefaultLimits())
	if len(bad) != 1 || !strings.Contains(bad[0], "ns/op") {
		t.Fatalf("same-host 100x ns regression not flagged: %v", bad)
	}

	// Baselines without host_cpus (pre-field artifacts) never gate ns.
	base[0].HostCPUs = 0
	cur[0].HostCPUs = 0
	if bad := Check(cur, base, DefaultLimits()); len(bad) != 0 {
		t.Fatalf("host-less ns comparison not skipped: %v", bad)
	}
}

func TestCheckFlagsMissingBenchmark(t *testing.T) {
	base := []Record{rec("BenchmarkSimRun/hybrid", 1e6, 600, 1)}
	bad := Check(nil, base, DefaultLimits())
	if len(bad) != 1 || !strings.Contains(bad[0], "missing") {
		t.Fatalf("deleted benchmark not flagged: %v", bad)
	}
}

func TestSpeedupGateConditionalOnHostCPUs(t *testing.T) {
	mk := func(cpus int, nsOne, nsFour float64) []Record {
		return []Record{
			rec("BenchmarkSimRunParallel/workers=1", nsOne, 700, cpus),
			rec("BenchmarkSimRunParallel/workers=4", nsFour, 780, cpus),
		}
	}
	// 1-CPU host: no speedup demanded even at 1.0x.
	if bad := Check(mk(1, 3e6, 3e6), nil, DefaultLimits()); len(bad) != 0 {
		t.Fatalf("speedup demanded on a 1-CPU host: %v", bad)
	}
	// 4-CPU host, 1.0x: flagged.
	bad := Check(mk(4, 3e6, 3e6), nil, DefaultLimits())
	if len(bad) != 1 || !strings.Contains(bad[0], "speedup") {
		t.Fatalf("missing speedup on a 4-CPU host not flagged: %v", bad)
	}
	// 4-CPU host, 2x: passes.
	if bad := Check(mk(4, 6e6, 3e6), nil, DefaultLimits()); len(bad) != 0 {
		t.Fatalf("2x speedup flagged: %v", bad)
	}
}

// TestSpeedupGateScansAllWorkerPairs: the speedup check is not tied to
// one benchmark name — every workers=1/workers=4 row pair in the
// artifact is held to the floor, and violations come out in sorted
// order.
func TestSpeedupGateScansAllWorkerPairs(t *testing.T) {
	cur := []Record{
		rec("BenchmarkMultitaskRunParallel/partitions=2/workers=1", 4e6, 900, 8),
		rec("BenchmarkMultitaskRunParallel/partitions=2/workers=4", 4e6, 950, 8), // 1.0x: flagged
		rec("BenchmarkMultitaskRunParallel/partitions=4/workers=1", 4e6, 900, 8),
		rec("BenchmarkMultitaskRunParallel/partitions=4/workers=4", 2e6, 950, 8), // 2.0x: fine
		rec("BenchmarkSimRunParallel/workers=1", 3e6, 700, 8),
		rec("BenchmarkSimRunParallel/workers=4", 3e6, 780, 8), // 1.0x: flagged
	}
	bad := Check(cur, nil, DefaultLimits())
	if len(bad) != 2 {
		t.Fatalf("want 2 speedup violations, got %v", bad)
	}
	if !strings.Contains(bad[0], "BenchmarkMultitaskRunParallel/partitions=2") ||
		!strings.Contains(bad[1], "BenchmarkSimRunParallel") {
		t.Fatalf("violations out of sorted order or misattributed: %v", bad)
	}
	// A workers=1 row with no workers=4 sibling is not a pair.
	orphan := []Record{rec("BenchmarkLonely/workers=1", 4e6, 900, 8)}
	if bad := Check(orphan, nil, DefaultLimits()); len(bad) != 0 {
		t.Fatalf("orphan workers=1 row flagged: %v", bad)
	}
}

func TestClusterThroughputGate(t *testing.T) {
	cell := func(name string, cps float64, cpus int) Record {
		return Record{Name: name, CellsPerSec: cps, HostCPUs: cpus}
	}
	base := []Record{cell("ClusterReshard/peerfill", 30, 1)}

	// Within the generous ratio: 30/3 = 10 is the floor.
	cur := []Record{cell("ClusterReshard/peerfill", 10.5, 1)}
	if bad := Check(cur, base, DefaultLimits()); len(bad) != 0 {
		t.Fatalf("in-budget throughput decay flagged: %v", bad)
	}

	// Below the floor — a peer-fill leg gone recompute-bound.
	cur[0].CellsPerSec = 5
	bad := Check(cur, base, DefaultLimits())
	if len(bad) != 1 || !strings.Contains(bad[0], "cells/sec") {
		t.Fatalf("30 -> 5 cells/sec not flagged: %v", bad)
	}

	// Different host CPU count: skipped, like ns/op.
	cur[0].HostCPUs = 8
	if bad := Check(cur, base, DefaultLimits()); len(bad) != 0 {
		t.Fatalf("cross-host throughput comparison not skipped: %v", bad)
	}

	// go-test rows without cells_per_sec never trip the check.
	if bad := Check([]Record{rec("BenchmarkSimRun/hybrid", 1e6, 600, 1)},
		[]Record{rec("BenchmarkSimRun/hybrid", 1e6, 600, 1)}, DefaultLimits()); len(bad) != 0 {
		t.Fatalf("benchmark rows hit the cluster gate: %v", bad)
	}
}

func TestBaseNameStripsGOMAXPROCSSuffix(t *testing.T) {
	base := []Record{rec("BenchmarkSimRun/hybrid", 1e6, 600, 0)}
	cur := []Record{rec("BenchmarkSimRun/hybrid-8", 1e6, 600, 0)}
	if bad := Check(cur, base, DefaultLimits()); len(bad) != 0 {
		t.Fatalf("-8 suffix broke row matching: %v", bad)
	}
	if got := baseName("BenchmarkSimRunParallel/workers=4-16"); got != "BenchmarkSimRunParallel/workers=4" {
		t.Fatalf("baseName = %q", got)
	}
	if got := baseName("BenchmarkSimRunParallel/workers=4"); got != "BenchmarkSimRunParallel/workers=4" {
		t.Fatalf("baseName stripped a real name: %q", got)
	}
}

func TestParse(t *testing.T) {
	recs, err := Parse([]byte(`[
	  {"name": "BenchmarkSimRun/hybrid", "iterations": 5, "ns_op": 2000000, "B_op": 56000, "allocs_op": 687, "host_cpus": 1}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].AllocsOp != 687 || recs[0].HostCPUs != 1 {
		t.Fatalf("parsed %+v", recs)
	}
	if _, err := Parse([]byte(`{"not": "an array"}`)); err == nil {
		t.Fatal("object artifact accepted")
	}
	if _, err := Parse([]byte(`[{"ns_op": 1}]`)); err == nil {
		t.Fatal("nameless record accepted")
	}
}
