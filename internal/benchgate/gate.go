// Package benchgate compares a freshly-measured benchmark artifact
// (the JSON arrays scripts/bench.sh emits) against a committed baseline
// and reports regressions. It is the library behind cmd/benchgate,
// which CI runs after the benchmark step so an allocation or latency
// regression on the simulation hot path fails the build instead of
// silently shifting the artifact trend line.
//
// Two classes of check, with very different trust levels:
//
//   - allocs/op is deterministic for a given binary — it does not
//     depend on machine load or CPU count — so the gate holds it to a
//     tight ratio (default 1.3x, plus a small absolute slack so
//     near-zero baselines are not impossible to meet). A zero baseline
//     is held to the slack alone: an allocation-free hot path that
//     starts allocating per op fails.
//
//   - ns/op is noisy and machine-dependent, so it is compared only
//     between rows measured on hosts with the same CPU count, and
//     against a generous ratio (default 4x) meant to catch accidental
//     complexity blow-ups, not percent-level drift.
//
// The gate also understands the sharded-execution benchmarks: when the
// current artifact was measured on a host with at least MinSpeedupCPUs
// logical CPUs, every benchmark that publishes both a workers=1 and a
// workers=4 row (BenchmarkSimRunParallel, the partitions×workers grid
// of BenchmarkMultitaskRunParallel, and any future fan-out benchmark)
// must show the workers=4 row beating workers=1 by MinSpeedup. On
// smaller hosts (the 1-CPU container this repository often builds in)
// the check is skipped — there is no parallel speedup to measure
// without parallel hardware — mirroring how BENCH_cluster.json records
// host_cpus next to its scaling ratios.
package benchgate

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Record is one benchmark row of a bench.sh JSON artifact.
type Record struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsOp       float64 `json:"ns_op"`
	BOp        float64 `json:"B_op"`
	AllocsOp   float64 `json:"allocs_op"`
	// HostCPUs is the logical CPU count of the measuring host; 0 means
	// the artifact predates the field (ns/op checks are then skipped).
	HostCPUs int `json:"host_cpus,omitempty"`
	// CellsPerSec is the wall-clock sweep throughput of a
	// BENCH_cluster.json row (zero for go-test benchmark rows). Like
	// ns/op it is machine-dependent, so it is gated only between rows
	// measured on hosts with the same CPU count.
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
}

// Limits configure the gate. The zero value of a field disables that
// check; DefaultLimits gives the CI configuration.
type Limits struct {
	// AllocRatio bounds current allocs/op at baseline*AllocRatio +
	// AllocSlack.
	AllocRatio float64
	// AllocSlack is the absolute allocs/op headroom added on top of the
	// ratio, so single-digit baselines don't make every change illegal.
	AllocSlack float64
	// NsRatio bounds current ns/op at baseline*NsRatio, compared only
	// when both rows carry the same non-zero HostCPUs.
	NsRatio float64
	// MinSpeedup is the required workers=1 / workers=4 ns/op ratio of
	// every benchmark carrying both rows, enforced only when the
	// current artifact's rows report HostCPUs >= MinSpeedupCPUs.
	MinSpeedup     float64
	MinSpeedupCPUs int
	// ClusterRatio bounds cluster-sweep throughput decay: a current
	// row regresses when its cells/sec falls below baseline /
	// ClusterRatio, compared only when both rows carry the same
	// non-zero HostCPUs. Generous for the same reason NsRatio is —
	// wall-clock throughput is noisy — so it catches a re-shard leg
	// going recompute-bound, not percent-level drift.
	ClusterRatio float64
}

// DefaultLimits is the CI gate configuration.
func DefaultLimits() Limits {
	return Limits{
		AllocRatio:     1.3,
		AllocSlack:     8,
		NsRatio:        4,
		MinSpeedup:     1.5,
		MinSpeedupCPUs: 4,
		ClusterRatio:   3,
	}
}

// speedupRefSuffix/speedupSuffix name the row pair the speedup check
// scans for: every benchmark key ending in workers=1 whose sibling
// workers=4 row exists is held to Limits.MinSpeedup.
const (
	speedupRefSuffix = "/workers=1"
	speedupSuffix    = "/workers=4"
)

// Parse decodes a bench.sh JSON artifact.
func Parse(data []byte) ([]Record, error) {
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("benchgate: parsing artifact: %w", err)
	}
	for i, r := range recs {
		if r.Name == "" {
			return nil, fmt.Errorf("benchgate: artifact record %d has no name", i)
		}
	}
	return recs, nil
}

// baseName strips the -CPUs suffix `go test -bench` appends when
// GOMAXPROCS > 1 ("BenchmarkX/sub-8"), so artifacts measured on
// different hosts key the same benchmark identically.
func baseName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		digits := name[i+1:]
		if digits != "" && strings.Trim(digits, "0123456789") == "" {
			return name[:i]
		}
	}
	return name
}

func indexByName(recs []Record) map[string]Record {
	m := make(map[string]Record, len(recs))
	for _, r := range recs {
		m[baseName(r.Name)] = r
	}
	return m
}

// Check compares current against baseline under lim and returns one
// human-readable violation per failed check (empty means the gate
// passes). Baseline rows missing from current are violations — a
// deleted benchmark must update the baseline deliberately, not slip
// past the gate.
func Check(current, baseline []Record, lim Limits) []string {
	var bad []string
	cur := indexByName(current)
	for _, base := range baseline {
		key := baseName(base.Name)
		now, ok := cur[key]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: present in baseline but missing from current artifact", key))
			continue
		}
		if lim.AllocRatio > 0 {
			limit := base.AllocsOp*lim.AllocRatio + lim.AllocSlack
			if now.AllocsOp > limit {
				bad = append(bad, fmt.Sprintf("%s: allocs/op %.0f exceeds %.0f (baseline %.0f x %.2g + %.0f)",
					key, now.AllocsOp, limit, base.AllocsOp, lim.AllocRatio, lim.AllocSlack))
			}
		}
		if lim.NsRatio > 0 && base.NsOp > 0 && base.HostCPUs > 0 && base.HostCPUs == now.HostCPUs {
			if limit := base.NsOp * lim.NsRatio; now.NsOp > limit {
				bad = append(bad, fmt.Sprintf("%s: ns/op %.0f exceeds %.0f (baseline %.0f x %.2g, host_cpus %d)",
					key, now.NsOp, limit, base.NsOp, lim.NsRatio, base.HostCPUs))
			}
		}
		if lim.ClusterRatio > 0 && base.CellsPerSec > 0 && base.HostCPUs > 0 && base.HostCPUs == now.HostCPUs {
			if floor := base.CellsPerSec / lim.ClusterRatio; now.CellsPerSec < floor {
				bad = append(bad, fmt.Sprintf("%s: cells/sec %.2f below %.2f (baseline %.2f / %.2g, host_cpus %d)",
					key, now.CellsPerSec, floor, base.CellsPerSec, lim.ClusterRatio, base.HostCPUs))
			}
		}
	}
	bad = append(bad, speedupViolations(cur, lim)...)
	return bad
}

// speedupViolations scans the current artifact for every workers=1 /
// workers=4 row pair and demands MinSpeedup of each, in sorted key
// order so the report is deterministic.
func speedupViolations(cur map[string]Record, lim Limits) []string {
	if lim.MinSpeedup <= 0 {
		return nil
	}
	keys := make([]string, 0, len(cur))
	for key := range cur {
		if strings.HasSuffix(key, speedupRefSuffix) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	var bad []string
	for _, key := range keys {
		bench := strings.TrimSuffix(key, speedupRefSuffix)
		one := cur[key]
		four, ok := cur[bench+speedupSuffix]
		if !ok || one.NsOp <= 0 || four.NsOp <= 0 {
			continue
		}
		if one.HostCPUs < lim.MinSpeedupCPUs {
			continue // no parallel hardware, no speedup to demand
		}
		if speedup := one.NsOp / four.NsOp; speedup < lim.MinSpeedup {
			bad = append(bad, fmt.Sprintf("%s: workers=4 speedup %.2fx below %.2fx on a %d-CPU host",
				bench, speedup, lim.MinSpeedup, one.HostCPUs))
		}
	}
	return bad
}
