#!/usr/bin/env bash
# bench.sh — run the simulation, engine and fabric benchmarks with
# -benchmem and emit two JSON artifacts:
#
#   BENCH_sim.json     sim kernel (per approach) + engine sweep + the
#                      design-time, hybrid-step and mapping layers
#   BENCH_fabric.json  multitask kernel at partition counts 1/2/4 plus
#                      the sharded partitions x workers grid
#
# One record per benchmark with ns/op, B/op, allocs/op and the host's
# logical CPU count (host_cpus — ns/op rows are only comparable between
# hosts of the same width; see internal/benchgate). CI uploads both
# files as artifacts so the performance trajectory (especially the hot
# paths' allocation budgets) has data points across commits, and then
# gates BENCH_sim.json against the committed BENCH_baseline.json and
# BENCH_fabric.json against BENCH_fabric_baseline.json with
# cmd/benchgate: allocation regressions past ~1.3x fail the build, and
# on hosts with >= 4 CPUs every workers=1/workers=4 row pair must show
# its speedup.
#
#   BENCH_OUT=path         sim output file (default BENCH_sim.json)
#   FABRIC_OUT=path        fabric output file (default BENCH_fabric.json)
#   BENCH_BASELINE=path    sim gate baseline (default BENCH_baseline.json;
#                          set BENCH_GATE=0 to skip both gates)
#   FABRIC_BASELINE=path   fabric gate baseline (default
#                          BENCH_fabric_baseline.json)
#
# The -benchtime of each group is fixed: 5x for BenchmarkSimRun* and
# BenchmarkMultitaskRun*, 3x for BenchmarkEngineSweep.
set -euo pipefail
cd "$(dirname "$0")/.."

NCPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"

OUT="${BENCH_OUT:-BENCH_sim.json}"
FABRIC="${FABRIC_OUT:-BENCH_fabric.json}"
RAW="$(mktemp)"
FABRIC_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$FABRIC_RAW"' EXIT

# to_json RAWFILE OUTFILE: fold `go test -bench` lines into a JSON array.
to_json() {
    awk -v ncpu="$NCPU" '
    function unitkey(u) {
        gsub(/\//, "_per_", u)
        gsub(/[^A-Za-z0-9_]/, "_", u)
        sub(/_per_op$/, "_op", u)
        return u
    }
    /^Benchmark/ {
        if (n++) printf ",\n"
        printf "  {\"name\": \"%s\", \"iterations\": %s", $1, $2
        for (i = 3; i + 1 <= NF; i += 2) {
            printf ", \"%s\": %s", unitkey($(i + 1)), $i
        }
        printf ", \"host_cpus\": %d}", ncpu
    }
    BEGIN { printf "[\n" }
    END { printf "\n]\n" }
    ' "$1" > "$2"
    echo "wrote $2 ($(grep -c '"name"' "$2") benchmarks)"
}

echo "== sim kernel benchmarks =="
# The unanchored pattern picks up BenchmarkSimRunParallel too (the
# sharded kernel at workers 1/2/4), whose rows feed the benchgate
# speedup check on wide-enough hosts.
go test -run '^$' -bench 'BenchmarkSimRun' -benchmem \
    -benchtime 5x ./internal/sim | tee "$RAW"

echo "== engine sweep benchmark =="
go test -run '^$' -bench 'BenchmarkEngineSweep' -benchmem \
    -benchtime 3x . | tee -a "$RAW"

echo "== layer benchmarks =="
# Design time, the hybrid run-time step, tile mapping and the tail
# sketch, each on its own. Their rows in BENCH_baseline.json carry allocs/op only (no ns/op),
# so the gate holds their allocations whatever the host's width. The
# fixed 1000 iterations, at which those rows were recorded, amortize a
# warm-up scratch's growth below one allocation per op.
go test -run '^$' -bench '^(BenchmarkAnalyze|BenchmarkExecuteScratch)$' -benchmem \
    -benchtime 1000x ./internal/core | tee -a "$RAW"
go test -run '^$' -bench '^BenchmarkMapInto$' -benchmem \
    -benchtime 1000x ./internal/reconfig | tee -a "$RAW"
go test -run '^$' -bench '^BenchmarkSketchAdd$' -benchmem \
    -benchtime 1000x ./internal/stats | tee -a "$RAW"

echo "== multitask fabric benchmarks =="
# The unanchored pattern also matches BenchmarkMultitaskRunParallel
# (chunk-sharded partition admission at workers 1/4), whose row pairs
# feed the benchgate speedup check on wide-enough hosts.
go test -run '^$' -bench 'BenchmarkMultitaskRun' -benchmem \
    -benchtime 5x ./internal/sim | tee "$FABRIC_RAW"

to_json "$RAW" "$OUT"
to_json "$FABRIC_RAW" "$FABRIC"

BASELINE="${BENCH_BASELINE:-BENCH_baseline.json}"
if [ "${BENCH_GATE:-1}" != "0" ] && [ -f "$BASELINE" ]; then
    echo "== benchmark regression gate (sim) =="
    go run ./cmd/benchgate -current "$OUT" -baseline "$BASELINE"
fi
FABRIC_BASE="${FABRIC_BASELINE:-BENCH_fabric_baseline.json}"
if [ "${BENCH_GATE:-1}" != "0" ] && [ -f "$FABRIC_BASE" ]; then
    echo "== benchmark regression gate (fabric) =="
    go run ./cmd/benchgate -current "$FABRIC" -baseline "$FABRIC_BASE"
fi
