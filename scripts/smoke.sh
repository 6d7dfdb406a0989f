#!/bin/sh
# smoke.sh — end-to-end smoke test, four legs:
#
#   1. single node: boot drhwd on an ephemeral port, drive it with
#      drhwload for a few seconds, assert a 100% 2xx rate and non-zero
#      engine cache hits.
#   2. cluster: boot two fresh drhwd replicas and a drhwcoord over
#      them, POST the same sweep to the coordinator and to a fresh
#      single-node drhwd, and assert the merged cell set is identical
#      (sorted by cell index, byte-for-byte). The sweep uses one
#      approach line so every cell has a unique analysis fingerprint —
#      on cold engines that makes the per-cell cache counters, and so
#      the whole payload, deterministic. drhwload is also pointed at
#      both replicas via repeated -target flags.
#   3. observability: a drhwsim run with -trace-out must produce a
#      Chrome trace JSON that tracecheck validates with at least one
#      reconfiguration event carrying prefetch attribution, and a
#      traced -parallelism 2 run over two 32-iteration replications
#      must export one that tracecheck validates too; a replica's
#      /v1/simulate?trace=events stream must deliver load events and a
#      summary; and a coordinator sweep driven under a fixed W3C
#      traceparent must leave the same trace ID in the coordinator's
#      log and in the log of every replica that served a shard of it
#      (at least one must). A partition-mode multitask document
#      with "parallelism": 2 must come back with the "sharded"
#      execution marker and its worker count on the wire. Trace
#      artifacts land in SMOKE_ARTIFACT_DIR (default: the run's tmp
#      dir) for CI upload.
#   4. hot-add + peer fill: a third replica is hot-added through the
#      coordinator's POST /v1/replicas, then sweeps the already-warm
#      grid itself. Every analysis must arrive through the peer tier:
#      the cell set is byte-identical to a warm single node, the new
#      replica's compute tier stays at zero, and the pool-wide engine
#      miss total does not grow.
#
# CI runs this; `make loadtest` runs it locally.
set -eu

DURATION="${SMOKE_DURATION:-4s}"
RPS="${SMOKE_RPS:-25}"
PIDS=""
TMP="$(mktemp -d)"
trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done; rm -rf "$TMP"' EXIT

echo "smoke: building drhwd, drhwcoord, drhwload, drhwsim and tracecheck"
go build -o "$TMP/drhwd" ./cmd/drhwd
go build -o "$TMP/drhwcoord" ./cmd/drhwcoord
go build -o "$TMP/drhwload" ./cmd/drhwload
go build -o "$TMP/drhwsim" ./cmd/drhwsim
go build -o "$TMP/tracecheck" ./cmd/tracecheck

# wait_addr LOGFILE PID: echo the HOST:PORT the daemon logged.
wait_addr() {
    _addr=""
    for _ in $(seq 1 50); do
        _addr="$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$1" | head -n 1)"
        [ -n "$_addr" ] && break
        kill -0 "$2" 2>/dev/null || { echo "smoke: daemon died:" >&2; cat "$1" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$_addr" ] || { echo "smoke: daemon never bound:" >&2; cat "$1" >&2; exit 1; }
    echo "$_addr"
}

# ---- leg 1: single-node load test ----------------------------------

"$TMP/drhwd" -addr 127.0.0.1:0 2>"$TMP/drhwd.log" &
SERVER_PID=$!
PIDS="$PIDS $SERVER_PID"
ADDR="$(wait_addr "$TMP/drhwd.log" "$SERVER_PID")"
echo "smoke: drhwd up on $ADDR"

"$TMP/drhwload" -url "http://$ADDR" -duration "$DURATION" -rps "$RPS" \
    -require-2xx 1.0 -require-cache-hits

# Graceful drain on SIGTERM must exit cleanly.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "smoke: drhwd exited non-zero on SIGTERM"; cat "$TMP/drhwd.log"; exit 1; }
echo "smoke: clean drain"

# ---- leg 2: coordinator over two replicas --------------------------

cat > "$TMP/sweep.json" <<'EOF'
{
  "workload": {
    "name": "pipe",
    "platform": {"tiles": 4},
    "sim": {"approach": "hybrid", "iterations": 20, "seed": 1},
    "tasks": [{
      "name": "pipe",
      "scenarios": [{
        "subtasks": [
          {"name": "a", "exec_ms": 10},
          {"name": "b", "exec_ms": 12},
          {"name": "c", "exec_ms": 8}
        ],
        "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 2}]
      }]
    }]
  },
  "param": "tiles",
  "values": [2, 3, 4, 5, 6],
  "approaches": ["hybrid"]
}
EOF

# Fresh single node (cold engine) as the reference.
"$TMP/drhwd" -addr 127.0.0.1:0 2>"$TMP/single.log" &
SINGLE_PID=$!
PIDS="$PIDS $SINGLE_PID"
SINGLE="$(wait_addr "$TMP/single.log" "$SINGLE_PID")"

# Two fresh replicas plus the coordinator.
"$TMP/drhwd" -addr 127.0.0.1:0 2>"$TMP/r1.log" &
R1_PID=$!
PIDS="$PIDS $R1_PID"
R1="$(wait_addr "$TMP/r1.log" "$R1_PID")"

"$TMP/drhwd" -addr 127.0.0.1:0 2>"$TMP/r2.log" &
R2_PID=$!
PIDS="$PIDS $R2_PID"
R2="$(wait_addr "$TMP/r2.log" "$R2_PID")"

"$TMP/drhwcoord" -addr 127.0.0.1:0 -replica "http://$R1,http://$R2" \
    2>"$TMP/coord.log" &
COORD_PID=$!
PIDS="$PIDS $COORD_PID"
COORD="$(wait_addr "$TMP/coord.log" "$COORD_PID")"
echo "smoke: cluster up — coordinator $COORD over replicas $R1 $R2 (reference $SINGLE)"

curl -fsS -X POST --data-binary @"$TMP/sweep.json" "http://$SINGLE/v1/sweep" \
    > "$TMP/single.ndjson"
curl -fsS -X POST --data-binary @"$TMP/sweep.json" "http://$COORD/v1/sweep" \
    > "$TMP/coord.ndjson"

# Both streams must terminate with a done=true summary.
grep -q '"done":true' "$TMP/single.ndjson" || { echo "smoke: single-node sweep cut short"; exit 1; }
grep -q '"done":true' "$TMP/coord.ndjson" || { echo "smoke: coordinator sweep cut short"; cat "$TMP/coord.log"; exit 1; }

# Cell lines (everything but the summary), sorted by index. The index
# is the first field of every cell line, so a plain sort orders both
# streams identically — and byte-identical cells then diff clean.
grep -v '"done":true' "$TMP/single.ndjson" | sort > "$TMP/single.cells"
grep -v '"done":true' "$TMP/coord.ndjson" | sort > "$TMP/coord.cells"
[ "$(wc -l < "$TMP/single.cells")" -eq 5 ] || { echo "smoke: single node returned $(wc -l < "$TMP/single.cells") cells, want 5"; exit 1; }
if ! diff -u "$TMP/single.cells" "$TMP/coord.cells"; then
    echo "smoke: coordinator cell set differs from single node"
    exit 1
fi
echo "smoke: coordinator cell set identical to single node (5 cells)"

# The load generator round-robins across both replicas directly.
"$TMP/drhwload" -target "http://$R1" -target "http://$R2" \
    -duration "$DURATION" -rps "$RPS" -require-2xx 1.0 -require-cache-hits

# Coordinator healthz must see both replicas alive.
curl -fsS "http://$COORD/healthz" | grep -q '"status": "ok"' \
    || { echo "smoke: coordinator healthz not ok"; exit 1; }

# ---- leg 3: observability ------------------------------------------

ART="${SMOKE_ARTIFACT_DIR:-$TMP}"
mkdir -p "$ART"

# A traced simulation must export a valid Chrome trace with at least
# one reconfiguration event attributed as a prefetch hit.
"$TMP/drhwsim" -iterations 50 -trace-out "$ART/smoke_trace.json" > /dev/null
"$TMP/tracecheck" -min-loads 1 -require-prefetch "$ART/smoke_trace.json"
echo "smoke: drhwsim Chrome trace validates with prefetch attribution"

# Tracing works at every parallelism: 64 iterations on 2 workers are
# two replications whose events land on one timeline.
"$TMP/drhwsim" -parallelism 2 -iterations 64 -trace-out "$ART/smoke_trace_p2.json" > /dev/null
"$TMP/tracecheck" -min-loads 1 "$ART/smoke_trace_p2.json"
echo "smoke: drhwsim -parallelism 2 Chrome trace validates"

# The replica's event-trace stream: NDJSON events with load lines,
# terminated by a done=true summary.
cat > "$TMP/sim.json" <<'EOF2'
{
  "name": "pipe",
  "platform": {"tiles": 4},
  "sim": {"approach": "hybrid", "iterations": 20, "seed": 1},
  "tasks": [{
    "name": "pipe",
    "scenarios": [{
      "subtasks": [
        {"name": "a", "exec_ms": 10},
        {"name": "b", "exec_ms": 12},
        {"name": "c", "exec_ms": 8}
      ],
      "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 2}]
    }]
  }]
}
EOF2
curl -fsS -X POST --data-binary @"$TMP/sim.json" \
    "http://$R1/v1/simulate?trace=events" > "$ART/smoke_events.ndjson"
grep -q '"done":true' "$ART/smoke_events.ndjson" \
    || { echo "smoke: event trace stream cut short"; exit 1; }
grep -q '"kind":"load"' "$ART/smoke_events.ndjson" \
    || { echo "smoke: event trace stream has no load events"; exit 1; }
echo "smoke: /v1/simulate?trace=events streams load events + summary"

# A partition-mode multitask document that opts into sharded execution
# must report it on the wire: the replica runs the fabric event loop
# chunk-sharded across 2 workers and the response says so.
cat > "$TMP/parallel.json" <<'EOF3'
{
  "name": "duo",
  "platform": {"tiles": 16},
  "sim": {"approach": "run-time", "iterations": 40, "seed": 1,
          "inclusion_prob": 1, "parallelism": 2,
          "multitask": {"mode": "partition", "partitions": 2}},
  "tasks": [{
    "name": "left",
    "scenarios": [{
      "subtasks": [
        {"name": "a", "exec_ms": 10},
        {"name": "b", "exec_ms": 12},
        {"name": "c", "exec_ms": 8}
      ],
      "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 2}]
    }]
  }, {
    "name": "right",
    "scenarios": [{
      "subtasks": [
        {"name": "x", "exec_ms": 9},
        {"name": "y", "exec_ms": 11}
      ],
      "edges": [{"from": 0, "to": 1}]
    }]
  }]
}
EOF3
curl -fsS -X POST --data-binary @"$TMP/parallel.json" \
    "http://$R1/v1/simulate" > "$TMP/parallel.out"
grep -q '"execution": "sharded"' "$TMP/parallel.out" \
    || { echo "smoke: partition-mode parallel run did not report sharded execution"; cat "$TMP/parallel.out"; exit 1; }
grep -q '"workers": 2' "$TMP/parallel.out" \
    || { echo "smoke: sharded run did not report its worker count"; cat "$TMP/parallel.out"; exit 1; }
echo "smoke: partition multitask + parallelism 2 reports sharded execution"

# One traceparent must span the coordinator and every replica the
# sweep reaches: drive a sweep under a fixed trace ID and find it in
# the coordinator's log and in the log of each replica that served a
# shard of it. Ring placement hashes the replicas' ephemeral-port URLs,
# so which replicas own the cells changes from run to run; a replica
# served a shard when its count of sweep request lines rose. At least
# one must have.
TRACE_ID="4bf92f3577b34da6a3ce929d0e0e4736"
sweep_lines() { grep -c 'endpoint=sweep' "$TMP/$1.log" || true; }
R1_SWEEPS=$(sweep_lines r1)
R2_SWEEPS=$(sweep_lines r2)
curl -fsS -X POST -H "traceparent: 00-$TRACE_ID-00f067aa0ba902b7-01" \
    --data-binary @"$TMP/sweep.json" "http://$COORD/v1/sweep" > /dev/null
grep -q "$TRACE_ID" "$TMP/coord.log" \
    || { echo "smoke: trace ID missing from coord log"; cat "$TMP/coord.log"; exit 1; }
# A replica logs its request line once its handler returns, which may
# be just after the coordinator's response: give the lines 5 s to land.
REACHED=""
for _ in $(seq 50); do
    REACHED=""
    [ "$(sweep_lines r1)" -gt "$R1_SWEEPS" ] && REACHED="$REACHED r1"
    [ "$(sweep_lines r2)" -gt "$R2_SWEEPS" ] && REACHED="$REACHED r2"
    [ "$REACHED" = " r1 r2" ] && break
    sleep 0.1
done
[ -n "$REACHED" ] || { echo "smoke: the traced sweep reached no replica"; cat "$TMP/r1.log" "$TMP/r2.log"; exit 1; }
for log in $REACHED; do
    grep -q "$TRACE_ID" "$TMP/$log.log" \
        || { echo "smoke: trace ID missing from $log log"; cat "$TMP/$log.log"; exit 1; }
done
echo "smoke: one traceparent spans the coordinator and every replica it reached:$REACHED"

# ---- leg 4: hot-add + peer fill ------------------------------------

# Warm reference: the single node sweeps the same grid a second time,
# so every cell reports a cache hit — the exact payload a fully warm
# engine serves.
curl -fsS -X POST --data-binary @"$TMP/sweep.json" "http://$SINGLE/v1/sweep" \
    > "$TMP/single2.ndjson"
grep -q '"done":true' "$TMP/single2.ndjson" || { echo "smoke: warm single-node sweep cut short"; exit 1; }
grep -v '"done":true' "$TMP/single2.ndjson" | sort > "$TMP/single2.cells"

# Engine misses (= analyses computed) across the pool before the
# hot-add; they must not grow when the new replica fills from peers.
misses() {
    curl -fsS "http://$1/metrics" \
        | sed -n 's/^drhwd_engine_cache_misses_total \([0-9][0-9]*\)$/\1/p'
}
PRE_MISSES=$(( $(misses "$R1") + $(misses "$R2") ))

# Boot a third replica and hot-add it through the coordinator's admin
# endpoint; the 200 means the coordinator has already pushed the new
# peer set to all three members.
"$TMP/drhwd" -addr 127.0.0.1:0 2>"$TMP/r3.log" &
R3_PID=$!
PIDS="$PIDS $R3_PID"
R3="$(wait_addr "$TMP/r3.log" "$R3_PID")"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "{\"add\": [\"http://$R3\"]}" "http://$COORD/v1/replicas" > "$TMP/add.json"
grep -q "http://$R3" "$TMP/add.json" \
    || { echo "smoke: admin add did not echo the new replica"; cat "$TMP/add.json"; exit 1; }
curl -fsS "http://$COORD/healthz" | grep -q '"status": "ok"' \
    || { echo "smoke: coordinator healthz not ok after hot-add"; exit 1; }

# The cold replica sweeps the whole grid directly: every analysis it
# needs is cached on a warm peer, so the sweep must come back
# byte-identical to the warm single node — served entirely from the
# peer tier, computing nothing anywhere.
curl -fsS -X POST --data-binary @"$TMP/sweep.json" "http://$R3/v1/sweep" \
    > "$TMP/r3.ndjson"
grep -q '"done":true' "$TMP/r3.ndjson" || { echo "smoke: hot-added replica sweep cut short"; cat "$TMP/r3.log"; exit 1; }
grep -v '"done":true' "$TMP/r3.ndjson" | sort > "$TMP/r3.cells"
if ! diff -u "$TMP/single2.cells" "$TMP/r3.cells"; then
    echo "smoke: hot-added replica cell set differs from warm single node"
    exit 1
fi
curl -fsS "http://$R3/metrics" > "$TMP/r3.metrics"
grep 'drhwd_store_tier_hits_total{tier="peer"}' "$TMP/r3.metrics" | grep -qv ' 0$' \
    || { echo "smoke: hot-added replica recorded no peer-tier hits"; cat "$TMP/r3.metrics"; exit 1; }
grep -q 'drhwd_store_tier_hits_total{tier="compute"} 0$' "$TMP/r3.metrics" \
    || { echo "smoke: hot-added replica computed instead of peer-filling"; cat "$TMP/r3.metrics"; exit 1; }
POST_MISSES=$(( $(misses "$R1") + $(misses "$R2") + $(misses "$R3") ))
[ "$POST_MISSES" -eq "$PRE_MISSES" ] \
    || { echo "smoke: pool misses grew $PRE_MISSES -> $POST_MISSES across the hot-add"; exit 1; }
echo "smoke: hot-added replica served the sweep from the peer tier (cells identical, 0 new misses)"

kill -TERM "$COORD_PID"
wait "$COORD_PID" || { echo "smoke: drhwcoord exited non-zero on SIGTERM"; cat "$TMP/coord.log"; exit 1; }
echo "smoke: coordinator clean drain"
echo "smoke: OK"
