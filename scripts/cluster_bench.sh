#!/bin/sh
# cluster_bench.sh — the scaling curve behind BENCH_PR9.json. Runs the
# same N-instance characterize four ways on localhost — single-node,
# then a coordinator with 1, 2 and 4 workers — and records the
# "characterize" span duration from each job's trace.
#
# The container CI runs on has one CPU, so raw compute cannot speed up
# by adding local workers: sample-row generation and the row JSON stay
# serialized on the one core whichever process runs them. The
# benchmark therefore models the regime cluster mode exists for:
# characterization dominated by per-instance external-simulator
# latency, injected with -simcharlatency, a sleep per generated row in
# the one row generator (single node and workers alike, each at its
# pool width). Sleeps overlap across worker processes the same way
# remote SPICE calls overlap across real machines, so the curve
# measures exactly what the sharding tier buys — overlap of
# characterizer waits plus coordinator overhead — and is honest about
# what it does not measure (CPU-bound scaling needs more cores). The
# default 400ms/instance is sized so the wait dominates that serialized
# CPU work; on a multi-core host far smaller latencies show the same
# curve.
#
# Writes a stdcelltune-bench/1 JSON (default BENCH_PR9.json) and fails
# unless the 2-worker run beats single-node by at least MIN_SPEEDUP.
#
# Usage: scripts/cluster_bench.sh [workdir]
#   OUT=BENCH_PR9.json N=200 SIMLAT=400ms SHARDSIZE=50 MIN_SPEEDUP=1.8
set -eu

GO=${GO:-go}
DIR=${1:-$(mktemp -d /tmp/cluster-bench.XXXXXX)}
OUT=${OUT:-BENCH_PR9.json}
N=${N:-200}
SIMLAT=${SIMLAT:-400ms}
SHARDSIZE=${SHARDSIZE:-50}
MIN_SPEEDUP=${MIN_SPEEDUP:-1.8}
mkdir -p "$DIR"
SPEC="{\"design\":\"mcu-small\",\"instances\":$N,\"seed\":11,\"method\":\"sigma-ceiling\",\"bound\":0.02,\"clock_ns\":6}"

# Progress goes to stderr: run_case's stdout is captured for the
# measured duration, and a die inside a $(...) must still be seen.
say() { echo "cluster-bench: $*" >&2; }
die() { say "FAIL: $*"; exit 1; }

$GO build -o "$DIR/stcd" ./cmd/stcd
$GO build -o "$DIR/tracedur" ./cmd/tracedur

ALL_PIDS=""
trap 'for p in $ALL_PIDS; do kill "$p" 2>/dev/null || true; done' EXIT

# run_case <tag> <workers>: fresh daemon (and worker fleet when
# workers > 0), one cold job, echo the characterize span duration (ns).
run_case() {
    tag=$1
    nw=$2
    sub="$DIR/$tag"
    mkdir -p "$sub"
    pids=""
    if [ "$nw" -gt 0 ]; then
        # Workers renew their leases while they compute, so the TTL
        # need not cover a shard's simulated latency (SHARDSIZE x
        # SIMLAT); the long TTL only keeps a stalled renewal from
        # costing a steal mid-measurement.
        "$DIR/stcd" -addr 127.0.0.1:0 -addrfile "$sub/addr" -cachedir "$sub/cache" \
            -cluster -shardsize "$SHARDSIZE" -leasetimeout 2m -simcharlatency "$SIMLAT" >"$sub/stcd.log" 2>&1 &
    else
        "$DIR/stcd" -addr 127.0.0.1:0 -addrfile "$sub/addr" -cachedir "$sub/cache" \
            -simcharlatency "$SIMLAT" >"$sub/stcd.log" 2>&1 &
    fi
    pids="$!"
    ALL_PIDS="$ALL_PIDS $!"
    i=0
    while [ ! -s "$sub/addr" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && die "$tag: stcd did not write its address"
        sleep 0.1
    done
    base="http://$(tr -d '[:space:]' <"$sub/addr")"
    k=0
    while [ "$k" -lt "$nw" ]; do
        k=$((k + 1))
        "$DIR/stcd" -worker -join "$base" -name "$tag-w$k" -simcharlatency "$SIMLAT" \
            >"$sub/w$k.log" 2>&1 &
        pids="$pids $!"
        ALL_PIDS="$ALL_PIDS $!"
    done
    if [ "$nw" -gt 0 ]; then
        i=0
        while :; do
            w=$(curl -fsS "$base/v1/cluster" 2>/dev/null | sed -n 's/.*"workers": \([0-9]*\).*/\1/p') || w=
            [ "${w:-0}" -ge "$nw" ] && break
            i=$((i + 1))
            [ "$i" -gt 100 ] && die "$tag: workers did not register"
            sleep 0.1
        done
    fi
    id=$(curl -fsS -X POST -d "$SPEC" "$base/v1/jobs" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
    [ -n "$id" ] || die "$tag: no job id"
    i=0
    while :; do
        st=$(curl -fsS "$base/v1/jobs/$id" 2>/dev/null | sed -n 's/.*"status": "\([^"]*\)".*/\1/p') || st=
        [ "$st" = done ] && break
        case $st in failed | cancelled) die "$tag: job $st ($(tail -2 "$sub/stcd.log"))" ;; esac
        i=$((i + 1))
        [ "$i" -gt 3000 ] && die "$tag: job did not finish"
        sleep 0.1
    done
    curl -fsS "$base/v1/jobs/$id/trace" >"$sub/trace.json"
    dur=$("$DIR/tracedur" -trace "$sub/trace.json" -span characterize)
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    echo "$dur"
}

say "N=$N instances, $SIMLAT/instance simulated characterizer latency, shardsize $SHARDSIZE"
BASE_NS=$(run_case single 0)
say "single-node:     $BASE_NS ns"
W1_NS=$(run_case w1 1)
say "cluster 1w:      $W1_NS ns"
W2_NS=$(run_case w2 2)
say "cluster 2w:      $W2_NS ns"
W4_NS=$(run_case w4 4)
say "cluster 4w:      $W4_NS ns"

sp() { awk "BEGIN{printf \"%.2f\", $1 / $2}"; }
SP1=$(sp "$BASE_NS" "$W1_NS")
SP2=$(sp "$BASE_NS" "$W2_NS")
SP4=$(sp "$BASE_NS" "$W4_NS")
say "speedup vs single-node: 1w=${SP1}x 2w=${SP2}x 4w=${SP4}x"

cat >"$OUT" <<EOF
{
  "schema": "stdcelltune-bench/1",
  "note": "Sharded cluster characterization scaling: one mcu-small characterize of N=$N Monte-Carlo instances with $SIMLAT/instance simulated external-characterizer latency (-simcharlatency), shard size $SHARDSIZE, coordinator and workers all on localhost. The CI container has a single CPU, so the benchmark is deliberately latency-bound: -simcharlatency stands in for the per-instance external simulator wait that dominates real characterization, and worker processes overlap those waits exactly as remote machines would, while the per-run row-generation CPU and the per-shard row JSON stay serialized on the one core whichever process runs them (that serialized floor, not the scheduler, is what keeps the curve below ideal). Durations are the 'characterize' span from GET /v1/jobs/{id}/trace. CPU-bound scaling is not measured here and needs a multi-core host.",
  "benchmarks": {
    "ClusterCharacterizeN${N}W1": {
      "ns_per_op": $W1_NS,
      "bytes_per_op": 0,
      "allocs_per_op": 0,
      "baseline_ns_per_op": $BASE_NS,
      "speedup": $SP1
    },
    "ClusterCharacterizeN${N}W2": {
      "ns_per_op": $W2_NS,
      "bytes_per_op": 0,
      "allocs_per_op": 0,
      "baseline_ns_per_op": $BASE_NS,
      "speedup": $SP2
    },
    "ClusterCharacterizeN${N}W4": {
      "ns_per_op": $W4_NS,
      "bytes_per_op": 0,
      "allocs_per_op": 0,
      "baseline_ns_per_op": $BASE_NS,
      "speedup": $SP4
    }
  },
  "phases": [
    {"name": "characterize_single_node", "count": 1, "wall_ns": $BASE_NS, "allocs": 0, "bytes": 0},
    {"name": "characterize_cluster_1w", "count": 1, "wall_ns": $W1_NS, "allocs": 0, "bytes": 0},
    {"name": "characterize_cluster_2w", "count": 1, "wall_ns": $W2_NS, "allocs": 0, "bytes": 0},
    {"name": "characterize_cluster_4w", "count": 1, "wall_ns": $W4_NS, "allocs": 0, "bytes": 0}
  ]
}
EOF
say "wrote $OUT"

awk "BEGIN{exit !($SP2 >= $MIN_SPEEDUP)}" ||
    die "2-worker speedup ${SP2}x below required ${MIN_SPEEDUP}x"
say "OK: 2-worker speedup ${SP2}x >= ${MIN_SPEEDUP}x"
