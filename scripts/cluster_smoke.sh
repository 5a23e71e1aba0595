#!/bin/sh
# cluster_smoke.sh — end-to-end smoke of sharded cluster
# characterization, the assertion half being cmd/obscheck. Four phases
# against real stcd processes on ephemeral ports:
#
#   1. reference: a coordinator (-cluster) plus two workers run a
#      32-instance characterize; the job completes as a cache miss, the
#      shard stats balance (enqueued == completed, queue drained), the
#      retained shard set validates (obscheck -shard: fixed assembly
#      order, exact tiling of [0, N), Hi-Lo rows of one width per
#      shard), and the artifact hashes are recorded as the reference;
#   2. chaos: a fresh coordinator with one worker; the worker is
#      SIGKILLed mid-shard, a second worker joins, and the job must
#      still complete with artifact hashes identical to phase 1 —
#      work stealing made the crash invisible to the result. Recovery
#      is asserted in the metrics: lease_expiries >= 1 and steals >= 1
#      on /v1/cluster and the shard_* series on /metrics;
#   3. peer tier: a third node with -peers pointing at the phase-2
#      coordinator resolves the same spec as cache_outcome "peer" with
#      identical hashes — no recomputation, SHA-256-verified fill;
#   4. single node: a plain stcd (no -cluster, no -peers) computes the
#      spec itself, a cache miss, with hashes identical to phase 1 —
#      one digest names one byte string, whoever computed it.
#
# The second worker of phase 2 joins only after the kill so the lease
# holder's identity is deterministic: the victim provably dies holding
# a lease, and the survivor's first lease of that task is a steal.
#
# Usage: scripts/cluster_smoke.sh [workdir]  (defaults to a mktemp dir)
set -eu

GO=${GO:-go}
DIR=${1:-$(mktemp -d /tmp/cluster-smoke.XXXXXX)}
mkdir -p "$DIR"
SPEC='{"design":"mcu-small","instances":32,"seed":7,"method":"sigma-ceiling","bound":0.02,"clock_ns":6}'
SHARDSIZE=4
LEASE=2s

say() { echo "cluster-smoke: $*"; }
die() {
    say "FAIL: $*"
    for f in "$DIR"/*.log; do
        [ -f "$f" ] && tail -5 "$f" | sed "s|^|cluster-smoke:   $(basename "$f"): |" >&2
    done
    exit 1
}

$GO build -o "$DIR/stcd" ./cmd/stcd
$GO build -o "$DIR/obscheck" ./cmd/obscheck

PIDS=""
trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done' EXIT

# start_node <tag> <extra flags...>: boot an stcd, wait for its bound
# address, and set $BASE. Every node gets its own cachedir.
start_node() {
    tag=$1
    shift
    "$DIR/stcd" -addr 127.0.0.1:0 -addrfile "$DIR/$tag.addr" -cachedir "$DIR/$tag.cache" \
        -log debug "$@" >"$DIR/$tag.log" 2>&1 &
    pid=$!
    PIDS="$PIDS $pid"
    i=0
    while [ ! -s "$DIR/$tag.addr" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && die "$tag did not write its address"
        kill -0 "$pid" 2>/dev/null || die "$tag exited early"
        sleep 0.1
    done
    BASE="http://$(tr -d '[:space:]' <"$DIR/$tag.addr")"
    eval "${tag}_PID=$pid"
    eval "${tag}_BASE=\$BASE"
    say "$tag up at $BASE (pid $pid)"
}

# start_worker <tag> <coordinator base> <per-instance latency>
start_worker() {
    "$DIR/stcd" -worker -join "$2" -name "$1" -simcharlatency "$3" >"$DIR/$1.log" 2>&1 &
    pid=$!
    PIDS="$PIDS $pid"
    eval "${1}_PID=$pid"
    say "worker $1 joined $2 (pid $pid)"
}

# stat <base> <json key>: one integer field from GET /v1/cluster.
stat() { curl -fsS "$1/v1/cluster" | sed -n "s/.*\"$2\": \([0-9-]*\).*/\1/p"; }

# wait_stat <base> <key> <min> <what>
wait_stat() {
    i=0
    while :; do
        v=$(stat "$1" "$2")
        [ -n "$v" ] && [ "$v" -ge "$3" ] && break
        i=$((i + 1))
        [ "$i" -gt 300 ] && die "$4 ($2=$v, want >= $3)"
        sleep 0.1
    done
}

# submit <base>: POST the spec, echo the job id.
submit() {
    id=$(curl -fsS -X POST -d "$SPEC" "$1/v1/jobs" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
    [ -n "$id" ] || die "job submission to $1 returned no id"
    echo "$id"
}

# await <base> <id> <outfile>: poll until terminal, keep the final doc.
await() {
    i=0
    while :; do
        curl -fsS "$1/v1/jobs/$2" >"$3"
        case $(sed -n 's/.*"status": "\([^"]*\)".*/\1/p' "$3") in
        done) return 0 ;;
        failed | cancelled) die "job $2 did not succeed: $(cat "$3")" ;;
        esac
        i=$((i + 1))
        [ "$i" -gt 600 ] && die "job $2 did not finish"
        sleep 0.1
    done
}

outcome() { sed -n 's/.*"cache_outcome": "\([^"]*\)".*/\1/p' "$1"; }
digest() { sed -n 's/.*"digest": "\([^"]*\)".*/\1/p' "$1" | head -1; }
# hashes <base> <digest>: sorted name:sha256 lines of the artifact set.
hashes() {
    curl -fsS "$1/v1/artifacts/$2" | tr -d ' \n' |
        grep -o '"name":"[^"]*","sha256":"[0-9a-f]*"' | sort
}

# --- Phase 1: reference fleet run -------------------------------------
say "phase 1: coordinator + 2 workers, reference run"
start_node n1 -cluster -shardsize "$SHARDSIZE" -leasetimeout "$LEASE"
start_worker w11 "$n1_BASE" 10ms
start_worker w12 "$n1_BASE" 10ms
wait_stat "$n1_BASE" workers 2 "workers did not register"

JOB1=$(submit "$n1_BASE")
await "$n1_BASE" "$JOB1" "$DIR/job1.json"
[ "$(outcome "$DIR/job1.json")" = "miss" ] || die "phase-1 outcome $(outcome "$DIR/job1.json"), want miss"
DIG=$(digest "$DIR/job1.json")
hashes "$n1_BASE" "$DIG" >"$DIR/ref.hashes"
[ -s "$DIR/ref.hashes" ] || die "no reference artifact hashes"
say "phase 1: job $JOB1 done, digest $DIG, $(wc -l <"$DIR/ref.hashes") artifacts"

ENQ=$(stat "$n1_BASE" tasks_enqueued)
DONE=$(stat "$n1_BASE" tasks_completed)
DEPTH=$(stat "$n1_BASE" queue_depth)
{ [ "$ENQ" -gt 0 ] && [ "$ENQ" = "$DONE" ] && [ "$DEPTH" = 0 ]; } ||
    die "phase-1 queue did not balance (enqueued=$ENQ completed=$DONE depth=$DEPTH)"

curl -fsS "$n1_BASE/v1/cluster/shards/$DIG" >"$DIR/shards1.json" || die "no retained shard set"
"$DIR/obscheck" -shard "$DIR/shards1.json" -apijob "$DIR/job1.json" || die "phase-1 documents invalid"
curl -fsS "$n1_BASE/healthz" | grep '"cluster"' >/dev/null || die "healthz has no cluster section"

kill "$w11_PID" "$w12_PID" "$n1_PID" 2>/dev/null || true

# --- Phase 2: SIGKILL a worker mid-shard ------------------------------
say "phase 2: kill a worker mid-characterize, prove stealing recovers it"
start_node n2 -cluster -shardsize "$SHARDSIZE" -leasetimeout "$LEASE"
start_worker w21 "$n2_BASE" 100ms # 400ms per shard: a wide kill window
wait_stat "$n2_BASE" workers 1 "victim worker did not register"

JOB2=$(submit "$n2_BASE")
wait_stat "$n2_BASE" leased 1 "victim never leased a shard"
kill -9 "$w21_PID"
say "phase 2: SIGKILLed w21 holding a lease"
start_worker w22 "$n2_BASE" 10ms

await "$n2_BASE" "$JOB2" "$DIR/job2.json"
[ "$(digest "$DIR/job2.json")" = "$DIG" ] || die "phase-2 digest $(digest "$DIR/job2.json") != $DIG"
hashes "$n2_BASE" "$DIG" >"$DIR/chaos.hashes"
cmp -s "$DIR/ref.hashes" "$DIR/chaos.hashes" ||
    die "artifact hashes diverged after worker kill: $(diff "$DIR/ref.hashes" "$DIR/chaos.hashes" || true)"

EXP=$(stat "$n2_BASE" lease_expiries)
STEALS=$(stat "$n2_BASE" steals)
[ "$EXP" -ge 1 ] || die "no lease expiry recorded after SIGKILL (lease_expiries=$EXP)"
[ "$STEALS" -ge 1 ] || die "no steal recorded after SIGKILL (steals=$STEALS)"
say "phase 2: recovered (lease_expiries=$EXP steals=$STEALS), hashes identical"

curl -fsS "$n2_BASE/v1/cluster/shards/$DIG" >"$DIR/shards2.json" || die "no retained shard set after chaos"
"$DIR/obscheck" -shard "$DIR/shards2.json" -apijob "$DIR/job2.json" || die "phase-2 documents invalid"
curl -fsS "$n2_BASE/metrics" >"$DIR/metrics2.prom"
grep -q '^shard_lease_expiries' "$DIR/metrics2.prom" || die "no shard_lease_expiries series on /metrics"
grep -q '^shard_steals' "$DIR/metrics2.prom" || die "no shard_steals series on /metrics"

# --- Phase 3: peer cache tier -----------------------------------------
say "phase 3: fresh node fills from the phase-2 peer"
start_node n3 -peers "$n2_BASE"
JOB3=$(submit "$n3_BASE")
await "$n3_BASE" "$JOB3" "$DIR/job3.json"
[ "$(outcome "$DIR/job3.json")" = "peer" ] || die "phase-3 outcome $(outcome "$DIR/job3.json"), want peer"
[ "$(digest "$DIR/job3.json")" = "$DIG" ] || die "phase-3 digest diverged"
hashes "$n3_BASE" "$DIG" >"$DIR/peer.hashes"
cmp -s "$DIR/ref.hashes" "$DIR/peer.hashes" || die "peer-filled artifact hashes diverged"
"$DIR/obscheck" -apijob "$DIR/job3.json" || die "phase-3 job document invalid"
curl -fsS "$n3_BASE/metrics" | grep '^cache_peer_hits' >/dev/null || die "no cache_peer_hits series on /metrics"
say "phase 3: peer fill verified, hashes identical"

# --- Phase 4: plain single node ---------------------------------------
say "phase 4: plain stcd computes the spec alone"
start_node n4
JOB4=$(submit "$n4_BASE")
await "$n4_BASE" "$JOB4" "$DIR/job4.json"
[ "$(outcome "$DIR/job4.json")" = "miss" ] || die "phase-4 outcome $(outcome "$DIR/job4.json"), want miss"
[ "$(digest "$DIR/job4.json")" = "$DIG" ] || die "phase-4 digest diverged"
hashes "$n4_BASE" "$DIG" >"$DIR/single.hashes"
cmp -s "$DIR/ref.hashes" "$DIR/single.hashes" ||
    die "single-node artifact hashes differ from the cluster's: $(diff "$DIR/ref.hashes" "$DIR/single.hashes" || true)"
say "phase 4: single-node hashes identical to the cluster's"

say "OK (workdir $DIR)"
