#!/bin/sh
# query_smoke.sh — end-to-end smoke of the stdcelltune-api/2 surface
# and the library-as-a-database query layer. Boots stcd on an ephemeral
# port, runs one real pipeline job through /v2, and proves the query
# contract:
#
#   1. the finished job's library lists under /v2/libraries and serves
#      its artifact index (netlist.v included) under /v2;
#   2. a cold table query (group instances by family) answers 200 with
#      X-Query-Cache: miss;
#   3. the identical query repeated answers X-Query-Cache: hit with a
#      byte-identical body, and a whitespace/key-order/operator-case
#      variant of the document also hits (normalization reaches the
#      cache key);
#   4. a substitute what-if answers with exactly one full STA analysis
#      (the baseline; the change itself is incremental) and a positive
#      area delta;
#   5. /metrics counts the one query-store build all of these queries
#      ran on (query_store_builds) and records its latency;
#   6. failing routes answer the api/2 error envelope with the right
#      code slug;
#   7. docs/API.md and the served route table agree (obscheck -apispec);
#   8. the daemon drains cleanly on SIGTERM.
#
# Usage: scripts/query_smoke.sh [workdir]  (defaults to a fresh mktemp dir)
set -eu

GO=${GO:-go}
DIR=${1:-$(mktemp -d /tmp/query-smoke.XXXXXX)}
mkdir -p "$DIR"
ADDRFILE="$DIR/addr"
LOG="$DIR/stcd.log"
SPEC='{"design":"mcu-small","instances":3,"seed":1,"method":"sigma-ceiling","bound":0.02,"clock_ns":6}'

say() { echo "query-smoke: $*"; }
die() { say "FAIL: $*"; [ -f "$LOG" ] && sed 's/^/query-smoke:   stcd: /' "$LOG" >&2; exit 1; }

$GO build -o "$DIR/stcd" ./cmd/stcd
$GO build -o "$DIR/obscheck" ./cmd/obscheck

# The spec/route-table cross-check needs no daemon; fail fast.
"$DIR/obscheck" -apispec docs/API.md || die "docs/API.md out of sync with served routes"

"$DIR/stcd" -addr 127.0.0.1:0 -addrfile "$ADDRFILE" -cachedir "$DIR/cache" >"$LOG" 2>&1 &
STCD_PID=$!
trap 'kill "$STCD_PID" 2>/dev/null || true' EXIT

i=0
while [ ! -s "$ADDRFILE" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && die "stcd did not write $ADDRFILE"
    kill -0 "$STCD_PID" 2>/dev/null || die "stcd exited early"
    sleep 0.1
done
BASE="http://$(cat "$ADDRFILE" | tr -d '[:space:]')"
say "stcd up at $BASE"

# One real pipeline job through the v2 surface.
ID=$(curl -fsS -X POST -d "$SPEC" "$BASE/v2/jobs" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$ID" ] || die "v2 job submission returned no id"
i=0
while :; do
    curl -fsS "$BASE/v2/jobs/$ID" >"$DIR/job.json"
    case $(sed -n 's/.*"status": "\([^"]*\)".*/\1/p' "$DIR/job.json") in
    done) break ;;
    failed | cancelled) die "job $ID did not succeed: $(cat "$DIR/job.json")" ;;
    esac
    i=$((i + 1))
    [ "$i" -gt 600 ] && die "job $ID did not finish"
    sleep 0.1
done
DIG=$(sed -n 's/.*"digest": "\([^"]*\)".*/\1/p' "$DIR/job.json" | head -1)
say "job $ID done, library $DIG"

# The library lists under /v2 and its artifact set carries the netlist.
curl -fsS "$BASE/v2/libraries" | grep -q "$DIG" || die "library $DIG not listed under /v2/libraries"
curl -fsS "$BASE/v2/libraries/$DIG" >"$DIR/index.json"
grep -q '"netlist.v"' "$DIR/index.json" || die "artifact index lacks netlist.v"

# q <name> <body>: POST a query, keep headers and body apart.
q() {
    curl -fsS -D "$DIR/$1.hdr" -o "$DIR/$1.json" -X POST -d "$2" "$BASE/v2/libraries/$DIG/query"
}
cache_of() { tr -d '\r' <"$DIR/$1.hdr" | sed -n 's/^X-Query-Cache: //p'; }

GROUPQ='{"schema":"stdcelltune-query/1","from":"instances","group_by":["family"],"aggregate":[{"op":"count"},{"op":"sum","col":"area_um2"}]}'
q cold "$GROUPQ" || die "cold query failed"
[ "$(cache_of cold)" = "miss" ] || die "cold query cache verdict '$(cache_of cold)', want miss"
grep -q '"stdcelltune-query-result/1"' "$DIR/cold.json" || die "cold query result lacks schema"

q warm "$GROUPQ" || die "warm query failed"
[ "$(cache_of warm)" = "hit" ] || die "warm query cache verdict '$(cache_of warm)', want hit"
cmp -s "$DIR/cold.json" "$DIR/warm.json" || die "warm query body differs from cold"

# Same document, different surface syntax: key order, whitespace and
# operator case all normalize away before the cache key.
VARIANT='{
  "aggregate": [ {"op":"COUNT"}, {"col":"area_um2","op":"Sum"} ],
  "group_by":  ["family"],
  "from": "instances",
  "schema": "stdcelltune-query/1"
}'
q variant "$VARIANT" || die "variant query failed"
[ "$(cache_of variant)" = "hit" ] || die "variant query cache verdict '$(cache_of variant)', want hit"
cmp -s "$DIR/cold.json" "$DIR/variant.json" || die "normalized variant served different bytes"
say "table query ok: miss -> hit, byte-identical, normalization reaches the cache key"

# What-if substitution: answered by incremental reanalysis — the
# baseline is the only full analysis; upsizing OR2_1 -> OR2_2 must cost
# area.
q whatif '{"schema":"stdcelltune-query/1","what_if":{"op":"substitute","from":"OR2_1","to":"OR2_2"}}' || die "what-if failed"
[ "$(cache_of whatif)" = "miss" ] || die "what-if cache verdict '$(cache_of whatif)', want miss"
grep -q '"full_analyses": 1' "$DIR/whatif.json" || die "what-if did not report exactly one full analysis: $(cat "$DIR/whatif.json")"
AREA_DELTA=$(tr -d ' \n' <"$DIR/whatif.json" | sed -n 's/.*"delta":{"area_um2":\(-\{0,1\}[0-9.]*\).*/\1/p')
case $AREA_DELTA in
'' | -*) die "substitute OR2_1->OR2_2 area delta '$AREA_DELTA', want positive" ;;
esac
say "what-if ok: full_analyses=1, area delta +$AREA_DELTA um2"

# Every query above ran on one query store, built by the cold query:
# /metrics counts that one build and records its latency.
curl -fsS "$BASE/metrics" >"$DIR/metrics.prom"
grep -qx 'query_store_builds 1' "$DIR/metrics.prom" || die "/metrics lacks query_store_builds 1: $(grep query_store "$DIR/metrics.prom")"
grep -qx 'query_store_build_count 1' "$DIR/metrics.prom" || die "/metrics lacks one query_store_build latency: $(grep query_store "$DIR/metrics.prom")"
say "store metrics ok: one build counted and timed"

# The api/2 error envelope, spot-checked on each failure class.
BADLIB=$(curl -sS -o /dev/null -w '%{http_code}' -X POST -d "$GROUPQ" "$BASE/v2/libraries/sha256:nope/query")
[ "$BADLIB" = "404" ] || die "query on absent library answered $BADLIB, want 404"
curl -sS -X POST -d "$GROUPQ" "$BASE/v2/libraries/sha256:nope/query" | grep -q '"code": "not_found"' || die "absent-library error lacks not_found code"
curl -sS -X POST -d '{"schema":"stdcelltune-query/1","from":"nonsense"}' "$BASE/v2/libraries/$DIG/query" | grep -q '"code": "bad_query"' || die "bad query lacks bad_query code"
curl -sS "$BASE/v2/jobs/nope" | grep -q '"request_id"' || die "v2 404 envelope lacks request_id"
say "error envelope ok"

# Graceful drain: SIGTERM must end the process cleanly (exit 0).
kill -TERM "$STCD_PID"
i=0
while kill -0 "$STCD_PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && die "stcd did not exit after SIGTERM"
    sleep 0.1
done
trap - EXIT
wait "$STCD_PID" 2>/dev/null && :
RC=$?
[ "$RC" -eq 0 ] || die "stcd exited $RC after SIGTERM"

say "OK (workdir $DIR)"
