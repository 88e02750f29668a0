#!/usr/bin/env bash
# End-to-end gate for the fault-tolerant cluster tier: boot a 2-shard,
# 2-replica-per-shard cluster as real processes (4 shard servers + 1
# router), then walk the failure ladder the tier promises to survive:
#
#   1. healthy:       20-query diff — router results byte-identical to the
#                     single-index engine on the same corpus and workload
#   2. replica kill:  SIGKILL one replica mid-workload — zero failed
#                     queries, results still byte-identical, never partial
#   3. WAL catch-up:  mutate through the router while the replica is dead,
#                     restart it on its data-dir, require the router to
#                     ship the missed WAL and report it converged, then
#                     kill its donor and serve byte-identically from it
#   4. shard dark:    SIGKILL the last replica of a shard — searches
#                     degrade to exact partial answers (X-Atsq-Partial),
#                     and require_complete fails closed with 503
#
# Run from the repository root:  ./ci/e2e_cluster.sh [workdir]
set -euo pipefail

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
ROUTER_ADDR="127.0.0.1:19080"
BASE="http://$ROUTER_ADDR"
# Shard 0 replicas A/B, shard 1 replicas A/B.
P0A=19001; P0B=19002; P1A=19003; P1B=19004
URLS="http://127.0.0.1:$P0A,http://127.0.0.1:$P0B;http://127.0.0.1:$P1A,http://127.0.0.1:$P1B"

PIDS=()
cleanup() {
    for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null || true; done
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/bin/" ./cmd/atsqgen ./cmd/atsqsearch ./cmd/atsqserve

echo "== generate corpus + plan topology (2 shards x 2 replicas)"
"$WORK/bin/atsqgen" -preset la -scale 0.03 -seed 12 -out "$WORK/corpus.atrj"
"$WORK/bin/atsqserve" -plan-topology "$WORK/topo.json" -data "$WORK/corpus.atrj" \
    -shard-urls "$URLS" >>"$WORK/plan.log" 2>&1
grep -q '"shards"' "$WORK/topo.json" || { echo "bad topology file" >&2; exit 1; }

# boot_node prints the replica's PID. It runs in a command substitution, a
# subshell whose variables die with it, so the CALLER appends to PIDS.
boot_node() { # boot_node <shard> <port> <dir-suffix> <logname>
    "$WORK/bin/atsqserve" -shard "$1" -topology "$WORK/topo.json" \
        -data "$WORK/corpus.atrj" -data-dir "$WORK/wal-$3" -sync always \
        -addr "127.0.0.1:$2" >"$WORK/$4.log" 2>&1 &
    echo $!
}

wait_healthy() { # wait_healthy <url> <what>
    for _ in $(seq 1 120); do
        if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.25
    done
    echo "$2 never became healthy" >&2
    exit 1
}

echo "== boot 4 shard replicas + router"
N0A=$(boot_node 0 "$P0A" 0a node0a)
N0B=$(boot_node 0 "$P0B" 0b node0b)
N1A=$(boot_node 1 "$P1A" 1a node1a)
N1B=$(boot_node 1 "$P1B" 1b node1b)
PIDS+=("$N0A" "$N0B" "$N1A" "$N1B")
for p in $P0A $P0B $P1A $P1B; do wait_healthy "http://127.0.0.1:$p" "replica :$p"; done
"$WORK/bin/atsqserve" -router -topology "$WORK/topo.json" -data "$WORK/corpus.atrj" \
    -addr "$ROUTER_ADDR" -probe-interval 500ms -catchup-interval 500ms \
    >"$WORK/router.log" 2>&1 &
ROUTER=$!
PIDS+=("$ROUTER")
wait_healthy "$BASE" "router"

echo "== differential: single-index engine vs cluster router (20 queries)"
"$WORK/bin/atsqsearch" -data "$WORK/corpus.atrj" -engine gat \
    -random 20 -seed 42 -k 9 -json >"$WORK/single.json" 2>/dev/null
"$WORK/bin/atsqsearch" -data "$WORK/corpus.atrj" -server "$BASE" \
    -random 20 -seed 42 -k 9 -json >"$WORK/cluster.json" 2>/dev/null
[ -s "$WORK/single.json" ] && [ -s "$WORK/cluster.json" ] || {
    echo "empty result files" >&2; exit 1; }
diff -u "$WORK/single.json" "$WORK/cluster.json" || {
    echo "FAIL: cluster results differ from single-index engine" >&2; exit 1; }
echo "   $(wc -l <"$WORK/single.json") queries byte-identical"

echo "== subtrajectory differential: single-index vs cluster router (10 queries)"
# The router re-derives winning spans from the wire matches its shard
# replicas return; results, matches and spans must all survive the network
# round-trip byte-for-byte.
"$WORK/bin/atsqsearch" -data "$WORK/corpus.atrj" -engine gat \
    -random 10 -seed 77 -k 7 -subtrajectory -max-span 12 -json \
    >"$WORK/single_sub.json" 2>/dev/null
"$WORK/bin/atsqsearch" -data "$WORK/corpus.atrj" -server "$BASE" \
    -random 10 -seed 77 -k 7 -subtrajectory -max-span 12 -json \
    >"$WORK/cluster_sub.json" 2>/dev/null
[ -s "$WORK/single_sub.json" ] && [ -s "$WORK/cluster_sub.json" ] || {
    echo "empty subtrajectory result files" >&2; exit 1; }
grep -q '"span"' "$WORK/single_sub.json" || {
    echo "subtrajectory output carries no spans" >&2; exit 1; }
diff -u "$WORK/single_sub.json" "$WORK/cluster_sub.json" || {
    echo "FAIL: cluster subtrajectory results differ from single-index engine" >&2
    exit 1; }
echo "   $(wc -l <"$WORK/single_sub.json") subtrajectory queries byte-identical (spans included)"

echo "== SIGKILL replica 0B mid-workload: zero failed queries"
: >"$WORK/fails"
(
    while [ ! -f "$WORK/stop" ]; do
        curl -fsS -X POST "$BASE/v1/search" \
            -d '{"k":5,"points":[{"x":3,"y":4,"acts":[1]}]}' >/dev/null 2>&1 \
            || echo fail >>"$WORK/fails"
    done
) &
LOAD=$!
sleep 1
kill -9 "$N0B"
sleep 2
touch "$WORK/stop"
wait "$LOAD"
if [ -s "$WORK/fails" ]; then
    echo "FAIL: $(wc -l <"$WORK/fails") queries failed during replica kill" >&2
    exit 1
fi
"$WORK/bin/atsqsearch" -data "$WORK/corpus.atrj" -server "$BASE" \
    -random 20 -seed 42 -k 9 -json >"$WORK/failover.json" 2>/dev/null
diff -u "$WORK/single.json" "$WORK/failover.json" || {
    echo "FAIL: results diverged after replica kill" >&2; exit 1; }
echo "   failover byte-identical, zero failed queries"

echo "== mutate while replica 0B is dead"
IDS=()
for xy in "1 1" "2 9" "5 5" "8 2" "9 9" "4 7"; do
    set -- $xy
    INS=$(curl -fsS -X POST "$BASE/v1/insert" \
        -d "{\"points\":[{\"x\":$1,\"y\":$2,\"acts\":[1,2]},{\"x\":$1.1,\"y\":$2.1,\"acts\":[3]}]}")
    ID=$(echo "$INS" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
    [ -n "$ID" ] || { echo "insert failed: $INS" >&2; exit 1; }
    IDS+=("$ID")
done
HIT=$(curl -fsS -X POST "$BASE/v1/search" \
    -d '{"k":1,"points":[{"x":5,"y":5,"acts":[1,2]}]}')
echo "$HIT" | grep -q '"dist":0' || {
    echo "inserted trajectory not served at distance 0: $HIT" >&2; exit 1; }
curl -fsS -X POST "$BASE/v1/delete" -d "{\"id\":${IDS[0]}}" | grep -q '"deleted":true' || {
    echo "delete failed" >&2; exit 1; }
echo "   ${#IDS[@]} inserts + 1 delete applied while 0B is down"

echo "== restart replica 0B: WAL catch-up must converge it"
N0B=$(boot_node 0 "$P0B" 0b node0b-restart)
PIDS+=("$N0B")
wait_healthy "http://127.0.0.1:$P0B" "restarted replica 0B"
CONVERGED=
for _ in $(seq 1 60); do
    STATS=$(curl -fsS "$BASE/v1/stats" || true)
    # Converged when no replica is lagging and shard 0's replicas agree on
    # the mutation sequence number.
    if ! echo "$STATS" | grep -q '"lagging":true'; then
        SEQS=$(echo "$STATS" | tr '{' '\n' | grep ":$P0A\|:$P0B" | \
            sed -n 's/.*"last_seq":\([0-9]*\).*/\1/p' | sort -u | wc -l)
        if [ "$SEQS" = "1" ]; then CONVERGED=1; break; fi
    fi
    sleep 0.5
done
[ -n "$CONVERGED" ] || {
    echo "FAIL: replica 0B never converged; stats: $(curl -fsS "$BASE/v1/stats")" >&2
    exit 1; }
# Post-mutation reference captured while 0A (the donor) still serves...
"$WORK/bin/atsqsearch" -data "$WORK/corpus.atrj" -server "$BASE" \
    -random 20 -seed 7 -k 9 -json >"$WORK/postmut.json" 2>/dev/null
# ...then kill the donor: shard 0 is now served solely by the caught-up
# replica, so identical answers prove the shipped WAL carried everything.
kill -9 "$N0A"
sleep 1
"$WORK/bin/atsqsearch" -data "$WORK/corpus.atrj" -server "$BASE" \
    -random 20 -seed 7 -k 9 -json >"$WORK/caughtup.json" 2>/dev/null
diff -u "$WORK/postmut.json" "$WORK/caughtup.json" || {
    echo "FAIL: caught-up replica serves different results than its donor" >&2
    exit 1; }
echo "   0B caught up via shipped WAL and serves byte-identically"

echo "== SIGKILL replica 0B too: shard 0 dark, searches degrade to partial"
kill -9 "$N0B"
sleep 1
PARTIAL=
for xy in "1 1" "2 9" "5 5" "8 2" "9 9"; do
    set -- $xy
    HDRS=$(curl -fsS -D - -o "$WORK/degraded.json" -X POST "$BASE/v1/search" \
        -d "{\"k\":9,\"points\":[{\"x\":$1,\"y\":$2,\"acts\":[1]}]}")
    if echo "$HDRS" | grep -qi '^x-atsq-partial: 1'; then
        grep -q '"partial":true' "$WORK/degraded.json" || {
            echo "partial header without partial body: $(cat "$WORK/degraded.json")" >&2
            exit 1; }
        PARTIAL=1
        break
    fi
done
[ -n "$PARTIAL" ] || {
    echo "FAIL: no search reported partial with shard 0 dark" >&2; exit 1; }
CODE=$(curl -sS -o "$WORK/reqc.json" -w '%{http_code}' -X POST "$BASE/v1/search" \
    -d '{"k":9,"require_complete":true,"points":[{"x":1,"y":1,"acts":[1]},{"x":9,"y":9,"acts":[1]}]}')
[ "$CODE" = "503" ] || {
    echo "require_complete over a dark shard: got $CODE, want 503: $(cat "$WORK/reqc.json")" >&2
    exit 1; }
echo "   degraded serving: partial header + body, require_complete fails closed"

echo "== graceful shutdown"
kill -TERM "$ROUTER"
for _ in $(seq 1 40); do kill -0 "$ROUTER" 2>/dev/null || break; sleep 0.25; done
kill -0 "$ROUTER" 2>/dev/null && { echo "router did not exit after SIGTERM" >&2; exit 1; }
grep -q "bye" "$WORK/router.log" || {
    echo "no graceful-shutdown marker in router log" >&2
    cat "$WORK/router.log" >&2
    exit 1; }

echo "e2e-cluster: PASS"
