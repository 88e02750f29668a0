#!/usr/bin/env bash
# Paired end-to-end benchmark of two revisions on the repository benchmark
# (BENCHMARK.json, go run ./bench).
#
#   ./ci/bench_pairs.sh REV_A REV_B [workloads] [seeds]
#
# REV_A is the parent ("parent" side), REV_B the change ("change" side): any
# revision git can archive. workloads is a comma-separated list (default:
# all four); seeds is a count N for seeds 1..N or a comma-separated list
# (default 10). Each revision is exported with git archive and its ./bench
# built once; every (seed, workload) is one pair of runs, one per side, and
# which side runs first flips from pair to pair, so neither side always runs
# on a cold (or warm) machine.
#
# Both sides' records are appended to $BENCH_OUT (default BENCH_e2e.jsonl)
# labelled "side", "pr" ($BENCH_PR, default null) and "set" ($BENCH_SET,
# default "first"). Then it prints bench's -compare table and a pair table:
# per (workload, metric), the pairs the change won, the medians, the gain of
# the change's median (positive = better) and whether that gain exceeds the
# interquartile range of the parent's runs ("-" below two seeds, where there
# is no range). BENCH_SECONDS is passed to
# -seconds. The exit status is non-zero only when a build or a run fails;
# the verdicts are in the tables. Needs git, go, jq and awk.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
REV_A=$1
REV_B=$2
WORKLOADS=${3:-search_fit,search_spill,search_hot,ingest_watch}
SEEDS=${4:-10}
OUT=${BENCH_OUT:-BENCH_e2e.jsonl}
PR=${BENCH_PR:-null}
SET=${BENCH_SET:-first}
SECONDS_FLAG=()
if [ -n "${BENCH_SECONDS:-}" ]; then
    SECONDS_FLAG=(-seconds "$BENCH_SECONDS")
fi

if [[ "$SEEDS" =~ ^[0-9]+$ ]]; then
    SEEDS=$(seq -s, 1 "$SEEDS")
fi
IFS=, read -r -a seeds <<<"$SEEDS"
IFS=, read -r -a workloads <<<"$WORKLOADS"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

for side in parent change; do
    rev=$REV_A
    [ "$side" = change ] && rev=$REV_B
    echo "== build $side ($rev)" >&2
    mkdir -p "$WORK/$side"
    git archive "$rev" | tar -x -C "$WORK/$side"
    (cd "$WORK/$side" && go build -o "$WORK/$side.bench" ./bench)
done

run() { # side workload seed
    echo "== $1 $2 seed $3" >&2
    (cd "$WORK/$1" && "$WORK/$1.bench" -workload "$2" -seed "$3" "${SECONDS_FLAG[@]}" \
        -record "$WORK/$1.jsonl" >"$WORK/last.log" 2>&1) || {
        cat "$WORK/last.log" >&2
        echo "bench_pairs: $1 $2 seed $3 failed" >&2
        exit 1
    }
}

pair=0
for seed in "${seeds[@]}"; do
    for wl in "${workloads[@]}"; do
        if [ $((pair % 2)) -eq 0 ]; then
            run parent "$wl" "$seed"
            run change "$wl" "$seed"
        else
            run change "$wl" "$seed"
            run parent "$wl" "$seed"
        fi
        pair=$((pair + 1))
    done
done

for side in parent change; do
    sed "s/^{/{\"side\":\"$side\",\"pr\":$PR,\"set\":\"$SET\",/" "$WORK/$side.jsonl" >>"$OUT"
done

echo "== -compare (A = parent, B = change)"
(cd "$WORK/change" && "$WORK/change.bench" -compare "$WORK/parent.jsonl" "$WORK/change.jsonl") || true

# One "side workload seed metric value" line per measured metric of a side.
flat() {
    jq -r 'select(.trace | not)
        | (.metrics | to_entries[] | [.key, .value.value] | @tsv) as $m
        | "\(.workload)\t\(.seed)\t\($m)"' "$WORK/$1.jsonl" | sed "s/^/$1\t/"
}
failed=$(jq -s 'map(.failed) | add' "$WORK/parent.jsonl" "$WORK/change.jsonl")
echo "== pairs (failed operations over both sides: $failed)"
{
    jq -r '.end_to_end[] | "better\t\(.name)\t\(.better)"' "$WORK/change/BENCHMARK.json"
    flat parent
    flat change
} | awk -F'\t' -v order="$WORKLOADS" '
function sortv(a, n,   i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
function median(a, n) { return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2 }
# The quartile of Python statistics.quantiles(data, n=4), which is how the
# repository benchmark takes a spread.
function quart(a, n, i,   j, d) {
    if (n < 2) return a[1]
    j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
    d = i * (n + 1) - j * 4
    return (a[j] * (4 - d) + a[j+1] * d) / 4
}
$1 == "better" { better[$2] = $3; metrics[++nm] = $2; next }
{ v[$1, $2, $3, $4] = $5; seen[$2, $3] = 1 }
END {
    nw = split(order, wls, ",")
    printf "%-13s %-14s %7s %12s %12s %9s %11s %s\n", "workload", "metric", "won", "A median", "B median", "gain", "A IQR", "gain > A IQR"
    for (w = 1; w <= nw; w++) for (k = 1; k <= nm; k++) {
        m = metrics[k]; n = 0; won = 0
        for (key in seen) {
            split(key, ks, SUBSEP)
            if (ks[1] != wls[w] || !(("parent", ks[1], ks[2], m) in v) || !(("change", ks[1], ks[2], m) in v)) continue
            a = v["parent", ks[1], ks[2], m] + 0; b = v["change", ks[1], ks[2], m] + 0
            n++; A[n] = a; B[n] = b
            if (better[m] == "higher" ? b > a : b < a) won++
        }
        if (n == 0) continue
        sortv(A, n); sortv(B, n)
        ma = median(A, n); mb = median(B, n)
        gain = better[m] == "higher" ? mb - ma : ma - mb
        iqr = quart(A, n, 3) - quart(A, n, 1)
        printf "%-13s %-14s %4d/%-2d %12.4g %12.4g %+9.3g %11.4g %s\n", wls[w], m, won, n, ma, mb, gain, iqr, (n < 2 ? "-" : gain > iqr ? "yes" : "no")
    }
}'
