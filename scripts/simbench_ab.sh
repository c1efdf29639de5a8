#!/usr/bin/env bash
# A/B comparison of simbench's end-to-end metrics: a base revision against
# the working tree, run in alternating pairs on one or more workloads and
# one seed.
#
# Usage:
#   scripts/simbench_ab.sh <base-rev> <workloads> <pairs> <seed> [seconds]
#
#   base-rev   any git revision, e.g. HEAD or main~1
#   workloads  a workload or a comma-separated list, e.g. pipeline,zipf
#              (see BENCHMARK.json)
#   pairs      number of base/change pairs to run per workload
#   seed       simbench's --seed
#   seconds    simbench's --seconds; defaults to BENCHMARK.json's run_seconds
#
# The base revision is exported with `git archive` into target/simbench_ab/
# and removed on exit; each side's simbench is built once, from its own
# checkout into its own target directory, and serves every workload. A
# build may rewrite simbench/Cargo.lock; if the file was unmodified when the
# script started, it is restored on exit, so the checkout is left as found. Pair i
# runs the base first when i is odd and the change first when i is even.
# The script stops with an error when a run does not report "correct": true
# or reports failed runs.
#
# After each workload's pairs it prints, per metric, each side's median and
# quartiles over the pairs, how many pairs each side won (ties count for
# neither) and whether the medians differ by more than the base's
# interquartile range. Which side wins follows the metric's "better"
# direction in BENCHMARK.json (lower when unlisted). The raw result line of
# every run is kept under target/simbench_ab/runs/.
set -euo pipefail

usage() {
    sed -n '6,15p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[[ $# -ge 4 && $# -le 5 ]] || usage
base_rev=$1 pairs=$3 seed=$4
IFS=, read -r -a workloads <<<"$2"
[[ $pairs =~ ^[1-9][0-9]*$ && ${#workloads[@]} -gt 0 ]] || usage

cd "$(dirname "$0")/.."
root=$PWD
seconds=${5:-$(grep -o '"run_seconds": *[0-9.]*' BENCHMARK.json | grep -o '[0-9.]*$')}

work=$root/target/simbench_ab
tree=$work/base-tree
stamp=$(date +%Y%m%dT%H%M%S)
rm -rf "$tree"
mkdir -p "$tree"
restore_lock=
git diff --quiet -- simbench/Cargo.lock && restore_lock=1
cleanup() {
    rm -rf "$tree"
    if [[ -n $restore_lock ]]; then
        git checkout --quiet -- simbench/Cargo.lock
    fi
}
trap cleanup EXIT
git archive "$base_rev" | tar -x -C "$tree"

build() { # <checkout> <target dir>
    cargo build --release --quiet --offline \
        --manifest-path "$1/simbench/Cargo.toml" --target-dir "$2"
}
echo "building base ($(git rev-parse --short "$base_rev")) and change (working tree)" >&2
build "$tree" "$work/base-target"
build "$root" "$work/change-target"

# run <side> <pair>: one simbench run of $workload from that side's
# checkout; keeps its result line under $runs and checks it.
run() {
    local side=$1 pair=$2 dir bin out
    if [[ $side == base ]]; then
        dir=$tree bin=$work/base-target/release/simbench
    else
        dir=$root bin=$work/change-target/release/simbench
    fi
    out=$runs/$side-$pair.json
    (cd "$dir" && "$bin" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) 2>"$runs/$side-$pair.log" | tail -n 1 >"$out"
    if ! grep -q '"correct": true' "$out" || ! grep -q '"failed": 0,' "$out"; then
        echo "simbench_ab: $workload $side run of pair $pair is not correct or has failed runs:" >&2
        cat "$out" >&2
        exit 1
    fi
    echo "$workload pair $pair $side: $(grep -o '"[a-z_]*_min_ms": {"value": [-0-9.eE+]*' "$out" |
        sed 's/"\([a-z_]*\)": {"value": /\1 /' | tr '\n' ' ')" >&2
}

# summarize: the summary of the pairs under $runs. One "side pair metric
# value" row per metric of every run goes to awk; directions come from
# BENCHMARK.json's metric lists.
summarize() {
    for ((pair = 1; pair <= pairs; pair++)); do
        for side in base change; do
            grep -o '"[a-z_.]*": {"value": [-0-9.eE+]*' "$runs/$side-$pair.json" |
                sed "s/^\"\([a-z_.]*\)\": {\"value\": /$side $pair \1 /"
        done
    done | awk -v pairs="$pairs" -v better="$(
        grep -o '"name": "[^"]*", "unit": "[^"]*", "better": "[a-z]*"' BENCHMARK.json |
            sed 's/"name": "\([^"]*\)".*"better": "\([a-z]*\)"/\1=\2/' | tr '\n' ' '
    )" '
    function quantile(sorted, n, q,    h, lo) {
        h = (n - 1) * q
        lo = int(h)
        return lo + 1 < n ? sorted[lo] + (h - lo) * (sorted[lo + 1] - sorted[lo]) : sorted[lo]
    }
    function summarize(side, m,    i, n, v) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((side, i, m) in val) v[n++] = val[side, i, m]
        asort_n(v, n)
        q1[side] = quantile(v, n, 0.25); med[side] = quantile(v, n, 0.5); q3[side] = quantile(v, n, 0.75)
    }
    function asort_n(a, n,    i, j, t) {
        for (i = 1; i < n; i++)
            for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    BEGIN {
        split(better, pairs_list, " ")
        for (k in pairs_list) { split(pairs_list[k], kv, "="); dir[kv[1]] = kv[2] }
    }
    { val[$1, $2, $3] = $4 + 0; if (!($3 in seen)) { seen[$3] = 1; order[nm++] = $3 } }
    END {
        printf "%-22s %30s %30s %9s %5s %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "change/base", "wins", "medians apart > base IQR"
        for (k = 0; k < nm; k++) {
            m = order[k]
            summarize("base", m); summarize("change", m)
            wb = wc = 0
            for (i = 1; i <= pairs; i++) {
                b = val["base", i, m]; c = val["change", i, m]
                if (b == c) continue
                if ((dir[m] == "higher") == (c > b)) wc++; else wb++
            }
            d = med["change"] - med["base"]; if (d < 0) d = -d
            printf "%-22s %12.6g [%.6g, %.6g] %12.6g [%.6g, %.6g] %9.4f %2d/%-2d %s\n", m,
                med["base"], q1["base"], q3["base"], med["change"], q1["change"], q3["change"],
                (med["base"] != 0 ? med["change"] / med["base"] : 0), wc, wb,
                (d > q3["base"] - q1["base"] ? "yes" : "no")
        }
        printf "wins are change/base over %d pairs\n", pairs
    }'
}

for workload in "${workloads[@]}"; do
    runs=$work/runs/$workload-seed$seed-$stamp
    mkdir -p "$runs"
    for ((pair = 1; pair <= pairs; pair++)); do
        if ((pair % 2)); then
            run base "$pair"
            run change "$pair"
        else
            run change "$pair"
            run base "$pair"
        fi
    done
    echo "== $workload (seed $seed, $pairs pairs, $seconds s runs)"
    summarize
    echo "raw result lines: $runs" >&2
done
