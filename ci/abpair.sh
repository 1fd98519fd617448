#!/usr/bin/env bash
# Alternating benchmark pairs: the checked-out revision against a base.
#
#   bash ci/abpair.sh <base-rev> <workload> [pairs]
#
# Builds <base-rev> (A) and HEAD (B) in two git worktrees whose checkout
# paths have the same length — the path is baked into the binaries and
# moves the heap — then runs `benchmark/run.sh --workload <workload>`
# alternately in each, A then B, `pairs` times (default 10). An A/A
# block of the base against itself follows, half as many pairs (at least
# two): the spread two runs of one build show on this host.
#
# Prints, for each end-to-end metric of BENCHMARK.json: both medians and
# inter-quartile ranges, the median shift, B's wins k/n over the pairs
# with a two-sided sign-test p-value, and the A/A spread (the median and
# the largest relative difference inside an A/A pair). A gain is worth
# claiming when its wins are significant and its shift exceeds both the
# A/A spread and A's IQR.
#
# Every run uses BENCHMARK.json's run_seconds and seed 7. ABPAIR_DIR
# (default target/abpair) holds the worktrees and the raw result lines
# (`runs.tsv`). The worktrees are removed on exit; their build
# directories are kept under ABPAIR_DIR so a second call rebuilds
# incrementally. run.sh builds each side on its first run.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: bash ci/abpair.sh <base-rev> <workload> [pairs]" >&2
    exit 2
}
[ $# -ge 2 ] && [ $# -le 3 ] || usage
base_rev=$1
workload=$2
pairs=${3:-10}
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
base=$(git rev-parse --verify "$base_rev^{commit}")
head=$(git rev-parse --verify HEAD)
python3 -c 'import json, sys
names = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
listed = ", ".join(names)
if sys.argv[1] not in names:
    sys.exit(f"abpair: no workload {sys.argv[1]} ({listed})")' "$workload"

dir=$(realpath -m "${ABPAIR_DIR:-target/abpair}")
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
aa_pairs=$(( (pairs + 1) / 2 ))
[ "$aa_pairs" -ge 2 ] || aa_pairs=2

mkdir -p "$dir/build-a" "$dir/build-b"
cleanup() {
    for side in a b; do
        git worktree remove --force "$dir/$side" 2> /dev/null || true
    done
}
trap cleanup EXIT
cleanup
git worktree add --detach "$dir/a" "$base" > /dev/null
git worktree add --detach "$dir/b" "$head" > /dev/null

# One benchmark run of side $1: its last line, the JSON result.
run() {
    local last
    last=$(cd "$dir/$1" && CARGO_TARGET_DIR="$dir/build-$1" bash benchmark/run.sh \
        --workload "$workload" --seed 7 --seconds "$seconds" --trace 0 | tail -n 1)
    [[ "$last" == "{"* ]] || { echo "abpair: side $1 printed no result" >&2; exit 1; }
    echo "$last"
}

echo "abpair: $workload, A = $(git rev-parse --short "$base")," \
    "B = $(git rev-parse --short "$head"), $pairs pairs + $aa_pairs A/A, ${seconds} s runs" >&2
runs="$dir/runs.tsv"
: > "$runs"
# Appends one run of side $2 to the log under label $1, pair $3.
record() {
    local result
    result=$(run "$2")
    printf '%s\t%s\t%s\n' "$1" "$3" "$result" >> "$runs"
}
for i in $(seq "$pairs"); do
    record A a "$i"
    record B b "$i"
    echo "abpair: pair $i/$pairs" >&2
done
for i in $(seq "$aa_pairs"); do
    record A1 a "$i"
    record A2 a "$i"
    echo "abpair: A/A pair $i/$aa_pairs" >&2
done

python3 - "$runs" BENCHMARK.json "$workload" << 'EOF'
import json, math, statistics, sys

runs_path, bench_path, workload = sys.argv[1:]
metrics = json.load(open(bench_path))["end_to_end"]
runs = {}
for line in open(runs_path):
    side, pair, result = line.rstrip("\n").split("\t", 2)
    doc = json.loads(result)
    if not doc.get("correct", False) or doc.get("failed", 0):
        print(f"abpair: {side} run {pair} reports correct={doc.get('correct')} "
              f"failed={doc.get('failed')}", file=sys.stderr)
    runs.setdefault(side, []).append(doc["metrics"])

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

def sign_p(wins, losses):
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2 * tail)

print(f"{workload}: {len(runs['A'])} A/B pairs, {len(runs['A1'])} A/A pairs")
print(f"{'metric':<12} {'A median':>12} {'A IQR':>8} {'B median':>12} {'B IQR':>8} "
      f"{'shift':>8} {'B wins':>7} {'p':>7} {'A/A med':>8} {'A/A max':>8}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    a = [r[name]["value"] for r in runs["A"]]
    b = [r[name]["value"] for r in runs["B"]]
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    better = [(y < x) if lower else (y > x) for x, y in zip(a, b)]
    ties = sum(x == y for x, y in zip(a, b))
    wins = sum(better)
    losses = len(a) - wins - ties
    aa = [abs(y - x) / x for x, y in zip(
        [r[name]["value"] for r in runs["A1"]], [r[name]["value"] for r in runs["A2"]]) if x]
    shift = (bm - am) / am if am else 0.0
    print(f"{name:<12} {am:>12.4f} {(a3 - a1) / am if am else 0:>7.1%} {bm:>12.4f} "
          f"{(b3 - b1) / bm if bm else 0:>7.1%} {shift:>+7.1%} {wins:>3}/{len(a):<3} "
          f"{sign_p(wins, losses):>7.4f} {statistics.median(aa):>7.1%} {max(aa):>7.1%}")
EOF
