#!/bin/sh
# Paired A/B benchmark of two trees: the base (a git ref, checked out in
# a git worktree under a temporary directory) and the change (the
# working tree, or a second ref in a second worktree). Each tree's test
# binaries are built once; then, for N pairs, every Go benchmark row and
# every bench/run.sh workload is run once on each side, the side that
# goes first alternating from pair to pair, so that the host's drift
# over minutes falls on both sides alike.
#
#     tools/abbench/abbench.sh [-n 10] [-base REF] [-change REF] [-bound PCT]
#         [-row PKG:NAME]... [-benchtime 1s] [-workload W]... [-seconds S] [-seed 1]
#
# -base defaults to HEAD, -change to the working tree; -change HEAD
# with the default base is the A/A comparison, whose every verdict other
# than "same" is a false alarm. -row names a benchmark function (an
# anchored regular expression) of a package; without any -row the
# issue stage's gate rows run. -workload adds a bench/run.sh workload
# (none by default); bench/ is run as it is, never edited.
#
# Per Go row it prints each pair's ns/op and, at the end, the median
# ratio change/base, its range, how many pairs had the change slower,
# and a verdict (ties count for neither side): "faster" when the change
# was faster in at least 80 % of the pairs, "slower" when it was slower in at least 80 % and its median
# ratio is worse than -bound percent (default 0), else "same".
# Per workload it prints each pair's wall_s, sim_cycles_per_s and
# alloc_mb_per_pass, and the same summary per metric (for
# sim_cycles_per_s, higher is better, so "slower" is a lower rate; a
# workload that reports no simulated cycles, serve_jobs, has no line).
set -eu

cd "$(dirname "$0")/../.."
repo=$(pwd)

pairs=10
base=HEAD
change=
benchtime=1s
bound=0
seconds=
seed=1
rows=
workloads=
while [ $# -gt 0 ]; do
    case "$1" in
    -n) pairs=$2; shift 2 ;;
    -base) base=$2; shift 2 ;;
    -change) change=$2; shift 2 ;;
    -bound) bound=$2; shift 2 ;;
    -row) rows="$rows $2"; shift 2 ;;
    -benchtime) benchtime=$2; shift 2 ;;
    -workload) workloads="$workloads $2"; shift 2 ;;
    -seconds) seconds=$2; shift 2 ;;
    -seed) seed=$2; shift 2 ;;
    *) echo "abbench: unknown argument $1 (see the header of $0)" >&2; exit 2 ;;
    esac
done
[ -n "$rows" ] || [ -n "$workloads" ] || rows="./internal/smcore:BenchmarkSMTickManyWarps ./internal/smcore:BenchmarkSMTickStalled ./internal/smcore:BenchmarkSMTickLockWait ./internal/gpu:BenchmarkComputeBound"

tmp=$(mktemp -d "${TMPDIR:-/tmp}/abbench.XXXXXX")
cleanup() {
    for side in base change; do
        [ ! -d "$tmp/$side" ] || git -C "$repo" worktree remove --force "$tmp/$side" 2>/dev/null || true
    done
    git -C "$repo" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "$repo" worktree add --quiet --detach "$tmp/base" "$base"
tree_base=$tmp/base
tree_change=$repo
if [ -n "$change" ]; then
    git -C "$repo" worktree add --quiet --detach "$tmp/change" "$change"
    tree_change=$tmp/change
fi
echo "base:   $base ($(git -C "$tree_base" rev-parse --short HEAD)) in $tree_base"
echo "change: ${change:-working tree} ($(git -C "$tree_change" rev-parse --short HEAD)) in $tree_change"

# One test binary per package and side, built once.
for row in $rows; do
    pkg=${row%%:*}
    bin=$(echo "$pkg" | tr -c 'A-Za-z0-9\n' _)
    for side in base change; do
        eval tree=\$tree_$side
        [ -x "$tmp/bin/$side/$bin.test" ] && continue
        mkdir -p "$tmp/bin/$side"
        (cd "$tree" && go test -c -o "$tmp/bin/$side/$bin.test" "$pkg")
    done
done

# runrow side pkg name: one run of a benchmark row, its ns/op.
runrow() {
    bin=$(echo "$2" | tr -c 'A-Za-z0-9\n' _)
    eval tree=\$tree_$1
    (cd "$tree/$2" && "$tmp/bin/$1/$bin.test" -test.run '^$' -test.bench "^$3\$" -test.benchtime "$benchtime" -test.benchmem) |
        awk '/^Benchmark/ { for (i = 3; i <= NF; i++) if ($i == "ns/op") print $(i - 1) }'
}

# runload side workload: one bench/run.sh run, its three metrics. A run
# that reports failed operations or mismatched statistics, or none of
# the metrics, stops the comparison.
runload() {
    eval tree=\$tree_$1
    bash "$tree/bench/run.sh" --workload "$2" --seed "$seed" --trace 0 ${seconds:+--seconds "$seconds"} >"$tmp/run.out" ||
        { echo "abbench: $1 $2 run failed:" >&2; tail -5 "$tmp/run.out" >&2; exit 1; }
    awk '$1 == "wall_s" { w = $2 } $1 == "sim_cycles_per_s" { c = $2 } $1 == "alloc_mb_per_pass" { a = $2 }
         END { if (w == "" || a == "") exit 1; print w, (c == "" ? 0 : c), a }' "$tmp/run.out" ||
        { echo "abbench: $1 $2 run printed no metrics" >&2; exit 1; }
}

# summarize label better: reads "base change" lines, prints the median
# ratio change/base, its range, the pairs where the change was worse
# and the verdict; better is "lower" or "higher".
summarize() {
    awk -v label="$1" -v better="$2" -v bound="$bound" '
        { r[NR] = $2 / $1; if ($2 != $1) { if ((better == "lower") == ($2 > $1)) worse++; else won++ } }
        END {
            if (NR == 0) exit
            n = NR
            for (i = 1; i <= n; i++) for (j = i + 1; j <= n; j++) if (r[j] < r[i]) { t = r[i]; r[i] = r[j]; r[j] = t }
            med = (n % 2) ? r[(n + 1) / 2] : (r[n / 2] + r[n / 2 + 1]) / 2
            verdict = "same"
            past = (better == "lower") ? med > 1 + bound / 100 : med < 1 - bound / 100
            if (worse + 0 >= 0.8 * n && past) verdict = "slower"
            else if (won + 0 >= 0.8 * n) verdict = "faster"
            printf "%-44s median %.3f  range %.3f..%.3f  change worse in %d/%d  %s\n", label, med, r[1], r[n], worse, n, verdict
        }'
}

for i in $(seq 1 "$pairs"); do
    order="base change"
    [ $((i % 2)) -eq 1 ] || order="change base"
    for row in $rows; do
        pkg=${row%%:*} name=${row#*:}
        for side in $order; do
            eval "ns_$side=\$(runrow $side $pkg $name)"
        done
        echo "pair $i $pkg $name base $ns_base change $ns_change"
        echo "$ns_base $ns_change" >>"$tmp/row.$(echo "$row" | tr -c 'A-Za-z0-9\n' _)"
    done
    for w in $workloads; do
        for side in $order; do
            eval "m_$side=\$(runload $side $w)"
        done
        echo "pair $i $w base $m_base change $m_change (wall_s sim_cycles_per_s alloc_mb_per_pass)"
        echo "$m_base $m_change" >>"$tmp/load.$w"
    done
done

echo "== summary over $pairs pairs (ratio = change / base)"
for row in $rows; do
    summarize "$row ns/op" lower <"$tmp/row.$(echo "$row" | tr -c 'A-Za-z0-9\n' _)"
done
for w in $workloads; do
    awk '{ print $1, $4 }' "$tmp/load.$w" | summarize "$w wall_s" lower
    awk '$2 != 0 { print $2, $5 }' "$tmp/load.$w" | summarize "$w sim_cycles_per_s" higher
    awk '{ print $3, $6 }' "$tmp/load.$w" | summarize "$w alloc_mb_per_pass" lower
done
