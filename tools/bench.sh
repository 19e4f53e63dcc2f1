#!/bin/sh
# Microbenchmark runner and perf-regression gate.
#
#     ./tools/bench.sh            # run benches, gate allocs/op and
#                                 # ns/op against BENCH_baseline.json
#     ./tools/bench.sh -quick     # smoke mode for check.sh: fewer
#                                 # iterations, same allocs/op gate
#     ./tools/bench.sh -record    # rewrite BENCH_baseline.json from the
#                                 # current run
#
# The gate is allocation counts plus ns/op drift: allocs/op is stable
# across machines and load, so check.sh can fail hard on any growth;
# ns/op is gated with a tolerance (15% in full mode, where -benchtime
# gives stable numbers; 50% in -quick mode, whose few iterations are
# noisy) so a perf-optimisation PR cannot silently give its win back.
# ns/op is compared in units of the host's speed: every run first times
# BenchmarkCalibrate (tools/calibrate, an integer loop with no simulator
# code), the baseline records that loop's ns/op beside its rows, and a
# row's limit is its baseline scaled by today's calibration over the
# recorded one — so a slower or faster host moves the limit, not the
# verdict.
set -eu

cd "$(dirname "$0")/.."
baseline=BENCH_baseline.json

mode="${1-}"
microtime="2s"
e2etime="3x"
capturetime="20x"
nstol=15
if [ "$mode" = "-quick" ]; then
    # A timed window, not an iteration count: the microbenchmarks span
    # 10 ns to 300 us per op, and at a fixed 100k iterations the fastest
    # (an all-blocked SM cycle is ~30 ns) were timed over 3 ms — one
    # scheduler hiccup doubled the reading and tripped the ns/op gate.
    microtime="200ms"
    e2etime="1x"
    capturetime="3x"
    nstol=50
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT

echo "== host calibration (fixed integer loop, no simulator code)"
go test -run '^$' -bench 'BenchmarkCalibrate$' -benchtime "$microtime" ./tools/calibrate/ | tee "$out"
cal=$(awk '/^BenchmarkCalibrate/ { for (i = 3; i <= NF; i++) if ($i == "ns/op") print $(i - 1) }' "$out")
[ -n "$cal" ] || { echo "no calibration measurement" >&2; exit 1; }

echo "== microbenchmarks (smcore SM tick incl. scratchpad kernel + all-blocked census and lock-wait cycles, warp executor, SFU rows, bank conflicts, scheduler ranking, mem system tick + idle window, DRAM channel tick, checkpoint roundtrip, build + setup of the 19 paper proxies)"
# -p 1: packages run one after another; with the default (one per CPU)
# two packages' benchmarks time each other's contention.
go test -p 1 -run '^$' -bench 'BenchmarkSMTick$|BenchmarkSMTickManyWarps$|BenchmarkSMTickScratchpad$|BenchmarkSMTickStalled$|BenchmarkSMTickLockWait$|BenchmarkWarpExecute$|BenchmarkEvalRowSFU$|BenchmarkBankConflictDegree$|BenchmarkSchedOrder$|BenchmarkMemSystemTick$|BenchmarkMemSystemTickIdle|BenchmarkDRAMChannelTick$|BenchmarkCheckpointRoundtrip$|BenchmarkBuildSetup$' \
    -benchmem -benchtime "$microtime" ./internal/smcore/ ./internal/warp/ ./internal/isa/ ./internal/sched/ ./internal/mem/ ./internal/mem/dram/ ./internal/checkpoint/ ./internal/workloads/ | tee -a "$out"

echo "== end-to-end engine (full hotspot simulation per op; two-tenant co-residency per op; 56 mostly-blocked SMs per op; compute-bound, memory drained, per op; a whole hotspot+lavaMD time-slice run per op)"
go test -run '^$' -bench 'BenchmarkRunHotspot$|BenchmarkCoResident|BenchmarkBlockedSMs$|BenchmarkComputeBound|BenchmarkTimeSlice$' \
    -benchmem -benchtime "$e2etime" -timeout 30m ./internal/gpu/ | tee -a "$out"

echo "== checkpoint capture and restore (one MUM machine snapshot at cycle 60 000 per op; a whole MUM run checkpointed every 20 000 cycles per op; a decode and restore of MUM's cycle-100 000 snapshot per op)"
# More ops than the end-to-end rows: a capture's encoding/json scratch
# buffer comes from a per-P pool, so an op that runs on the other P of
# a 2-CPU host regrows it to its largest section's size once, and over
# three ops that one regrowth is a visible share of the op's time.
go test -run '^$' -bench 'BenchmarkCapture$|BenchmarkCheckpointRun$|BenchmarkRestore$' \
    -benchmem -benchtime "$capturetime" -timeout 30m ./internal/gpu/ | tee -a "$out"

echo "== service layer (a fresh job through gsched vs straight to its worker; a gserved hit, whole HTTP round trip; a done status decoded by the fast path vs json.Unmarshal)"
# BenchmarkFleetDispatch also prints worker-ms/job and dispatch-ms/job:
# the same job sent to the worker directly, and what the fleet adds.
# BenchmarkDecodeStatus times stats.Unmarshal and json.Unmarshal on the
# same gserved and gsched bodies; a fast path that falls back shows as
# its encoding-json sibling's allocs/op.
go test -p 1 -run '^$' -bench 'BenchmarkFleetDispatch$|BenchmarkServerHit$|BenchmarkDecodeStatus' \
    -benchmem -benchtime "$microtime" ./internal/fleet/ ./internal/server/ | tee -a "$out"

# Normalize benchmark lines into "name ns b allocs" rows. Columns are
# located by their unit suffix, not position: a benchmark that calls
# b.SetBytes emits an extra MB/s column between ns/op and B/op, which a
# fixed-field parse would silently record as B/op and allocs/op (that
# bug once put 237601 "allocs" of 608 "bytes" — actually B/op and MB/s
# — into the checkpoint-roundtrip baseline).
rows=$(awk '/^Benchmark/ && !/^BenchmarkCalibrate/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; b = ""; allocs = ""
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        else if ($i == "B/op") b = $(i - 1)
        else if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns != "" && b != "" && allocs != "")
        printf "%s %.0f %.0f %.0f\n", name, ns, b, allocs
}' "$out")

if [ "$mode" = "-record" ]; then
    {
        echo '{'
        echo '  "comment": "Microbenchmark baseline recorded by tools/bench.sh -record. check.sh and bench.sh gate current allocs/op (no growth) and ns/op (bounded drift, in units of calibrate_ns_op, the host-speed loop timed in the same run) against these numbers.",'
        echo "  \"goos\": \"$(go env GOOS)\","
        echo "  \"goarch\": \"$(go env GOARCH)\","
        echo "  \"calibrate_ns_op\": $cal,"
        echo '  "benchmarks": {'
        echo "$rows" | awk '{
            printf "%s    \"%s\": {\"ns_op\": %.0f, \"b_op\": %.0f, \"allocs_op\": %.0f}",
                (NR > 1 ? ",\n" : ""), $1, $2, $3, $4
        }'
        echo ''
        echo '  }'
        echo '}'
    } >"$baseline"
    echo "recorded $(echo "$rows" | wc -l | tr -d ' ') benchmarks to $baseline"
    exit 0
fi

# Allocation gate: every benchmark present in the baseline must not
# allocate more per op than it did when the baseline was recorded. The
# 5% headroom rounds to zero for the zero-alloc microbenchmarks, so
# their gate stays exact; it absorbs the run-to-run jitter of the
# end-to-end runs, whose ten-odd thousand allocs/op are one-time set-up
# and buffers growing to their steady-state size. What the gate
# is for, an allocation per cycle or per instruction, shows up as a
# multiple, not a few percent.
fail=0
for name in $(echo "$rows" | awk '{print $1}'); do
    base=$(sed -n "s|.*\"$name\": {[^}]*\"allocs_op\": \([0-9]*\).*|\1|p" "$baseline")
    [ -n "$base" ] || continue
    cur=$(echo "$rows" | awk -v n="$name" '$1 == n {print $4}')
    limit=$((base + base / 20))
    if [ "$cur" -gt "$limit" ]; then
        echo "FAIL: $name allocs/op regressed: $cur > baseline $base" >&2
        fail=1
    else
        echo "ok:   $name allocs/op $cur (baseline $base)"
    fi
done

# Wall-time gate: ns/op may not drift more than $nstol% above the
# recorded baseline, both in units of the calibration loop. The
# two-tenant end-to-end benchmark is exempt (its wall time depends on
# machine load; the allocs/op gate above still applies to it).
basecal=$(sed -n 's|.*"calibrate_ns_op": \([0-9.]*\).*|\1|p' "$baseline")
[ -n "$basecal" ] || { echo "$baseline records no calibrate_ns_op" >&2; exit 1; }
echo "calibration: $cal ns/op now, $basecal ns/op when the baseline was recorded"
for name in $(echo "$rows" | awk '{print $1}'); do
    case "$name" in
    BenchmarkCoResident*) continue ;;
    esac
    base=$(sed -n "s|.*\"$name\": {[^}]*\"ns_op\": \([0-9]*\).*|\1|p" "$baseline")
    [ -n "$base" ] && [ "$base" -gt 0 ] || continue
    cur=$(echo "$rows" | awk -v n="$name" '$1 == n {printf "%.0f", $2}')
    limit=$(awk -v b="$base" -v c="$cal" -v bc="$basecal" -v t="$nstol" \
        'BEGIN { printf "%.0f", b * c / bc * (100 + t) / 100 }')
    if [ "$cur" -gt "$limit" ]; then
        echo "FAIL: $name ns/op regressed: $cur > baseline $base scaled by calibration +${nstol}% = $limit" >&2
        fail=1
    else
        echo "ok:   $name ns/op $cur (baseline $base, scaled limit $limit)"
    fi
done

exit $fail
