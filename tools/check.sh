#!/bin/sh
# Pre-PR gate: vet + formatting + build + race-checked tests for the
# concurrency-bearing packages (the runner's worker pool / singleflight,
# the session layer, the gserved daemon + client — including the
# admission-saturation test — and four simulations run side by side,
# which share nothing), guards that internal/gpu still has one cycle loop,
# that internal/ + cmd/ still have one job lifecycle (one definition of
# each shared route, body decoder, JSON writer and journal open),
# that internal/harness still plans by enumeration (no recording pass),
# that a tenant's blocks are priced by one rule (core.Footprint: no cap
# ledger, no second pair-cost formula), that one function does atomic
# file writes, and that no pool, map-keyed MSHR or any-typed payload is back on the
# memory path, the paper-tables golden (gexp -exp all -scale 1 -paper,
# byte-identical to the checked-in file), EXPERIMENTS.md below its
# generated marker (gexp -exp all -scale 2 -md -paper, byte-identical),
# under -full the FSIN/FEXP
# kernels against their libm definition on every float32 they accept,
# the bench module's
# own tests, the allocation budget of the cycle path,
# a fuzz smoke pass over the assembler, ISA evaluator, warp executor and
# checkpoint decoder, an invariant-audited tier-1 run (plus the two-level
# policy against the reference with every cycle audited), the paper kernels'
# functional checks on the reference engine, a gserved smoke
# test (start on a random port, submit a job, drain via SIGTERM), a
# crash-recovery smoke (kill -9 mid-job, journal replay and checkpoint
# resume after restart), and a gsched fleet smoke (coordinator + two
# workers, kill -9 one worker mid-sweep, every job finishes
# byte-identical to a single-node run).
# Run from the repository root:
#
#     ./tools/check.sh          # race tests in -short mode (~seconds)
#     ./tools/check.sh -full    # race tests without -short
set -eu

cd "$(dirname "$0")/.."

short="-short"
[ "${1-}" = "-full" ] && short=""

# Scratch space for built binaries and daemon logs; every daemon the
# script starts is killed on exit, however it exits.
smoketmp=$(mktemp -d)
daemon_pids=""
cleanup() {
    for p in $daemon_pids; do
        kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$smoketmp"
}
trap cleanup EXIT

# start_daemon NAME LOG CMD...: run CMD in the background with its output
# in LOG and wait (5s budget) for its "NAME: listening on <addr>" startup
# handshake. Sets $daemon_pid and $daemon_addr; a daemon that dies or
# stays silent fails the script with its log. The log is created first so
# a read that beats the child's open finds an empty file, not a missing
# one (which set -e turns into a spurious failure).
start_daemon() {
    name=$1
    log=$2
    shift 2
    : >"$log"
    "$@" >"$log" 2>&1 &
    daemon_pid=$!
    daemon_pids="$daemon_pids $daemon_pid"
    daemon_addr=""
    i=0
    while [ $i -lt 50 ]; do
        daemon_addr=$(sed -n "s/^$name: listening on //p" "$log")
        [ -n "$daemon_addr" ] && break
        kill -0 "$daemon_pid" 2>/dev/null || break
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$daemon_addr" ]; then
        echo "$name did not start:" >&2
        cat "$log" >&2
        exit 1
    fi
}

# drain_daemon NAME PID LOG: SIGTERM must drain the daemon and exit 0
# within 10s, reporting "NAME: drained".
drain_daemon() {
    kill -TERM "$2"
    i=0
    while [ $i -lt 100 ]; do
        kill -0 "$2" 2>/dev/null || break
        sleep 0.1
        i=$((i + 1))
    done
    if kill -0 "$2" 2>/dev/null; then
        echo "$1 did not exit within 10s of SIGTERM" >&2
        exit 1
    fi
    rc=0
    wait "$2" || rc=$?
    if [ "$rc" != 0 ]; then
        echo "$1 drain exited $rc:" >&2
        cat "$3" >&2
        exit 1
    fi
    grep -q "^$1: drained" "$3" || {
        echo "$1 did not report a clean drain:" >&2
        cat "$3" >&2
        exit 1
    }
}

echo "== go vet ./..."
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== one cycle loop (each cycle-body step has exactly one call site in internal/gpu)"
for pat in ':= tickSMs(' '\.ms\.Tick(' '\.Check(now)' '\.Put(now,'; do
    n=$(cat $(ls internal/gpu/*.go | grep -v _test.go) | grep -v '^[[:space:]]*//' | grep -c -- "$pat" || true)
    [ "$n" = 1 ] || { echo "internal/gpu: $n call sites of '$pat', want 1 (a forked cycle loop coming back?)" >&2; exit 1; }
done

echo "== one job lifecycle (each shared route, the strict body decoder, the JSON writer and the journal open have one definition)"
svc="internal/server internal/fleet cmd/gserved cmd/gsched"
for pat in '"POST /v1/jobs"' '"GET /v1/jobs/{key}"' '"GET /v1/sweeps"' '"POST /v1/sweeps"' \
    '"GET /healthz"' '"GET /readyz"' '"GET /statusz"' 'DisallowUnknownFields' 'func [wW]riteJSON' 'wal\.Open('; do
    n=$(find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -v '^[[:space:]]*//' | grep -c -- "$pat" || true)
    [ "$n" = 1 ] || { echo "internal/ + cmd/: $n occurrences of '$pat', want 1 (a second job service coming back?)" >&2; exit 1; }
done
echo "   non-test Go lines in $svc: $(find $svc -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"

echo "== experiments are data (internal/harness plans by enumeration: no record hook, no placeholder-statistics success return, one Session constructor)"
harness_src=$(ls internal/harness/*.go | grep -v _test.go)
hits=$(grep -n -E '\brecord\b|return &stats\.GPU\{\}' $harness_src | grep -v ':[[:space:]]*//' || true)
[ -z "$hits" ] || { echo "internal/harness: a recording pass coming back?" >&2; echo "$hits" >&2; exit 1; }
n=$(cat $harness_src | grep -c '&Session{' || true)
[ "$n" = 1 ] || { echo "internal/harness: $n '&Session{' literals, want 1 (a second Session built for planning?)" >&2; exit 1; }
echo "   non-test Go lines in internal/harness + cmd/gexp: $(cat $harness_src cmd/gexp/*.go | wc -l)"

echo "== one footprint rule (core.Footprint is the only pricing of a tenant's blocks; no cap ledger, no second pair-cost formula)"
nontest_go=$(find . -name '*.go' ! -name '*_test.go')
hits=$(grep -n -E 'PairQuantum|pairTop|usedRegs|usedSmem|CorruptTenantCap' $nontest_go | grep -v ':[[:space:]]*//' || true)
[ -z "$hits" ] || { echo "a second footprint formula or a booked cap ledger is back:" >&2; echo "$hits" >&2; exit 1; }
n=$(cat $nontest_go | grep -c 'func Footprint(' || true)
[ "$n" = 1 ] || { echo "$n definitions of func Footprint(, want 1" >&2; exit 1; }
for pkg in internal/tenancy internal/smcore; do
    n=$(cat $(ls $pkg/*.go | grep -v _test.go) | grep -c 'core\.Footprint(' || true)
    [ "$n" -ge 1 ] || { echo "$pkg no longer prices through core.Footprint" >&2; exit 1; }
done
hits=$(grep -n -E '\b[cC]fg\.T\b' $(ls internal/tenancy/*.go internal/smcore/*.go internal/gpu/*.go | grep -v _test.go) || true)
[ -z "$hits" ] || { echo "the sharing threshold is read outside internal/core (a second pair-cost formula?):" >&2; echo "$hits" >&2; exit 1; }
echo "   non-test Go lines in internal/{core,tenancy,smcore}: $(cat $(ls internal/core/*.go internal/tenancy/*.go internal/smcore/*.go | grep -v _test.go) | wc -l)"

echo "== one atomic write (checkpoint.WriteFileAtomic is the only temp-file rename in non-test Go)"
n=$(cat $nontest_go | grep -v '^[[:space:]]*//' | grep -c 'os\.Rename(' || true)
[ "$n" = 1 ] || { echo "$n call sites of os.Rename(, want 1 (a hand-rolled atomic write coming back?)" >&2; exit 1; }

echo "== paper tables golden (gexp -exp all -scale 1 -paper is byte-identical to internal/harness/testdata/gexp_all_scale1.txt)"
go build -o "$smoketmp/gexp" ./cmd/gexp
"$smoketmp/gexp" -exp all -scale 1 -paper >"$smoketmp/gexp_all.txt"
cmp "$smoketmp/gexp_all.txt" internal/harness/testdata/gexp_all_scale1.txt
if [ -z "$short" ]; then
    echo "== paper tables golden, sequential (-j 1)"
    "$smoketmp/gexp" -exp all -scale 1 -paper -j 1 >"$smoketmp/gexp_all_j1.txt"
    cmp "$smoketmp/gexp_all_j1.txt" internal/harness/testdata/gexp_all_scale1.txt
fi

echo "== EXPERIMENTS.md (below its generated marker: gexp -exp all -scale 2 -md -paper, byte for byte; ~2 min on 2 CPUs)"
# -strict turns a failed simulation into a failed gate rather than a
# zeroed cell; with no failure its output is the marker command's.
marker='<!-- generated: go run ./cmd/gexp -exp all -scale 2 -md -paper (do not edit below) -->'
grep -qxF -- "$marker" EXPERIMENTS.md || { echo "EXPERIMENTS.md has no line '$marker'" >&2; exit 1; }
sed '1,/^<!-- generated: /d' EXPERIMENTS.md >"$smoketmp/experiments_md.txt"
"$smoketmp/gexp" -exp all -scale 2 -md -paper -strict >"$smoketmp/gexp_md.txt"
cmp "$smoketmp/gexp_md.txt" "$smoketmp/experiments_md.txt" || {
    echo "EXPERIMENTS.md is stale below its marker; regenerate it with the command in its preamble" >&2
    exit 1
}

echo "== go test -race (runner, harness)"
go test -race $short ./internal/runner/ ./internal/harness/

echo "== go test -race (server saturation + drain + held waits + replay past a full queue, client retries + Wait pacing)"
go test -race $short ./internal/server/ ./internal/client/

echo "== go test -race (fleet coordinator incl. the stub-worker dispatch-protocol tests and the lifecycle explorer, wal journal)"
go test -race $short ./internal/fleet/ ./internal/wal/
if [ -z "$short" ]; then
    echo "== lifecycle explorer, 5000 seeded schedules"
    go test -count=1 -run TestExploreLifecycle ./internal/fleet/ -explore 5000
fi

echo "== no shared or untyped plumbing on the memory path (sync.Pool, map-keyed MSHRs, any-typed payloads stay out of internal/mem and internal/smcore)"
for pat in 'sync\.Pool' 'map\[uint32\]' 'Payload  *any' 'Tag  *any'; do
    hits=$(grep -rn --include='*.go' -- "$pat" internal/mem internal/smcore | grep -v '_test\.go:' | grep -v ':[[:space:]]*//' || true)
    [ -z "$hits" ] || { echo "engine plumbing regressed ('$pat'):" >&2; echo "$hits" >&2; exit 1; }
done

echo "== go test -race (concurrent simulations share nothing; a run starts no goroutine)"
go test -race -run 'TestConcurrentRunsIndependent|TestRunSpawnsNoGoroutines|TestLaunchQueue' ./internal/gpu/

echo "== bench module (outside the root module: surface + golden tests of bench/)"
(cd bench && go test ./...)

echo "== benchmark smoke + allocs/op gate (tools/bench.sh -quick)"
./tools/bench.sh -quick

echo "== allocation budget (mallocs per 1000 simulated cycles, lavaMD + MUM)"
go test -count=1 -run 'TestAllocationBudget' ./internal/gpu/

if [ -z "$short" ]; then
    echo "== SFU kernels vs their libm definition, every accepted float32 (~2 min on 2 CPUs)"
    go test -count=1 -run TestSFUKernelsMatchLibm -timeout 60m ./internal/isa/ -exhaustive
fi

echo "== fuzz smoke (asm parser, ISA evaluator, warp executor vs per-lane reference, checkpoint decoder)"
go test -fuzz=FuzzAssemble -fuzztime=10s ./internal/asm/
go test -fuzz=FuzzEval -fuzztime=10s ./internal/isa/
go test -run '^$' -fuzz=FuzzExecute -fuzztime=10s ./internal/warp/
go test -fuzz=FuzzCheckpointDecode -fuzztime=10s ./internal/checkpoint/

echo "== invariant-audited tier-1 (GPUSHARE_INVARIANT_STRIDE=256)"
GPUSHARE_INVARIANT_STRIDE=256 go test $short ./internal/gpu/ ./internal/workloads/ ./internal/harness/

echo "== in-place view patch: two-level vs reference at stride 1, un-short, and the skipped-patch fault"
# Only the two-level policy ranks on WaitingLong, the field patchView
# rewrites without a re-snapshot: at stride 1 a view input the patch
# forgets fails on the cycle it goes stale, not 256 cycles later.
go test -count=1 -run 'TestCensusExact/.*(2lvl|two-level)' ./internal/gpu/
go test -count=1 -run 'TestFaultInjectionCaughtByInvariants/stale-view-patch' ./internal/gpu/

echo "== reference engine: every paper kernel's functional Check (GPUSHARE_REFERENCE=1)"
GPUSHARE_REFERENCE=1 go test $short ./internal/workloads/

echo "== gserved smoke test (submit, statusz, SIGTERM drain)"
go build -o "$smoketmp/gserved" ./cmd/gserved
start_daemon gserved "$smoketmp/out.log" \
    "$smoketmp/gserved" -addr 127.0.0.1:0 -cachedir "$smoketmp/cache"
smokepid=$daemon_pid
addr=$daemon_addr

code=$(curl -s -o "$smoketmp/job.json" -w '%{http_code}' \
    -X POST "http://$addr/v1/jobs?wait=1" \
    -d '{"workload":"gaussian","scale":1}')
if [ "$code" != 200 ]; then
    echo "gserved submit: HTTP $code" >&2
    cat "$smoketmp/job.json" >&2
    exit 1
fi
grep -q '"state":"done"' "$smoketmp/job.json" || {
    echo "gserved job did not finish:" >&2
    cat "$smoketmp/job.json" >&2
    exit 1
}
grep -q '"Cycles"' "$smoketmp/job.json" || {
    echo "gserved response carries no stats:" >&2
    cat "$smoketmp/job.json" >&2
    exit 1
}

code=$(curl -s -o "$smoketmp/statusz.json" -w '%{http_code}' "http://$addr/statusz")
if [ "$code" != 200 ]; then
    echo "gserved statusz: HTTP $code" >&2
    exit 1
fi
grep -q '"accepted":1' "$smoketmp/statusz.json" || {
    echo "gserved statusz does not count the job:" >&2
    cat "$smoketmp/statusz.json" >&2
    exit 1
}

drain_daemon gserved "$smokepid" "$smoketmp/out.log"

echo "== gserved crash-recovery smoke (kill -9 mid-job, journal replay)"
# Start with a job journal and mid-simulation checkpoints, submit a
# multi-second job, kill -9 the daemon mid-run, and verify that a fresh
# daemon replays the journal and finishes the job.
start_crash_daemon() {
    start_daemon gserved "$1" \
        "$smoketmp/gserved" -addr 127.0.0.1:0 -cachedir "$smoketmp/cache2" \
        -journal "$smoketmp/journal.jsonl" \
        -checkpoint-dir "$smoketmp/ckpt" -checkpoint-stride 20000
    smokepid=$daemon_pid
    addr=$daemon_addr
}

start_crash_daemon "$smoketmp/crash1.log"
code=$(curl -s -o "$smoketmp/crashjob.json" -w '%{http_code}' \
    -X POST "http://$addr/v1/jobs" \
    -d '{"workload":"hotspot","scale":2}')
if [ "$code" != 202 ]; then
    echo "gserved crash-smoke submit: HTTP $code" >&2
    cat "$smoketmp/crashjob.json" >&2
    exit 1
fi
key=$(sed -n 's/.*"key":"\([^"]*\)".*/\1/p' "$smoketmp/crashjob.json")
if [ -z "$key" ]; then
    echo "gserved crash-smoke submit returned no job key:" >&2
    cat "$smoketmp/crashjob.json" >&2
    exit 1
fi

# Kill the daemon while the simulation is in flight (the job takes a
# couple of seconds; the kill lands well inside it).
sleep 0.7
kill -9 "$smokepid"
wait "$smokepid" 2>/dev/null || true

# The write-ahead rule: the accept record must be durable, and no done
# record may exist for a job that never finished.
grep -q "\"op\":\"accept\",\"key\":\"$key\"" "$smoketmp/journal.jsonl" || {
    echo "journal is missing the accept record for the killed job" >&2
    cat "$smoketmp/journal.jsonl" >&2
    exit 1
}
if grep -q "\"op\":\"done\",\"key\":\"$key\"" "$smoketmp/journal.jsonl"; then
    echo "journal marks the killed job done before it finished" >&2
    cat "$smoketmp/journal.jsonl" >&2
    exit 1
fi

# Restart: the journal replays the unfinished job, and a held wait on
# its key (computed by the dead process) must come back "done" (60s
# budget). The loop is for the window before the replay has re-admitted
# the key (404) and for a hold that runs out first.
start_crash_daemon "$smoketmp/crash2.log"
deadline=$(($(date +%s) + 60))
done=""
while [ "$(date +%s)" -lt "$deadline" ]; do
    curl -s -o "$smoketmp/crashpoll.json" "http://$addr/v1/jobs/$key?wait=1" || true
    if grep -q '"state":"done"' "$smoketmp/crashpoll.json"; then
        done=1
        break
    fi
    sleep 0.1
done
if [ -z "$done" ]; then
    echo "replayed job did not finish after restart:" >&2
    cat "$smoketmp/crashpoll.json" >&2
    cat "$smoketmp/crash2.log" >&2
    exit 1
fi
grep -q '"Cycles"' "$smoketmp/crashpoll.json" || {
    echo "replayed job carries no stats:" >&2
    cat "$smoketmp/crashpoll.json" >&2
    exit 1
}
# The done record is fsync'd just after the job state flips, so give
# statusz a moment to show the journal fully retired.
i=0
while [ $i -lt 20 ]; do
    curl -s -o "$smoketmp/crashstatusz.json" "http://$addr/statusz"
    grep -q '"pending":0' "$smoketmp/crashstatusz.json" && break
    sleep 0.1
    i=$((i + 1))
done
grep -q '"replayed":1' "$smoketmp/crashstatusz.json" || {
    echo "statusz does not report the journal replay:" >&2
    cat "$smoketmp/crashstatusz.json" >&2
    exit 1
}
grep -q '"pending":0' "$smoketmp/crashstatusz.json" || {
    echo "journal still has pending records after the job finished:" >&2
    cat "$smoketmp/crashstatusz.json" >&2
    exit 1
}

drain_daemon gserved "$smokepid" "$smoketmp/crash2.log"

echo "== gsched fleet smoke (2 workers, kill -9 one mid-sweep, byte-identical results)"
# Start a coordinator over two workers sharing a checkpoint directory,
# submit a four-job sweep whose first two jobs run for seconds, kill -9
# one worker while both are mid-job, and verify that every job still
# reaches done with stats byte-identical to a fresh single-node run.
command -v jq >/dev/null 2>&1 || {
    echo "fleet smoke needs jq for the byte-identical stats comparison" >&2
    exit 1
}
go build -o "$smoketmp/gsched" ./cmd/gsched

start_fleet_worker() { # $1 = log file, $2 = cache dir
    start_daemon gserved "$1" \
        "$smoketmp/gserved" -addr 127.0.0.1:0 -cachedir "$2" \
        -checkpoint-dir "$smoketmp/fleetckpt" -checkpoint-stride 20000
}

start_fleet_worker "$smoketmp/w1.log" "$smoketmp/fleetcache1"
w1pid=$daemon_pid
w1addr=$daemon_addr
start_fleet_worker "$smoketmp/w2.log" "$smoketmp/fleetcache2"
w2addr=$daemon_addr

start_daemon gsched "$smoketmp/gsched.log" \
    "$smoketmp/gsched" -addr 127.0.0.1:0 -lease 1s \
    -worker "http://$w1addr" -worker "http://$w2addr" \
    -journal "$smoketmp/fleetjournal.jsonl"
schedpid=$daemon_pid
schedaddr=$daemon_addr

# The first two jobs take ~5s each, so with one slot per worker both
# workers are mid-job when the kill lands.
sweep='{"jobs":[{"workload":"hotspot","scale":2},{"workload":"stencil","scale":2},{"workload":"sgemm","scale":2},{"workload":"gaussian","scale":2}]}'
code=$(curl -s -o "$smoketmp/sweep.json" -w '%{http_code}' \
    -X POST "http://$schedaddr/v1/sweeps" -d "$sweep")
if [ "$code" != 200 ]; then
    echo "gsched sweep submit: HTTP $code" >&2
    cat "$smoketmp/sweep.json" >&2
    exit 1
fi
if [ "$(jq -r '.rejected // 0' "$smoketmp/sweep.json")" != 0 ]; then
    echo "gsched sweep rejected jobs:" >&2
    cat "$smoketmp/sweep.json" >&2
    exit 1
fi
keys=$(jq -r '.jobs[].key' "$smoketmp/sweep.json")

sleep 0.7
kill -9 "$w1pid"
wait "$w1pid" 2>/dev/null || true

# Every job must still reach done (shared 120s budget across the sweep;
# the survivor re-runs the orphan, resuming from its checkpoint trail).
# Each request is a held wait on the coordinator; the loop covers a hold
# that runs out before the requeued job is through.
deadline=$(($(date +%s) + 120))
for key in $keys; do
    jobdone=""
    while [ "$(date +%s)" -lt "$deadline" ]; do
        curl -s -o "$smoketmp/fleetjob_$key.json" \
            "http://$schedaddr/v1/jobs/$key?wait=1" || true
        if grep -q '"state":"done"' "$smoketmp/fleetjob_$key.json"; then
            jobdone=1
            break
        fi
        if grep -q '"state":"failed"' "$smoketmp/fleetjob_$key.json"; then
            break
        fi
        sleep 0.1
    done
    if [ -z "$jobdone" ]; then
        echo "fleet job $key did not finish after the worker kill:" >&2
        cat "$smoketmp/fleetjob_$key.json" >&2
        cat "$smoketmp/gsched.log" >&2
        exit 1
    fi
done

# The coordinator must have noticed the death and requeued the orphan,
# and the queue journal must be fully retired once everything is done.
i=0
while [ $i -lt 50 ]; do
    curl -s -o "$smoketmp/fleetstatusz.json" "http://$schedaddr/statusz"
    jq -e '.journal.pending == 0' "$smoketmp/fleetstatusz.json" >/dev/null && break
    sleep 0.1
    i=$((i + 1))
done
jq -e '.worker_deaths >= 1 and .requeues >= 1 and .completed == 4 and .journal.pending == 0' \
    "$smoketmp/fleetstatusz.json" >/dev/null || {
    echo "gsched statusz does not reflect the worker death and recovery:" >&2
    cat "$smoketmp/fleetstatusz.json" >&2
    exit 1
}

# Ground truth: a fresh single-node gserved (cold cache, no
# checkpoints) must produce byte-identical stats for every job.
start_daemon gserved "$smoketmp/base.log" \
    "$smoketmp/gserved" -addr 127.0.0.1:0 -cachedir "$smoketmp/fleetcache3"
baseaddr=$daemon_addr

n=0
for key in $keys; do
    job=$(jq -c ".jobs[$n]" "$smoketmp/sweep.json" |
        jq -c '{workload: .workload, scale: .scale}')
    code=$(curl -s -o "$smoketmp/basejob_$key.json" -w '%{http_code}' \
        -X POST "http://$baseaddr/v1/jobs?wait=1" -d "$job")
    if [ "$code" != 200 ]; then
        echo "baseline submit for $job: HTTP $code" >&2
        cat "$smoketmp/basejob_$key.json" >&2
        exit 1
    fi
    jq -S '.stats' "$smoketmp/fleetjob_$key.json" >"$smoketmp/fleet_$key.stats"
    jq -S '.stats' "$smoketmp/basejob_$key.json" >"$smoketmp/base_$key.stats"
    if ! grep -q '"Cycles"' "$smoketmp/fleet_$key.stats"; then
        echo "fleet job $key carries no stats:" >&2
        cat "$smoketmp/fleetjob_$key.json" >&2
        exit 1
    fi
    if ! cmp -s "$smoketmp/fleet_$key.stats" "$smoketmp/base_$key.stats"; then
        echo "fleet stats for $key differ from the single-node run:" >&2
        diff "$smoketmp/fleet_$key.stats" "$smoketmp/base_$key.stats" >&2 || true
        exit 1
    fi
    n=$((n + 1))
done

# SIGTERM must drain the coordinator cleanly.
drain_daemon gsched "$schedpid" "$smoketmp/gsched.log"

echo "ok"
