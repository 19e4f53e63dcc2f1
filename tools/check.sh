#!/bin/sh
# Pre-PR gate: vet + formatting + build + race-checked tests for the
# concurrency-bearing packages (the runner's worker pool / singleflight,
# the session layer, the gserved daemon + client — including the
# admission-saturation test — and five simulations run side by side, two each,
# which share no live state), guards that internal/gpu still has one cycle loop,
# that internal/ + cmd/ still have one job lifecycle (one definition of
# each shared route, body decoder, JSON writer and journal open),
# that internal/harness still plans by enumeration (no recording pass),
# that a tenant's blocks are priced by one rule (core.Footprint: no cap
# ledger, no second pair-cost formula), that one function does atomic
# file writes, that a table has one renderer (Table.Markdown: no text
# renderer, no -md flag), that every workload proxy declares its shape
# (no grid-per-scale literal; the footprint reaches a kernel through
# Spec.program alone), that no scheduler view is patched in place
# (no patchView, no WaitingLong in internal/), that the SM's issue
# stage keeps one shortcut (the census class masks: no issue cards, no
# card hit path, no census replay, no walked-verdict buffer), that a global load is its warp's register (no load group, no
# pointer in a writeback event or an L1 MSHR key), that each cycle-path
# delay has one timer (no writeback overflow map, no private relaunch
# ring, no legacy journal import), that kernel text has one syntax
# (internal/isa's opcode table: no second name table, printer or
# disassembler, no dotted mnemonic literal elsewhere), that the memory side
# skips nothing (no partition horizon, no DRAM next-event memo), and
# that no pool, map-keyed MSHR or any-typed payload is back on the
# memory path, EXPERIMENTS.md below its
# generated marker (gexp -exp all -scale 2 -paper, byte-identical; the
# one golden of the paper's tables, regenerated at -j 1 too under
# -full), under -full the FSIN/FEXP
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
# byte-identical to a single-node run), and last the benchmark smoke's
# ns/op and allocs/op gate (tools/bench.sh -quick).
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

echo "== one footprint rule (core.Footprint is the only pricing of a tenant's blocks; no cap ledger, no per-tenant caps, no second pair-cost formula, one fit check)"
nontest_go=$(find . -name '*.go' ! -name '*_test.go')
hits=$(grep -n -E 'PairQuantum|pairTop|usedRegs|usedSmem|CorruptTenantCap' $nontest_go | grep -v ':[[:space:]]*//' || true)
[ -z "$hits" ] || { echo "a second footprint formula or a booked cap ledger is back:" >&2; echo "$hits" >&2; exit 1; }
hits=$(grep -n -E 'CapRegs|CapSmem|capRegs|capSmem|checkCaps' $nontest_go || true)
[ -z "$hits" ] || { echo "per-tenant caps are back (the SM checks its own capacity once, in NewMulti):" >&2; echo "$hits" >&2; exit 1; }
hits=$(grep -n 'Baseline == 0' $(find internal -name '*.go' ! -name '*_test.go') || true)
[ "$(printf '%s' "$hits" | grep -c .)" -le 1 ] || { echo "more than one site decides whether a kernel fits an SM alone:" >&2; echo "$hits" >&2; exit 1; }
n=$(cat $nontest_go | grep -c 'func Footprint(' || true)
[ "$n" = 1 ] || { echo "$n definitions of func Footprint(, want 1" >&2; exit 1; }
for pkg in internal/tenancy internal/smcore; do
    n=$(cat $(ls $pkg/*.go | grep -v _test.go) | grep -c 'core\.Footprint(' || true)
    [ "$n" -ge 1 ] || { echo "$pkg no longer prices through core.Footprint" >&2; exit 1; }
done
hits=$(grep -n -E '\b[cC]fg\.T\b' $(ls internal/tenancy/*.go internal/smcore/*.go internal/gpu/*.go | grep -v _test.go) || true)
[ -z "$hits" ] || { echo "the sharing threshold is read outside internal/core (a second pair-cost formula?):" >&2; echo "$hits" >&2; exit 1; }
echo "   non-test Go lines in internal/{core,tenancy,smcore}: $(cat $(ls internal/core/*.go internal/tenancy/*.go internal/smcore/*.go | grep -v _test.go) | wc -l)"

echo "== no memory skip (every partition and every DRAM channel ticks every cycle; an empty channel returns at once)"
hits=$(grep -n -E 'SetEventDriven|refreshHorizon|NextReadyPort|armMemSleep|memoNext|memoOK|DelayMemo|AuditMemo|MissedMemWake|schedulableAt' $(find internal -name '*.go' ! -name '*_test.go') || true)
[ -z "$hits" ] || { echo "a memory-side skip is back (partition horizons, their arming, or the DRAM next-event memo):" >&2; echo "$hits" >&2; exit 1; }
echo "   non-test Go lines in internal/{mem,gpu,invariant,fault}: $(cat $(find internal/mem internal/gpu internal/invariant internal/fault -name '*.go' ! -name '*_test.go') | wc -l)"

echo "== scheduler views move only at markDirty events (no in-place view patch; the two-level policy reads load state live)"
hits=$(grep -n -E 'patchView|WaitingLong' $(find internal -name '*.go' ! -name '*_test.go') || true)
[ -z "$hits" ] || { echo "an in-place scheduler-view patch or a cached WaitingLong is back:" >&2; echo "$hits" >&2; exit 1; }
echo "   non-test Go lines in internal/{sched,smcore}: $(cat $(ls internal/sched/*.go internal/smcore/*.go | grep -v _test.go) | wc -l)"

echo "== one SM shortcut (the per-scheduler census class masks are the issue stage's only cache: no issue cards, no census replay, no walked-verdict buffer)"
go_src=$(find internal cmd -name '*.go' ! -name '*_test.go')
hits=$(grep -n -E 'issueCard|cardVerdict|classAt\(' $go_src || true)
[ -z "$hits" ] || { echo "a per-warp issue card or its hit path is back:" >&2; echo "$hits" >&2; exit 1; }
# Code lines only: "walked" is an ordinary word in a comment.
hits=$(grep -n -E 'replayCensus|takeCensus|\bwalked\b|\[\]verdict\b' $go_src | grep -v ':[[:space:]]*//' || true)
[ -z "$hits" ] || { echo "a census replay or a walked-verdict buffer is back (the class masks are the one fast path):" >&2; echo "$hits" >&2; exit 1; }
echo "   non-test Go lines in internal/{smcore,sched}: $(cat $(ls internal/smcore/*.go | grep -v _test.go) | wc -l) + $(cat $(ls internal/sched/*.go | grep -v _test.go) | wc -l)"

echo "== a global load is its warp's register (no load group; the writeback wheel and the L1 MSHR hold values, not pointers)"
sm_src=$(ls internal/smcore/*.go | grep -v _test.go)
hits=$(grep -n -E '\bloadGroup\b|LineTable\[ *\*' $sm_src | grep -v ':[[:space:]]*//' || true)
[ -z "$hits" ] || { echo "internal/smcore: a load group or a pointer-keyed L1 MSHR is back:" >&2; echo "$hits" >&2; exit 1; }
# The field lines of wbEvent, comments stripped: no pointer, nor a type
# that carries one.
fields=$(awk '/^type wbEvent struct/ { in_ev = 1; next } in_ev && /^}/ { in_ev = 0 } in_ev' $sm_src | sed 's://.*$::')
[ -n "$fields" ] || { echo "internal/smcore: no wbEvent struct found" >&2; exit 1; }
hits=$(printf '%s\n' "$fields" | grep -E '\*|\[\]|map\[|chan |func|interface|\bany\b|\bstring\b' || true)
[ -z "$hits" ] || { echo "internal/smcore: wbEvent holds a pointer again (the wheel arena is meant to be pointer-free):" >&2; echo "$hits" >&2; exit 1; }

echo "== one timer per delay (the writeback wheel has no overflow map, the relaunch queue is an icnt.Network, the journal has no legacy import)"
hits=$(grep -n -E 'nextOverflow|overflow[[:space:]]+map\[|overflow[[:space:]]*=[[:space:]]*make\(map' $sm_src | grep -v ':[[:space:]]*//' || true)
[ -z "$hits" ] || { echo "internal/smcore: the writeback wheel has a second timer again (every deadline lies inside its span):" >&2; echo "$hits" >&2; exit 1; }
gpu_src=$(ls internal/gpu/*.go | grep -v _test.go)
hits=$(grep -n -F '&(len(' $gpu_src | grep -v ':[[:space:]]*//' || true)
if [ -e internal/gpu/launchq.go ] || [ -n "$hits" ]; then
    echo "internal/gpu: a private ring buffer is back (a fixed-latency FIFO is an icnt.Network):" >&2
    [ ! -e internal/gpu/launchq.go ] || echo "internal/gpu/launchq.go" >&2
    [ -z "$hits" ] || echo "$hits" >&2
    exit 1
fi
hits=$(grep -n 'importLegacy' $(ls internal/wal/*.go | grep -v _test.go) || true)
[ -z "$hits" ] || { echo "internal/wal: the legacy journal import is back (a -journal path is a record directory):" >&2; echo "$hits" >&2; exit 1; }
echo "   non-test Go lines in internal/{smcore,gpu,config,wal}: $(cat $sm_src $gpu_src $(ls internal/config/*.go internal/wal/*.go | grep -v _test.go) | wc -l)"

echo "== one kernel syntax (internal/isa owns every mnemonic and operand form; internal/asm keeps only directives, labels and operand lexing)"
hits=$(grep -n -E 'opsByName|cmpsByName|specialsByName|printInstr|func .*Disassemble\(' $nontest_go | grep -v ':[[:space:]]*//' || true)
[ -z "$hits" ] || { echo "a second kernel-text name table, printer or disassembler is back (isa's opcode table and (*isa.Instr).String are the syntax):" >&2; echo "$hits" >&2; exit 1; }
hits=$(grep -n -E '"((ld|st)\.(global|shared|param)|bar\.sync)"' $(printf '%s\n' $nontest_go | grep -v '^\./internal/isa/') | grep -v ':[[:space:]]*//' || true)
[ -z "$hits" ] || { echo "a dotted mnemonic literal outside internal/isa (name an opcode through isa.Opcode or isa.OpcodeByName):" >&2; echo "$hits" >&2; exit 1; }
echo "   non-test Go lines in internal/{isa,asm,kernel}: $(cat $(ls internal/isa/*.go internal/asm/*.go internal/kernel/*.go | grep -v _test.go) | wc -l)"

echo "== one atomic write (checkpoint.WriteFileAtomic is the only temp-file rename in non-test Go)"
n=$(cat $nontest_go | grep -v '^[[:space:]]*//' | grep -c 'os\.Rename(' || true)
[ "$n" = 1 ] || { echo "$n call sites of os.Rename(, want 1 (a hand-rolled atomic write coming back?)" >&2; exit 1; }

echo "== one table renderer (Table.Markdown is the only rendering of a table; no text renderer, no -md flag)"
hits=$(grep -n -E 'FormatPaper|func \(t \*Table\) Format\(|"md"' $nontest_go | grep -v ':[[:space:]]*//' || true)
[ -z "$hits" ] || { echo "a second table renderer or output-format flag is back:" >&2; echo "$hits" >&2; exit 1; }

echo "== proxies declare their shape (no grid-per-scale literal in internal/workloads; the footprint reaches a kernel only through Spec.program)"
wl_src=$(ls internal/workloads/*.go | grep -v _test.go)
hits=$(grep -n -E '\b[0-9]+ *\* *scale\b|\bscale *\* *[0-9]+' $wl_src | grep -v ':[[:space:]]*//' || true)
[ -z "$hits" ] || { echo "internal/workloads: a grid-per-scale literal is back (declare the grid in the proxy's Shape):" >&2; echo "$hits" >&2; exit 1; }
hits=$(grep -n -E 'NewBuilder\(|SetRegs\(|SetSmem\(' $wl_src | grep -v ':[[:space:]]*//' || true)
if [ "$(printf '%s\n' "$hits" | grep -c .)" != 1 ] || ! printf '%s\n' "$hits" | grep -q 's\.BlockDim).*SetRegs(s\.RegsPerThread).*SetSmem(s\.SmemPerBlock)'; then
    echo "internal/workloads: a footprint is declared outside Spec.program (the Spec's BlockDim/RegsPerThread/SmemPerBlock are its only copy):" >&2
    echo "$hits" >&2
    exit 1
fi
echo "   non-test Go lines in internal/workloads: $(cat $wl_src | wc -l)"

echo "== EXPERIMENTS.md (below its generated marker: gexp -exp all -scale 2 -paper, byte for byte; ~2 min on 2 CPUs)"
# -strict turns a failed simulation into a failed gate rather than a
# zeroed cell; with no failure its output is the marker command's.
go build -o "$smoketmp/gexp" ./cmd/gexp
marker='<!-- generated: go run ./cmd/gexp -exp all -scale 2 -paper (do not edit below) -->'
grep -qxF -- "$marker" EXPERIMENTS.md || { echo "EXPERIMENTS.md has no line '$marker'" >&2; exit 1; }
sed '1,/^<!-- generated: /d' EXPERIMENTS.md >"$smoketmp/experiments_md.txt"
"$smoketmp/gexp" -exp all -scale 2 -paper -strict >"$smoketmp/gexp_md.txt"
cmp "$smoketmp/gexp_md.txt" "$smoketmp/experiments_md.txt" || {
    echo "EXPERIMENTS.md is stale below its marker; regenerate it with the command in its preamble" >&2
    exit 1
}
if [ -z "$short" ]; then
    echo "== EXPERIMENTS.md, sequential (-j 1: the whole suite's tables equal the parallel sweep's; ~3 min on 2 CPUs)"
    "$smoketmp/gexp" -exp all -scale 2 -paper -strict -j 1 >"$smoketmp/gexp_md_j1.txt"
    cmp "$smoketmp/gexp_md_j1.txt" "$smoketmp/experiments_md.txt"
fi

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

echo "== go test -race (concurrent simulations share no live state; a run starts no goroutine)"
go test -race -run 'TestConcurrentRunsIndependent|TestRunSpawnsNoGoroutines|TestLaunchQueue' ./internal/gpu/

echo "== bench module (outside the root module: surface + golden tests of bench/)"
(cd bench && go test ./...)

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

echo "== two-level against the reference at stride 1, un-short"
# Only the two-level policy ranks on load state, which an issue or a
# load completion moves without re-snapshotting the warp: at stride 1 a
# ranking input left stale fails on the cycle it goes stale, not 256
# cycles later.
go test -count=1 -run 'TestCensusExact/two-level' ./internal/gpu/

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
        -journal "$smoketmp/journal" \
        -checkpoint-dir "$smoketmp/ckpt" -checkpoint-stride 20000
    smokepid=$daemon_pid
    addr=$daemon_addr
}

start_crash_daemon "$smoketmp/crash1.log"
code=$(curl -s -o "$smoketmp/crashjob.json" -w '%{http_code}' \
    -X POST "http://$addr/v1/jobs" \
    -d '{"workload":"hotspot","scale":8}')
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
# couple of seconds — hotspot at scale 8 runs ~2s alone, at scale 2 it
# finishes in ~0.6s, before the kill — so the kill lands inside it).
sleep 0.7
kill -9 "$smokepid"
wait "$smokepid" 2>/dev/null || true

# The write-ahead rule: the killed job's record must be durable (a
# retired job's record is removed, so this also says it was not retired).
[ -f "$smoketmp/journal/$key" ] || {
    echo "journal has no record for the killed job $key:" >&2
    ls -la "$smoketmp/journal" >&2
    exit 1
}

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
if [ -e "$smoketmp/journal/$key" ]; then
    echo "the finished job's journal record was not removed" >&2
    exit 1
fi

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
    -journal "$smoketmp/fleetjournal"
schedpid=$daemon_pid
schedaddr=$daemon_addr

# The first two jobs take ~2s each alone (hotspot and stencil at scale
# 8; at scale 2 they finish in ~0.6s, before the kill), so with one
# slot per worker both workers are mid-job when the kill lands.
sweep='{"jobs":[{"workload":"hotspot","scale":8},{"workload":"stencil","scale":8},{"workload":"sgemm","scale":2},{"workload":"gaussian","scale":2}]}'
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

# The two long jobs are mid-run on the workers, one of them on the
# killed one: the coordinator's journal must still hold both records.
for key in $(echo "$keys" | head -2); do
    [ -f "$smoketmp/fleetjournal/$key" ] || {
        echo "gsched journal has no record for in-flight job $key:" >&2
        ls -la "$smoketmp/fleetjournal" >&2
        exit 1
    }
done

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
for key in $keys; do
    if [ -e "$smoketmp/fleetjournal/$key" ]; then
        echo "gsched journal still holds a record for finished job $key" >&2
        exit 1
    fi
done

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

# Last: its ns/op rows read a loaded host's noise as regressions, so a
# failure here must not skip the deterministic legs above. It still
# fails the gate (set -e).
echo "== benchmark smoke + allocs/op gate (tools/bench.sh -quick)"
./tools/bench.sh -quick

echo "ok"
