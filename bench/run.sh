#!/usr/bin/env bash
# The one command. With arguments it runs one workload once:
#   bench/run.sh --workload sim_memory --seed 3 --seconds 32 --trace 0
# Without arguments it runs the whole benchmark: every workload untraced
# and traced on seed 1, then sim_compute and serve_jobs on the held-out
# seed 2. Other modes: -aa N (A/A check over N seeds), -record-golden.
#
# It builds the benchmark and the two daemons from source first; the
# build is not inside any timed region. Everything it writes, the Go
# build cache included, stays under bench/out.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o out/ . gpushare/cmd/gserved gpushare/cmd/gsched

if [ $# -gt 0 ]; then
	exec out/bench "$@"
fi
for w in sim_compute sim_memory sim_modes serve_jobs; do
	out/bench -workload "$w" -trace 0
	out/bench -workload "$w" -trace 1
done
for w in sim_compute serve_jobs; do
	out/bench -workload "$w" -seed 2 -trace 0
done
