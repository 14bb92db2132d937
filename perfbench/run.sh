#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload paper-flow --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the trace files all live under
# .bench_build/ in the working directory, so a run writes nothing outside
# the checkout. A failed build exits non-zero before anything is printed
# on standard output.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
