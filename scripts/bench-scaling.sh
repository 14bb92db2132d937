#!/usr/bin/env sh
# Run the BIST search scaling suite, gate it against the pinned grid in
# benchmarks/BENCH_scaling.json and schema-check the output with
# scripts/jsoncheck.
#
#   scripts/bench-scaling.sh           full grid (all presets, seeds 1-6)
#   scripts/bench-scaling.sh -quick    CI grid (presets s/m/l, seed 1)
#   scripts/bench-scaling.sh -update   full grid, written over the pins
#
# The gated runs write benchmarks/scaling-latest.json, never the pins.
# The underlying tool (scripts/scalingbench) exits non-zero when a row
# breaks its pin: a proved row that loses its proof or its area, an
# unproved row that gets costlier, or a row whose search_nodes rises.
# The document is written either way so CI can upload it as an
# artifact. -update regenerates the pins ungated and replaces them only
# when the run succeeds; explain the diff in the change that commits it.
set -eu

cd "$(dirname "$0")/.."

PINS=benchmarks/BENCH_scaling.json
usage() { echo "usage: $0 [-quick | -update]" >&2; exit 2; }

quick=0
update=0
for arg in "$@"; do
    case "$arg" in
        -quick) quick=1 ;;
        -update) update=1 ;;
        *) usage ;;
    esac
done

if [ "$update" -eq 1 ]; then
    [ "$quick" -eq 0 ] || usage
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    go run ./scripts/scalingbench > "$tmp"
    go run ./scripts/jsoncheck -kind scaling < "$tmp"
    cp "$tmp" "$PINS"
    echo "wrote $PINS"
    exit 0
fi

OUT=benchmarks/scaling-latest.json
ARGS="-pins $PINS"
[ "$quick" -eq 0 ] || ARGS="$ARGS -quick"
status=0
# shellcheck disable=SC2086
go run ./scripts/scalingbench $ARGS > "$OUT" || status=$?
go run ./scripts/jsoncheck -kind scaling < "$OUT"
echo "wrote $OUT"
exit $status
