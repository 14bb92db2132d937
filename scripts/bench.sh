#!/usr/bin/env sh
# Run the benchmark suite and record results in benchmarks/latest.txt.
#
# Environment:
#   BENCH_PATTERN  regexp of benchmarks to run   (default: all)
#   BENCH_TIME     -benchtime value              (default: 1s)
#   BENCH_COUNT    -count value                  (default: 1)
set -eu

cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-.}"
TIME="${BENCH_TIME:-1s}"
COUNT="${BENCH_COUNT:-1}"

mkdir -p benchmarks
OUT=benchmarks/latest.txt

# The first line stamps the tree the results were measured on, which
# scripts/bench-compare.sh checks before it trusts them.
STAMP=$(scripts/bench-stamp.sh)
echo "running benchmarks (pattern=$PATTERN benchtime=$TIME count=$COUNT)..."
{
    echo "# tree: $STAMP"
    go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$TIME" -count "$COUNT" ./...
} | tee "$OUT"

echo ""
echo "wrote $OUT"
echo "review, then run scripts/bench-update.sh to promote as the baseline"
