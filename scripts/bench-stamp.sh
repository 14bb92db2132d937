#!/usr/bin/env sh
# Print the tree stamp that scripts/bench.sh writes into
# benchmarks/latest.txt and scripts/bench-compare.sh checks: the HEAD
# commit and a checksum of the uncommitted Go changes (tracked edits,
# staged or not, and untracked .go files), so that a latest.txt measured
# on another tree reads as stale.
set -eu

cd "$(dirname "$0")/.."

commit=$(git rev-parse HEAD 2>/dev/null || echo none)
digest=$({
    git diff HEAD -- '*.go' go.mod go.sum
    git ls-files --others --exclude-standard -- '*.go' | while read -r f; do
        echo "$f"
        cat "$f"
    done
} 2>/dev/null | cksum | cut -d ' ' -f 1)
echo "$commit $digest"
