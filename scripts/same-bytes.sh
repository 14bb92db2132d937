#!/usr/bin/env sh
# Check that the working tree's command-line tools print the same bytes
# as a base commit's on the five paper designs and one generated design.
#
# Usage: scripts/same-bytes.sh [BASE_REF]    (BASE_REF defaults to HEAD)
#
# The script checks BASE_REF out in a temporary git worktree and builds
# cmd/bistpath, cmd/paperbench, cmd/dfgen and scripts/normjson there and
# in the working tree. It runs every command of the list below once with each
# build, each side in its own scratch directory with its own binaries
# first on PATH, and compares each command's stdout and exit status. A
# command that writes a file prints it (sim -vcd), so the file is
# compared too. Multi-design JSON results go through normjson, which
# strips the wall times that Stats carries by design and re-marshals
# with sorted keys; single-design documents keep their layout and only
# have their *_ns values zeroed. Help text goes to stderr, so those
# commands fold stderr in. Last, the working tree's `paperbench
# -objective` must match testdata/paperbench.objective.golden. The script
# prints one line per command and exits 1 when any command's output
# differs, naming each such command.
#
# The list holds behaviour that a refactor must keep. A change that
# alters output on purpose fails here on the commands it alters, which
# is why this script is a review aid and not a CI gate.
set -eu

cd "$(dirname "$0")/.."
BASE_REF="${1:-HEAD}"
tmp=$(mktemp -d)
# Clean up on exit; an interrupt ends the script before it can compare
# partial results.
trap 'git worktree remove --force "$tmp/src" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
git worktree add --quiet --detach "$tmp/src" "$BASE_REF"
for side in base head; do
    src=.
    [ "$side" = base ] && src="$tmp/src"
    mkdir -p "$tmp/$side/bin" "$tmp/$side/run"
    (cd "$src" && go build -o "$tmp/$side/bin/" ./cmd/bistpath ./cmd/paperbench ./cmd/dfgen ./scripts/normjson)
done

designs="ex1 ex2 tseng1 tseng2 paulin"
inputs=a=1,b=2,c=3,d=4,e=5,f=6,g=7
{
    for obj in area weighted pareto; do
        echo "bistpath synth -bench all -json -objective $obj | normjson"
    done
    echo "bistpath synth -bench all -json -mode traditional | normjson"
    # A single design's document is printed as Result.JSON writes it, so
    # these see its key order, indentation, number format and escaping;
    # only the wall times are zeroed.
    zerons='sed -E '\''s/("[a-z_]+_ns": )[0-9]+/\10/'\'
    for d in $designs; do
        for obj in area weighted pareto; do
            printf '%s\n' "bistpath synth -bench $d -json -objective $obj | $zerons"
        done
        printf '%s\n' "bistpath synth -bench $d -json -mode traditional | $zerons"
    done
    echo "bistpath synth -bench all"
    for d in $designs; do
        echo "bistpath synth -bench $d -trace -gantt -netlist -dot"
        echo "bistpath emit -bench $d -format rtl"
        echo "bistpath emit -bench $d -format gates"
        echo "bistpath emit -bench $d -format gates -controller"
        echo "bistpath gatesim -bench $d"
        echo "bistpath cover -bench $d"
    done
    echo "bistpath sim -bench ex1 -inputs $inputs"
    echo "bistpath sim -bench ex1 -inputs $inputs -vcd run.vcd && cat run.vcd"
    # A generated design under automatic module binding (no module map).
    for mode in testable traditional; do
        echo "dfgen -preset m -seed 2 > m2.dfg && bistpath synth -dfg m2.dfg -netlist -mode $mode"
    done
    printf '%s\n' "dfgen -preset m -seed 2 > m2.dfg && bistpath synth -dfg m2.dfg -json | $zerons"
    echo "bistpath verify -bench all"
    echo "bistpath verify -bench all -json"
    for t in "-table 1" "-table 2" "-table 3" -ablation -objective \
        "-fig 1" "-fig 2" "-fig 3" "-fig 4" "-fig 5" "-fig 6" \
        -scale -sessions -widths -scan -optimality -atpg; do
        echo "paperbench $t"
    done
    echo "bistpath help 2>&1"
    for c in synth sim cover emit gatesim schedule verify; do
        echo "bistpath $c -h 2>&1"
    done
} > "$tmp/commands"

fail=0
while IFS= read -r cmd; do
    for side in base head; do
        status=0
        (cd "$tmp/$side/run" && PATH="$tmp/$side/bin:$PATH" sh -c "$cmd" </dev/null) \
            > "$tmp/$side/out" 2>/dev/null || status=$?
        echo "exit $status" >> "$tmp/$side/out"
    done
    if cmp -s "$tmp/base/out" "$tmp/head/out"; then
        printf 'same     %s\n' "$cmd"
    else
        printf 'DIFFERS  %s\n' "$cmd"
        fail=1
    fi
done < "$tmp/commands"

if "$tmp/head/bin/paperbench" -objective | cmp -s - testdata/paperbench.objective.golden; then
    echo "same     paperbench -objective vs testdata/paperbench.objective.golden"
else
    echo "DIFFERS  paperbench -objective vs testdata/paperbench.objective.golden"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "FAIL: output differs from $BASE_REF"
    exit 1
fi
echo "PASS: every command matches $BASE_REF"
