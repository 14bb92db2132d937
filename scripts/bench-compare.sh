#!/usr/bin/env sh
# Compare benchmark results and fail when a benchmark regressed.
#
# allocs/op and B/op are deterministic per Go version, so they gate
# against the committed benchmarks/baseline.txt: a benchmark fails when
# either exceeds its baseline by more than BENCH_MAX_ALLOC_REGRESSION_PCT
# (default: 5). Tiny benchmarks get an absolute floor
# (BENCH_ALLOC_ABS_FLOOR allocs, default 8): a change within the floor
# never fails, so a one-alloc wobble on a 5-alloc benchmark does not
# read as a 20% regression.
#
# ns/op moves with the machine and its load, so a stored baseline
# cannot gate it; it gates only against a base commit run on the same
# machine. With BENCH_BASE_REF set to a git ref, the script checks that
# ref out in a temporary git worktree and builds each side's test binary
# once for every package that defines benchmarks. Then, for BENCH_COUNT
# rounds (default: 5), it runs every benchmark on the base and on the
# working tree back to back, switching which side goes first every
# round, so both sides see the same load. A benchmark's ns/op regressed
# when its minimum over the head rounds exceeds its minimum over the
# base rounds by more than its noise floor: the larger of
# BENCH_MAX_REGRESSION_PCT (default: 5) and the base's own spread
# (slowest over fastest base round), so a regression must also be
# slower than every base round. A benchmark that fails this check runs
# BENCH_COUNT more rounds and is judged on all of them, so one unlucky
# draw of rounds does not fail the comparison. A benchmark the base
# lacks is reported as new. The head rounds become
# benchmarks/latest.txt, which the allocation gate reads. With a base
# ref, BENCH_PATTERN selects top-level benchmarks by name and BENCH_TIME
# sizes each run, as in scripts/bench.sh.
#
# Without BENCH_BASE_REF, the script runs no benchmark, so BENCH_PATTERN,
# BENCH_TIME and BENCH_COUNT do nothing: it checks the existing
# benchmarks/latest.txt (from scripts/bench.sh) against baseline.txt on
# allocs/op and B/op only. It first refuses ("stale: run
# scripts/bench.sh") a latest.txt whose tree stamp
# (scripts/bench-stamp.sh: the commit and a checksum of the uncommitted
# Go changes) does not match the working tree, so an old file cannot
# pass or fail for code it never measured.
#
# Benchmarks present in only one of latest.txt and baseline.txt are
# reported per benchmark and recapped in explicit "ADDED"/"REMOVED"
# summary lines. A REMOVED benchmark additionally warns on stderr — a
# benchmark vanishing from latest.txt is usually a broken build tag or an
# accidental rename, not an intended drop — and fails the comparison
# when BENCH_FAIL_ON_REMOVED is set to a non-zero value (CI sets it).
set -eu

cd "$(dirname "$0")/.."

BASELINE=benchmarks/baseline.txt
LATEST=benchmarks/latest.txt
MAX_PCT="${BENCH_MAX_REGRESSION_PCT:-5}"
MAX_ALLOC_PCT="${BENCH_MAX_ALLOC_REGRESSION_PCT:-5}"
ALLOC_FLOOR="${BENCH_ALLOC_ABS_FLOOR:-8}"
FAIL_ON_REMOVED="${BENCH_FAIL_ON_REMOVED:-0}"
BASE_REF="${BENCH_BASE_REF:-}"
TREE=$(scripts/bench-stamp.sh)
PATTERN="${BENCH_PATTERN:-.}"
TIME="${BENCH_TIME:-1s}"
COUNT="${BENCH_COUNT:-5}"

if [ ! -f "$BASELINE" ]; then
    echo "no $BASELINE - nothing to compare (run scripts/bench-update.sh to create one)"
    exit 0
fi

# compare MODE: with MODE report, print every benchmark's comparison and
# exit 1 on a regression; with MODE suspects, print only the names of
# the top-level benchmarks whose ns/op regressed.
compare() {
    awk -v mode="$1" -v max_pct="$MAX_PCT" -v max_alloc_pct="$MAX_ALLOC_PCT" \
        -v alloc_floor="$ALLOC_FLOOR" -v fail_removed="$FAIL_ON_REMOVED" \
        -v baseline="$BASELINE" -v latest="$LATEST" -v base_runs="$BASE_RUNS" '
    # Benchmark result lines look like:
    #   BenchmarkSynthesizeAll/workers=4-8   123   456789 ns/op   2048 B/op   35 allocs/op
    /^Benchmark/ && / ns\/op/ {
        name = $1
        # Drop the -GOMAXPROCS suffix so baselines compare across
        # machines with different core counts (Go omits it when 1).
        sub(/-[0-9]+$/, "", name)
        nsop = ""; bop = ""; allocs = ""
        for (i = 2; i <= NF; i++) {
            if ($i == "ns/op")     nsop   = $(i - 1)
            if ($i == "B/op")      bop    = $(i - 1)
            if ($i == "allocs/op") allocs = $(i - 1)
        }
        if (FILENAME == baseline) {
            # The baseline: allocation averages over its -count runs.
            in_base[name] = 1
            if (bop != "")    { base_b[name] += bop;    base_bn[name]++ }
            if (allocs != "") { base_a[name] += allocs; base_an[name]++ }
        } else if (FILENAME == latest) {
            lat_ns[name] += nsop; lat_n[name]++
            if (!(name in lat_min) || nsop + 0 < lat_min[name]) lat_min[name] = nsop + 0
            if (bop != "")    { lat_b[name] += bop;    lat_bn[name]++ }
            if (allocs != "") { lat_a[name] += allocs; lat_an[name]++ }
        } else {
            # The base ref, run on this machine alongside latest.
            if (!(name in ref_min) || nsop + 0 < ref_min[name]) ref_min[name] = nsop + 0
            if (!(name in ref_max) || nsop + 0 > ref_max[name]) ref_max[name] = nsop + 0
        }
    }
    function pct(base, latest) { return base > 0 ? (latest - base) * 100 / base : 0 }
    function ns_regressed(name) {
        floor = pct(ref_min[name], ref_max[name])
        if (floor < max_pct) floor = max_pct
        dns = pct(ref_min[name], lat_min[name])
        return dns > floor
    }
    END {
        if (mode == "suspects") {
            # The top-level benchmarks whose ns/op looks regressed.
            for (name in lat_ns) {
                if (!(name in ref_min) || !ns_regressed(name)) continue
                top = name
                sub(/\/.*/, "", top)
                if (!(top in seen)) printf " %s", top
                seen[top] = 1
            }
            exit 0
        }
        fail = 0; added = 0; removed = 0
        for (name in lat_ns) {
            why = ""
            if (base_runs == "") {
                metrics = sprintf("%12.0f ns/op", lat_ns[name] / lat_n[name])
            } else if (name in ref_min) {
                if (ns_regressed(name)) why = "ns/op"
                metrics = sprintf("%12.0f -> %12.0f min ns/op  (%+.1f%%, floor %.1f%%)", ref_min[name], lat_min[name], dns, floor)
            } else {
                metrics = sprintf("%12s -> %12.0f min ns/op  (new)", "-", lat_min[name])
            }
            if (name in in_base) {
                if ((name in base_an) && (name in lat_an)) {
                    ab = base_a[name] / base_an[name]
                    al = lat_a[name] / lat_an[name]
                    da = pct(ab, al)
                    if (da > max_alloc_pct && al - ab > alloc_floor)
                        why = why == "" ? "allocs/op" : why ",allocs/op"
                    metrics = metrics sprintf("  %8.0f -> %8.0f allocs/op (%+.1f%%)", ab, al, da)
                }
                if ((name in base_bn) && (name in lat_bn)) {
                    bb = base_b[name] / base_bn[name]
                    bl = lat_b[name] / lat_bn[name]
                    db = pct(bb, bl)
                    # Scale the alloc floor to bytes (16 B per allowed alloc)
                    # so byte-sized wobble on tiny benchmarks passes too.
                    if (db > max_alloc_pct && bl - bb > alloc_floor * 16)
                        why = why == "" ? "B/op" : why ",B/op"
                    metrics = metrics sprintf("  %10.0f -> %10.0f B/op (%+.1f%%)", bb, bl, db)
                }
                status = "ok"
            } else {
                added++
                status = "ADDED"
            }
            if (why != "") {
                fail = 1
                printf "%-9s %-60s %s  [%s]\n", "REGRESSED", name, metrics, why
            } else {
                printf "%-9s %-60s %s\n", status, name, metrics
            }
        }
        for (name in in_base) {
            if (!(name in lat_ns)) {
                printf "REMOVED   %-60s (in baseline, not in latest)\n", name
                removed++
            }
        }
        if (added)   printf "\nADDED: %d benchmark(s) present only in latest (no baseline to compare)\n", added
        if (removed) {
            printf "%sREMOVED: %d benchmark(s) present only in baseline (dropped or renamed in latest)\n", added ? "" : "\n", removed
            printf "WARNING: %d benchmark(s) vanished from latest.txt:\n", removed > "/dev/stderr"
            for (name in in_base)
                if (!(name in lat_ns))
                    printf "  %s\n", name > "/dev/stderr"
            printf "  (intended? update the baseline with scripts/bench-update.sh)\n" > "/dev/stderr"
            if (fail_removed != "0" && fail_removed != "") {
                printf "\nFAIL: removed benchmark(s) with BENCH_FAIL_ON_REMOVED=%s\n", fail_removed
                exit 1
            }
        }
        gates = sprintf("%s%% allocs/op, B/op vs the baseline", max_alloc_pct)
        if (base_runs != "")
            gates = sprintf("the noise floor (at least %s%%) in min ns/op vs the base ref, or %s", max_pct, gates)
        if (fail) {
            printf "\nFAIL: regression beyond %s\n", gates
            exit 1
        }
        printf "\nPASS: no benchmark regressed beyond %s\n", gates
    }
' "$BASELINE" "$LATEST" ${BASE_RUNS:+"$BASE_RUNS"}
}

BASE_RUNS=
if [ -n "$BASE_REF" ]; then
    tmp=$(mktemp -d)
    # Clean up on exit; an interrupt ends the script before it can
    # compare partial results.
    trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
    trap 'exit 130' INT TERM
    git worktree add --quiet --detach "$tmp/base" "$BASE_REF"
    # One line per package that defines benchmarks: its import path,
    # then the names BENCH_PATTERN selects.
    go test -run '^$' -list '^Benchmark' ./... | awk -v pat="$PATTERN" '
        /^Benchmark/ && $1 ~ pat { names = names " " $1 }
        /^ok / { if (names != "") print $2 names; names = "" }' > "$tmp/list"
    n=0
    while read -r pkg names; do
        n=$((n + 1))
        go test -c -o "$tmp/head-$n.test" "$pkg"
        go list -f '{{.Dir}}' "$pkg" > "$tmp/head-$n.dir"
        # A package the base lacks (or cannot build) has no base binary;
        # its benchmarks are reported as new.
        (cd "$tmp/base" && go test -c -o "$tmp/base-$n.test" "$pkg" &&
            go list -f '{{.Dir}}' "$pkg" > "$tmp/base-$n.dir") 2>/dev/null || true
    done < "$tmp/list"
    # run SIDE N NAME OUT: one benchmark (with its sub-benchmarks) from
    # package N's test binary, run in the package directory as go test
    # does.
    run() {
        [ -x "$tmp/$1-$2.test" ] || return 0
        (cd "$(cat "$tmp/$1-$2.dir")" &&
            "$tmp/$1-$2.test" -test.run '^$' -test.bench "^$3\$" -test.benchtime "$TIME" \
                -test.benchmem -test.timeout 30m) | grep '^Benchmark' >> "$4" || true
    }
    # rounds FIRST LAST LIST: rounds FIRST..LAST of base and head back
    # to back over the benchmarks LIST names, switching which side goes
    # first every round.
    rounds() {
        r=$1
        while [ "$r" -le "$2" ]; do
            n=0
            while read -r pkg names; do
                n=$((n + 1))
                for name in $names; do
                    if [ $((r % 2)) -eq 1 ]; then
                        run base "$n" "$name" "$BASE_RUNS"
                        run head "$n" "$name" "$LATEST"
                    else
                        run head "$n" "$name" "$LATEST"
                        run base "$n" "$name" "$BASE_RUNS"
                    fi
                done
            done < "$3"
            echo "  round $r/$2 done"
            r=$((r + 1))
        done
    }
    BASE_RUNS="$tmp/base.txt"
    : > "$BASE_RUNS"
    mkdir -p benchmarks
    echo "# tree: $TREE" > "$LATEST"
    echo "benchmarking $BASE_REF (base) against the working tree (head), $COUNT alternating rounds (pattern=$PATTERN benchtime=$TIME)..."
    rounds 1 "$COUNT" "$tmp/list"
    # A benchmark whose ns/op looks regressed may have drawn unlucky
    # rounds: run it BENCH_COUNT more rounds and judge it on all of them.
    suspects=$(compare suspects)
    if [ -n "$suspects" ]; then
        echo "re-running$suspects..."
        awk -v s="$suspects " '{
            line = $1
            for (i = 2; i <= NF; i++) if (index(s, " " $i " ")) line = line " " $i
            print line }' "$tmp/list" > "$tmp/recheck"
        rounds $((COUNT + 1)) $((2 * COUNT)) "$tmp/recheck"
    fi
    echo ""
elif [ ! -f "$LATEST" ]; then
    echo "no $LATEST - run scripts/bench.sh first" >&2
    exit 1
elif [ "$(grep -m 1 '^# tree: ' "$LATEST")" != "# tree: $TREE" ]; then
    echo "stale: run scripts/bench.sh ($LATEST was not measured on this tree)" >&2
    exit 1
fi

compare report
