package bist

import (
	"slices"
	"testing"

	"bistpath/internal/benchdata"
)

// Fig. 1 guard: I-path embedding enumeration through AppendEmbeddings
// must be allocation-free once the destination slice has warmed to the
// data path's full embedding count — this is the form the optimizer's
// scratch arenas enumerate through on every search, so a regression
// here silently reintroduces per-search garbage.
func TestAppendEmbeddingsAllocFree(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Ex1(), false)
	var dst []Embedding
	for _, m := range dp.Modules {
		dst = AppendEmbeddings(dst, dp, m.Name, true)
	}
	if len(dst) == 0 {
		t.Fatal("no embeddings enumerated")
	}
	want := len(dst)
	avg := testing.AllocsPerRun(200, func() {
		dst = dst[:0]
		for _, m := range dp.Modules {
			dst = AppendEmbeddings(dst, dp, m.Name, true)
		}
	})
	if len(dst) != want {
		t.Fatalf("re-enumeration found %d embeddings, want %d", len(dst), want)
	}
	if avg != 0 {
		t.Fatalf("AppendEmbeddings into warmed capacity allocates %.1f allocs/run, want 0", avg)
	}
}

// Steady-state guard for the whole search: with a reused Scratch the
// branch and bound on a paper benchmark must stay within a small pinned
// allocation budget (the Plan and its result maps are the only per-call
// allocations left).
func TestOptimizeScratchSteadyStateAllocs(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Tseng1(), false)
	opts := DefaultOptions(8)
	opts.Scratch = NewScratch()
	if _, err := Optimize(dp, opts); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := Optimize(dp, opts); err != nil {
			t.Fatal(err)
		}
	})
	// Pinned just above the current count: the winning Plan (embedding
	// + style maps, session schedule) is built fresh per call; the
	// search itself must not allocate.
	const budget = 64
	if avg > budget {
		t.Fatalf("Optimize with warm Scratch allocates %.1f allocs/run, want <= %d", avg, budget)
	}
}

// Steady-state guard for the search-space preparation alone: on a warm
// Scratch, re-enumerating, cost-ordering and interning a data path must
// not allocate. The data path is chosen so the ordering does real work:
// a module whose enumeration order is not already cost-sorted, over at
// least three distinct cost levels, so the permutation is gathered and
// applied rather than skipped.
func TestPrepareSpaceWarmScratchAllocFree(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Paulin(), false)
	opts := DefaultOptions(8)
	permuted := false
	for _, m := range dp.Modules {
		var costs []int
		for _, e := range Embeddings(dp, m.Name, opts.AllowPadHeads) {
			costs = append(costs, standaloneCost(opts.Model, e))
		}
		levels := slices.Clone(costs)
		slices.Sort(levels)
		if len(slices.Compact(levels)) >= 3 && !slices.IsSorted(costs) {
			permuted = true
		}
	}
	if !permuted {
		t.Fatal("no module needs a multi-level reordering; the guard would not exercise orderByCost")
	}
	sc := NewScratch()
	if _, err := prepareSpace(dp, opts, sc); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := prepareSpace(dp, opts, sc); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("prepareSpace with warm Scratch allocates %.1f allocs/run, want 0", avg)
	}
}
