package bist

import (
	"context"
	"reflect"
	"testing"
	"time"

	"bistpath/internal/benchdata"
	"bistpath/internal/datapath"
	"bistpath/internal/dfg"
	"bistpath/internal/interconnect"
	"bistpath/internal/regassign"
)

// buildRandomDP runs the full allocation pipeline on a generated DFG —
// the stochastic tests need datapaths larger than the paper benchmarks.
func buildRandomDP(t testing.TB, cfg benchdata.RandomConfig) *datapath.Datapath {
	t.Helper()
	g, mb, err := benchdata.RandomWithModules(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ib, err := interconnect.Bind(g, mb, rb, regassign.NewSharing(g, mb))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := datapath.Build(g, mb, rb, ib, 8)
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

// mediumConfig is a random shape past AutoExactBits; largeConfig, the
// dfgen l shape, is larger still. The exact search proves every seed
// these tests use well inside its default budget, so the tests that
// exercise the genetic operators disable the exact probe.
func mediumConfig(seed int64) benchdata.RandomConfig {
	return benchdata.RandomConfig{
		Seed: seed, Steps: 14, OpsPerStep: 4, Inputs: 6,
		Kinds: []dfg.Kind{dfg.Add, dfg.Sub, dfg.Mul, dfg.Div, dfg.And, dfg.Or, dfg.Xor, dfg.Lt, dfg.Gt},
	}
}

func largeConfig(seed int64) benchdata.RandomConfig {
	return benchdata.RandomConfig{
		Seed: seed, Steps: 30, OpsPerStep: 5, Inputs: 8,
		Kinds: []dfg.Kind{dfg.Add, dfg.Sub, dfg.Mul, dfg.Div, dfg.And, dfg.Or, dfg.Xor, dfg.Lt, dfg.Gt},
	}
}

// The GA+SA operators alone (probe disabled) must recover the known
// optimum on every paper benchmark — the issue's quality bar for the
// stochastic search.
func TestStochasticRecoversOptimumOnBenchmarks(t *testing.T) {
	for _, b := range benchdata.All() {
		dp, _, _ := buildBench(t, b, false)
		exact, err := Optimize(dp, DefaultOptions(8))
		if err != nil {
			t.Fatalf("%s: exact: %v", b.Name, err)
		}
		if !exact.Exact {
			t.Fatalf("%s: exact search did not complete", b.Name)
		}
		plan, err := OptimizeStochastic(dp, Options{AllowPadHeads: true, ExactProbeNodes: -1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: stochastic: %v", b.Name, err)
		}
		if plan.Exact {
			t.Errorf("%s: probe disabled but plan claims Exact", b.Name)
		}
		if plan.ExtraArea != exact.ExtraArea {
			t.Errorf("%s: stochastic area %d, optimum %d", b.Name, plan.ExtraArea, exact.ExtraArea)
		}
		if err := plan.Validate(dp); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

// With the default probe enabled, small designs get the provably optimal
// plan back directly (Exact=true).
func TestStochasticProbeProvesOptimality(t *testing.T) {
	for _, b := range benchdata.All() {
		dp, _, _ := buildBench(t, b, false)
		exact, err := Optimize(dp, DefaultOptions(8))
		if err != nil {
			t.Fatal(err)
		}
		var m Metrics
		plan, err := OptimizeStochastic(dp, Options{AllowPadHeads: true, Metrics: &m})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !plan.Exact {
			t.Errorf("%s: probe should prove optimality", b.Name)
		}
		if plan.ExtraArea != exact.ExtraArea {
			t.Errorf("%s: probe area %d, optimum %d", b.Name, plan.ExtraArea, exact.ExtraArea)
		}
		if m.Generations != 0 {
			t.Errorf("%s: probe-exact run reports %d generations", b.Name, m.Generations)
		}
		if len(m.Curve) != 1 || m.Curve[0].Cost != plan.ExtraArea {
			t.Errorf("%s: probe-exact curve %v", b.Name, m.Curve)
		}
	}
}

// The determinism contract: identical (data path, Options, Seed) must
// yield an identical Plan and identical effort metrics, on a fresh
// Scratch and on one reused across runs.
func TestStochasticRepeatDeterministic(t *testing.T) {
	for _, cfg := range []benchdata.RandomConfig{mediumConfig(11), largeConfig(11)} {
		dp := buildRandomDP(t, cfg)
		var basePlan string
		var baseM Metrics
		sc := NewScratch()
		for run, s := range []*Scratch{nil, sc, sc} {
			var m Metrics
			plan, err := OptimizeStochastic(dp, Options{
				AllowPadHeads:   true,
				Seed:            7,
				ExactProbeNodes: -1,
				MaxGenerations:  60,
				Metrics:         &m,
				Scratch:         s,
			})
			if err != nil {
				t.Fatalf("steps=%d run %d: %v", cfg.Steps, run, err)
			}
			if err := plan.Validate(dp); err != nil {
				t.Fatalf("steps=%d run %d: %v", cfg.Steps, run, err)
			}
			if run == 0 {
				basePlan, baseM = planKey(plan), m
				continue
			}
			if got := planKey(plan); got != basePlan {
				t.Errorf("steps=%d run %d: plan diverged\n %s\n %s", cfg.Steps, run, got, basePlan)
			}
			if !reflect.DeepEqual(m, baseM) {
				t.Errorf("steps=%d run %d: metrics diverged\n %+v\n %+v", cfg.Steps, run, m, baseM)
			}
		}
	}
}

// Same seed twice: identical. Different seed: still a valid plan.
func TestStochasticSeedDeterminism(t *testing.T) {
	dp := buildRandomDP(t, mediumConfig(3))
	run := func(seed int64) *Plan {
		plan, err := OptimizeStochastic(dp, Options{
			AllowPadHeads: true, Seed: seed, ExactProbeNodes: -1, MaxGenerations: 40,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := plan.Validate(dp); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return plan
	}
	a, b := run(5), run(5)
	if !reflect.DeepEqual(a.Embeddings, b.Embeddings) {
		t.Error("same seed produced different plans")
	}
	run(99) // different seed must still validate
}

// The stochastic answer must never be worse than the greedy heuristic it
// is seeded with (the GA population includes the greedy genome).
func TestStochasticNeverWorseThanGreedy(t *testing.T) {
	dp := buildRandomDP(t, largeConfig(21))
	sc := NewScratch()
	opts := DefaultOptions(8)
	opts.Scratch = sc
	sp, err := prepareSpace(dp, opts, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.arena.size(sp.nregs, len(sp.mods))
	ev := newDutyEval(&sp, &sc.arena)
	genome := make([]int32, len(sp.mods))
	greedyCost := greedyAssignment(&sp, &ev, genome)

	plan, err := OptimizeStochastic(dp, Options{AllowPadHeads: true, ExactProbeNodes: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ExtraArea > greedyCost {
		t.Errorf("stochastic area %d worse than greedy %d", plan.ExtraArea, greedyCost)
	}
}

// Budget controls: generation caps are honored, a stall stop fires, and
// a tiny TimeBudget still returns a valid plan.
func TestStochasticBudgetControls(t *testing.T) {
	dp := buildRandomDP(t, mediumConfig(13))
	var m Metrics
	plan, err := OptimizeStochastic(dp, Options{
		AllowPadHeads: true, ExactProbeNodes: -1, MaxGenerations: 3, StallGenerations: -1, Metrics: &m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Generations > 3 {
		t.Errorf("MaxGenerations 3 but ran %d generations", m.Generations)
	}
	if m.Evaluations == 0 {
		t.Error("no evaluations recorded")
	}
	if err := plan.Validate(dp); err != nil {
		t.Error(err)
	}

	plan, err = OptimizeStochastic(dp, Options{
		AllowPadHeads: true, ExactProbeNodes: -1, TimeBudget: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(dp); err != nil {
		t.Error(err)
	}

	// Stall stop: a stall threshold of 1 must end the run well before the
	// generation cap on a design the seeds already solve.
	dp2, _, _ := buildBench(t, benchdata.Ex2(), false)
	var m2 Metrics
	if _, err := OptimizeStochastic(dp2, Options{
		AllowPadHeads: true, ExactProbeNodes: -1, StallGenerations: 1, Metrics: &m2,
	}); err != nil {
		t.Fatal(err)
	}
	if m2.Generations >= defaultMaxGenerations {
		t.Errorf("stall stop never fired (%d generations)", m2.Generations)
	}
}

// MinimizeSessions remains a tie-break: area still matches the optimum.
func TestStochasticMinimizeSessions(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Paulin(), false)
	exact, err := Optimize(dp, Options{AllowPadHeads: true, MinimizeSessions: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := OptimizeStochastic(dp, Options{
		AllowPadHeads: true, MinimizeSessions: true, ExactProbeNodes: -1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ExtraArea != exact.ExtraArea {
		t.Errorf("area %d, optimum %d", plan.ExtraArea, exact.ExtraArea)
	}
	if err := plan.Validate(dp); err != nil {
		t.Error(err)
	}
}

func TestStochasticCancellation(t *testing.T) {
	dp := buildRandomDP(t, largeConfig(5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizeStochasticCtx(ctx, dp, Options{AllowPadHeads: true}); err == nil {
		t.Error("cancelled context should error")
	}
}

// Auto's feasibility threshold: every paper benchmark sits under it, the
// large random shapes sit past it.
func TestExactFeasible(t *testing.T) {
	for _, b := range benchdata.All() {
		dp, _, _ := buildBench(t, b, false)
		if !ExactFeasible(dp, true) {
			t.Errorf("%s: paper benchmark should be exact-feasible (%.1f bits)",
				b.Name, SearchSpaceBits(dp, true))
		}
	}
	dp := buildRandomDP(t, largeConfig(11))
	if ExactFeasible(dp, true) {
		t.Errorf("large random design should exceed the threshold (%.1f bits)",
			SearchSpaceBits(dp, true))
	}
	if bits := SearchSpaceBits(dp, true); bits <= AutoExactBits {
		t.Errorf("SearchSpaceBits = %.1f, want > %d", bits, AutoExactBits)
	}
}
