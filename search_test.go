package bistpath

import (
	"context"
	"errors"
	"testing"
	"time"

	"bistpath/internal/benchdata"
	"bistpath/internal/dfg"
)

// largeSearchDesign builds a design past the Auto exact-feasibility
// threshold (the exact branch and bound blows its node budget on it).
func largeSearchDesign(t testing.TB) (*DFG, map[string]string) {
	t.Helper()
	return randomDesign(t, benchdata.RandomConfig{
		Seed: 11, Steps: 30, OpsPerStep: 5, Inputs: 8,
		Kinds: []dfg.Kind{dfg.Add, dfg.Sub, dfg.Mul, dfg.Div, dfg.And, dfg.Or, dfg.Xor, dfg.Lt, dfg.Gt},
	})
}

// presetDesign builds the dfgen preset design of the given size class and
// seed.
func presetDesign(t testing.TB, preset string, seed int64) (*DFG, map[string]string) {
	t.Helper()
	cfg, ok := benchdata.Preset(preset, seed)
	if !ok {
		t.Fatalf("unknown preset %q", preset)
	}
	return randomDesign(t, cfg)
}

// randomDesign generates a design with its area-driven module binding.
func randomDesign(t testing.TB, cfg benchdata.RandomConfig) (*DFG, map[string]string) {
	t.Helper()
	g, mb, err := benchdata.RandomWithModules(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mods := make(map[string]string)
	for _, m := range mb.Modules {
		for _, op := range m.Ops {
			mods[op] = m.Name
		}
	}
	return &DFG{g: g}, mods
}

func TestParseSearch(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Search
	}{{"", SearchExact}, {"exact", SearchExact}, {"auto", SearchAuto}, {"stochastic", SearchStochastic}} {
		got, err := ParseSearch(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSearch(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" {
			t.Errorf("Search(%v).String() empty", got)
		}
	}
	if _, err := ParseSearch("genetic"); !errors.Is(err, ErrBadSearch) {
		t.Errorf("ParseSearch(genetic) = %v, want ErrBadSearch", err)
	}
}

func TestSearchValidation(t *testing.T) {
	d, mods, err := Benchmark("paulin")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Search = SearchStochastic
	cfg.Objective = ParetoFront
	if _, err := d.SynthesizeCtx(context.Background(), mods, cfg); !errors.Is(err, ErrBadSearch) {
		t.Errorf("stochastic+pareto = %v, want ErrBadSearch", err)
	}
	cfg = DefaultConfig()
	cfg.Search = Search(99)
	if _, err := d.SynthesizeCtx(context.Background(), mods, cfg); !errors.Is(err, ErrBadSearch) {
		t.Errorf("unknown search = %v, want ErrBadSearch", err)
	}
	cfg = DefaultConfig()
	cfg.Search = SearchStochastic
	cfg.TimeBudget = -time.Second
	if _, err := d.SynthesizeCtx(context.Background(), mods, cfg); !errors.Is(err, ErrBadSearch) {
		t.Errorf("negative budget = %v, want ErrBadSearch", err)
	}
}

// Auto resolves to exact on every paper benchmark (recording the
// resolution in Stats) and to stochastic past the threshold.
func TestSearchAutoResolution(t *testing.T) {
	for _, name := range BenchmarkNames() {
		d, mods, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Search = SearchAuto
		res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.SearchStrategy != "exact" {
			t.Errorf("%s: auto resolved to %q, want exact", name, res.Stats.SearchStrategy)
		}
		if !res.PlanExact() {
			t.Errorf("%s: auto/exact plan not provably optimal", name)
		}

		// The same benchmark under the default SearchExact leaves the
		// strategy field empty — the byte-identity contract for existing
		// result documents.
		res2, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res2.Stats.SearchStrategy != "" {
			t.Errorf("%s: SearchExact run records strategy %q, want empty", name, res2.Stats.SearchStrategy)
		}
		if res2.BISTArea != res.BISTArea {
			t.Errorf("%s: auto area %d != exact area %d", name, res.BISTArea, res2.BISTArea)
		}
	}

	d, mods := largeSearchDesign(t)
	cfg := DefaultConfig()
	cfg.Search = SearchAuto
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SearchStrategy != "stochastic" {
		t.Errorf("large design: auto resolved to %q, want stochastic", res.Stats.SearchStrategy)
	}
}

// A stochastic run on a large design: deterministic for a fixed seed,
// better or equal to what the exact search's greedy fallback produces,
// effort recorded in Stats, and clean under Result.Verify (which re-runs
// the stochastic strategy in its conformance oracle).
func TestSearchStochasticLargeDesign(t *testing.T) {
	d, mods := largeSearchDesign(t)

	exactCfg := DefaultConfig()
	fallback, err := d.SynthesizeCtx(context.Background(), mods, exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	if fallback.PlanExact() {
		t.Fatal("test design no longer exceeds the exact node budget; enlarge it")
	}

	cfg := DefaultConfig()
	cfg.Search = SearchStochastic
	cfg.Seed = 7
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SearchStrategy != "stochastic" {
		t.Errorf("strategy %q, want stochastic", res.Stats.SearchStrategy)
	}
	if res.PlanExact() {
		t.Error("stochastic plan on a large design claims exactness")
	}
	if res.Stats.Generations == 0 || res.Stats.Evaluations == 0 || len(res.Stats.BestCurve) == 0 {
		t.Errorf("stochastic effort not recorded: %+v", res.Stats)
	}
	if res.BISTArea > fallback.BISTArea {
		t.Errorf("stochastic area %d worse than greedy fallback %d", res.BISTArea, fallback.BISTArea)
	}

	res2, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReportText() != res2.ReportText() {
		t.Error("same seed produced different reports")
	}

	rep, err := res.Verify(context.Background(), VerifyOptions{BindingLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("verify violations:\n%s", rep.Summary())
	}
	if !rep.RerunRan {
		t.Error("re-run oracle skipped for a reproducible stochastic run")
	}
}

// A TimeBudget-truncated run still verifies, but the re-run oracle is
// skipped (the truncation point is not reproducible).
func TestSearchStochasticTimeBudgetVerify(t *testing.T) {
	d, mods := largeSearchDesign(t)
	cfg := DefaultConfig()
	cfg.Search = SearchStochastic
	cfg.TimeBudget = 50 * time.Millisecond
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.Verify(context.Background(), VerifyOptions{BindingLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("verify violations:\n%s", rep.Summary())
	}
	if rep.RerunRan {
		t.Error("re-run oracle ran for a budget-truncated run")
	}
}

// Cache key contract: exact-config keys ignore the stochastic knobs
// (byte-identical to earlier releases), stochastic keys are sensitive to
// strategy, seed and generation cap.
func TestSearchCacheKey(t *testing.T) {
	d, mods, err := Benchmark("paulin")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := d.moduleBinding(mods)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig()
	key := func(cfg Config) [32]byte { return cacheKey(d.g, mb, cfg) }

	seeded := base
	seeded.Seed = 99
	seeded.MaxGenerations = 7
	if key(base) != key(seeded) {
		t.Error("SearchExact key depends on ignored stochastic knobs")
	}

	stoch := base
	stoch.Search = SearchStochastic
	if key(base) == key(stoch) {
		t.Error("stochastic key collides with exact key")
	}
	stoch2 := stoch
	stoch2.Seed = 42
	if key(stoch) == key(stoch2) {
		t.Error("stochastic key ignores the seed")
	}
	auto := base
	auto.Search = SearchAuto
	if key(auto) == key(stoch) || key(auto) == key(base) {
		t.Error("auto key not distinct")
	}
}

// A stochastic run served from the cache must replay byte-identically,
// and a TimeBudget-limited run must bypass the cache entirely.
func TestSearchStochasticCache(t *testing.T) {
	d, mods, err := Benchmark("paulin")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Search = SearchStochastic
	cfg.Seed = 3
	cfg.Cache = cache
	cold, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.CacheHit {
		t.Error("second stochastic run missed the cache")
	}
	cj, _ := cold.JSON()
	wj, _ := warm.JSON()
	if string(cj) != string(wj) {
		t.Error("cache replay not byte-identical")
	}

	budget := cfg
	budget.TimeBudget = time.Second
	res, err := d.SynthesizeCtx(context.Background(), mods, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Error("budget-limited stochastic run was served from the cache")
	}
}
