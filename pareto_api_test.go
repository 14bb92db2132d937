package bistpath

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// synthPareto synthesizes one benchmark under the ParetoFront objective.
func synthPareto(t *testing.T, name string, cfg Config) *Result {
	t.Helper()
	d, mods, err := Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.SynthesizeParetoCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatalf("%s: SynthesizePareto: %v", name, err)
	}
	return res
}

// The pinned ground truth: the exact non-dominated (area, sessions,
// peak power) vectors of the five paper benchmarks under the default
// configuration and power model. All five spaces fit under the
// exhaustive oracle's cap, so these fronts are enumeration-verified,
// not search echoes.
var goldenFronts = map[string][]CostVector{
	"ex1":    {{96, 2, 576}, {208, 1, 648}},
	"ex2":    {{208, 6, 768}, {304, 5, 1344}},
	"tseng1": {{208, 7, 768}, {224, 6, 768}},
	"tseng2": {{176, 4, 784}, {208, 3, 784}, {272, 2, 800}, {384, 2, 784}},
	"paulin": {{64, 4, 576}, {80, 3, 1152}, {96, 2, 672}, {96, 3, 576}, {240, 1, 1320}},
}

func TestSynthesizeParetoGoldenFronts(t *testing.T) {
	for name, want := range goldenFronts {
		res := synthPareto(t, name, DefaultConfig())
		got := make([]CostVector, len(res.Pareto))
		for i, pt := range res.Pareto {
			got[i] = pt.Cost
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: front %v, want %v", name, got, want)
		}
	}
}

// Every benchmark front passes the full verification harness: member
// invariants, independent cost recomputation, mutual non-domination —
// and the exhaustive enumerated oracle, which runs on all five designs.
func TestSynthesizeParetoVerifies(t *testing.T) {
	for _, name := range BenchmarkNames() {
		res := synthPareto(t, name, DefaultConfig())
		rep, err := res.VerifyPareto(context.Background(), VerifyOptions{})
		if err != nil {
			t.Fatalf("%s: VerifyPareto: %v", name, err)
		}
		if !rep.OK() {
			t.Errorf("%s: %v", name, rep.Err())
		}
		if !rep.OracleRan {
			t.Errorf("%s: oracle declined (%d combos) — the paper benchmarks must stay under the cap",
				name, rep.OracleCombos)
		}
		if rep.OracleFront != len(res.Pareto) {
			t.Errorf("%s: oracle front has %d vectors, search reported %d",
				name, rep.OracleFront, len(res.Pareto))
		}
	}
}

// The area-minimal front member IS the single-objective result: a
// Pareto run's primary plan must match plain synthesis in every
// observable (registers, styles, sessions, area), keeping the two
// entry points mutually consistent.
func TestParetoPrimaryPlanMatchesMinArea(t *testing.T) {
	for _, name := range BenchmarkNames() {
		pareto := synthPareto(t, name, DefaultConfig())
		d, mods, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		single, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if pareto.BISTArea != single.BISTArea {
			t.Errorf("%s: pareto primary area %d, single-objective %d", name, pareto.BISTArea, single.BISTArea)
		}
		if !reflect.DeepEqual(pareto.Registers, single.Registers) {
			t.Errorf("%s: pareto primary registers diverge from single-objective synthesis", name)
		}
		if !reflect.DeepEqual(pareto.Sessions, single.Sessions) {
			t.Errorf("%s: pareto primary sessions %v, single-objective %v", name, pareto.Sessions, single.Sessions)
		}
		if !reflect.DeepEqual(pareto.StyleCounts, single.StyleCounts) {
			t.Errorf("%s: pareto primary styles %v, single-objective %v", name, pareto.StyleCounts, single.StyleCounts)
		}
	}
}

// WeightedSum picks the argmin of the weighted scalarization over the
// front, carries the cost vector on the Result, and publishes objective
// and weights in the JSON document.
func TestSynthesizeWeighted(t *testing.T) {
	front := synthPareto(t, "paulin", DefaultConfig())

	d, mods, err := Benchmark("paulin")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Objective = WeightedSum
	cfg.Weights = Weights{Area: 1, TestTime: 200, PeakPower: 0}
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost == nil {
		t.Fatal("weighted result has no cost vector")
	}
	if len(res.Pareto) != 0 {
		t.Error("weighted result must not publish a front")
	}
	score := func(c CostVector) int {
		return cfg.Weights.Area*c.Area + cfg.Weights.TestTime*c.TestTime + cfg.Weights.PeakPower*c.PeakPower
	}
	for _, pt := range front.Pareto {
		if score(pt.Cost) < score(*res.Cost) {
			t.Errorf("front member %v beats the weighted winner %v", pt.Cost, *res.Cost)
		}
	}
	doc, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"objective": "weighted"`, `"cost"`, `"weights"`} {
		if !strings.Contains(string(doc), want) {
			t.Errorf("weighted JSON lacks %s", want)
		}
	}
	// Zero weights normalize to the balanced default rather than
	// degenerating into "everything costs nothing".
	balanced := DefaultConfig()
	balanced.Objective = WeightedSum
	bres, err := d.SynthesizeCtx(context.Background(), mods, balanced)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Cost == nil {
		t.Fatal("balanced weighted result has no cost vector")
	}
}

// A MinArea run must stay exactly as it always was: no cost vector, no
// front, and no multi-objective keys in its JSON — the byte-identity
// contract with pre-multi-objective releases.
func TestMinAreaResultHasNoObjectiveFields(t *testing.T) {
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != nil || len(res.Pareto) != 0 {
		t.Fatal("pure-area result carries multi-objective state")
	}
	doc, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{`"objective"`, `"weights"`, `"cost"`, `"pareto"`} {
		if strings.Contains(string(doc), banned) {
			t.Errorf("pure-area JSON contains %s", banned)
		}
	}
	if _, err := res.VerifyPareto(context.Background(), VerifyOptions{}); !errors.Is(err, ErrNoPareto) {
		t.Errorf("VerifyPareto on a MinArea result returned %v, want ErrNoPareto", err)
	}
}

// Malformed multi-objective configurations fail in the validate phase
// with ErrBadObjective.
func TestBadObjectiveConfigs(t *testing.T) {
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Objective = Objective(99) },
		func(c *Config) { c.Objective = WeightedSum; c.Weights = Weights{Area: -1} },
		func(c *Config) { c.Objective = ParetoFront; c.Power = map[string]int{"m1": -5} },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := d.SynthesizeCtx(context.Background(), mods, cfg); !errors.Is(err, ErrBadObjective) {
			t.Errorf("bad config %d returned %v, want ErrBadObjective", i, err)
		}
	}
	if _, err := ParseObjective("fastest"); !errors.Is(err, ErrBadObjective) {
		t.Errorf("ParseObjective(fastest) = %v, want ErrBadObjective", err)
	}
	for _, ok := range []string{"", "area", "weighted", "pareto"} {
		if _, err := ParseObjective(ok); err != nil {
			t.Errorf("ParseObjective(%q): %v", ok, err)
		}
	}
}

// Random-design conformance sweep: the search front must match the
// exhaustive oracle on every design whose space fits under the cap.
func TestParetoRandomSweepOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is oracle-bound")
	}
	checked := 0
	for seed := int64(1); seed <= 15; seed++ {
		d, mods, err := RandomDesign(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := d.SynthesizeParetoCtx(context.Background(), mods, DefaultConfig())
		if err != nil {
			if errors.Is(err, ErrNoEmbedding) {
				continue
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep, err := res.VerifyPareto(context.Background(), VerifyOptions{EmbeddingCap: 1 << 14})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.OK() {
			t.Errorf("seed %d: %v", seed, rep.Err())
		}
		if rep.OracleRan {
			checked++
		}
	}
	if checked == 0 {
		t.Error("no random design fit under the oracle cap; the sweep verified nothing")
	}
}
