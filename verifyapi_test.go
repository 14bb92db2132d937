package bistpath

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// The public Verify API must come back clean on every paper benchmark
// under the default configuration, with all three layers engaged.
func TestResultVerifyCleanOnBenchmarks(t *testing.T) {
	for _, name := range BenchmarkNames() {
		d, mods, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := res.Verify(context.Background(), VerifyOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.OK() {
			t.Errorf("%s:\n%s", name, rep.Summary())
		}
		if rep.Vectors < 100 {
			t.Errorf("%s: only %d vectors simulated", name, rep.Vectors)
		}
		if !rep.EmbeddingRan {
			t.Errorf("%s: embedding oracle did not run (%d combos)", name, rep.EmbeddingCombos)
		}
		if len(rep.WorkersChecked) == 0 {
			t.Errorf("%s: no worker counts cross-checked", name)
		}
		if !rep.BindingRan {
			t.Errorf("%s: binding oracle did not run", name)
		}
	}
}

// VerifyReport must marshal to JSON (the CLI's -json path) without
// losing the violation list.
func TestVerifyReportJSON(t *testing.T) {
	d, mods, err := Benchmark("paulin")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.Verify(context.Background(), VerifyOptions{SkipOracles: true, Vectors: 10})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"design", "violations", "vectors", "plan_cost"} {
		if _, ok := back[key]; !ok {
			t.Errorf("marshalled report missing %q: %s", key, raw)
		}
	}
}

// RandomDesign must produce synthesizable, verifiable designs keyed by
// seed alone — the contract the sweep tooling builds on.
func TestRandomDesignSynthesizeVerify(t *testing.T) {
	verified := 0
	for seed := int64(1); seed <= 8; seed++ {
		d, mods, err := RandomDesign(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
		if err != nil {
			if errors.Is(err, ErrNoEmbedding) {
				continue
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep, err := res.Verify(context.Background(), VerifyOptions{SkipOracles: true, Vectors: 25, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.OK() {
			t.Errorf("seed %d:\n%s", seed, rep.Summary())
		}
		verified++
	}
	if verified == 0 {
		t.Error("no random design survived synthesis")
	}
}

// RandomDesign is deterministic: one seed, one design.
func TestRandomDesignDeterministic(t *testing.T) {
	a, _, err := RandomDesign(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RandomDesign(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() {
		t.Error("same seed produced different designs")
	}
}
