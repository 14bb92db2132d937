package bist

import (
	"context"
	"reflect"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/interconnect"
)

// TestIncumbentWarmStartIdentity checks the warm-start contract on every
// paper benchmark: seeding the bound with the cold optimum as incumbent
// must return the identical Plan while expanding no more nodes than the
// cold search.
func TestIncumbentWarmStartIdentity(t *testing.T) {
	for _, b := range benchdata.All() {
		for _, minSess := range []bool{false, true} {
			dp, _, _ := buildBench(t, b, false)
			opts := DefaultOptions(8)
			opts.MinimizeSessions = minSess
			var cold Metrics
			opts.Metrics = &cold
			coldPlan, err := Optimize(dp, opts)
			if err != nil {
				t.Fatalf("%s: cold: %v", b.Name, err)
			}
			var warm Metrics
			wopts := opts
			wopts.Metrics = &warm
			wopts.Incumbent = coldPlan
			warmPlan, err := OptimizeCtx(context.Background(), dp, wopts)
			if err != nil {
				t.Fatalf("%s: warm: %v", b.Name, err)
			}
			if !reflect.DeepEqual(coldPlan.Embeddings, warmPlan.Embeddings) ||
				!reflect.DeepEqual(coldPlan.Sessions, warmPlan.Sessions) ||
				coldPlan.ExtraArea != warmPlan.ExtraArea ||
				coldPlan.Exact != warmPlan.Exact {
				t.Errorf("%s minSess=%v: warm plan differs from cold", b.Name, minSess)
			}
			if warm.Nodes > cold.Nodes {
				t.Errorf("%s minSess=%v: warm search expanded %d nodes, cold %d",
					b.Name, minSess, warm.Nodes, cold.Nodes)
			}
		}
	}
}

// TestIncumbentRejectsStale checks that an incumbent that does not
// validate against the data path — or that rides a pad head while pads
// are forbidden — is ignored rather than corrupting the bound.
func TestIncumbentRejectsStale(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Ex1(), false)
	opts := DefaultOptions(8)
	coldPlan, err := Optimize(dp, opts)
	if err != nil {
		t.Fatal(err)
	}

	// A bogus incumbent referencing an unknown module fails Validate.
	bogus := &Plan{Embeddings: map[string]Embedding{"nope": {Module: "nope", HeadL: "x", Tail: "y"}}}
	if _, ok := incumbentBound(dp, Options{Incumbent: bogus, Model: opts.Model}); ok {
		t.Error("stale incumbent accepted")
	}
	wopts := opts
	wopts.Incumbent = bogus
	plan, err := OptimizeCtx(context.Background(), dp, wopts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ExtraArea != coldPlan.ExtraArea {
		t.Errorf("bogus incumbent changed the optimum: %d != %d", plan.ExtraArea, coldPlan.ExtraArea)
	}

	// A pad-headed incumbent is unusable when pads are forbidden, even
	// if it validates structurally.
	padOpts := DefaultOptions(8)
	padOpts.AllowPadHeads = true
	padPlan, err := Optimize(dp, padOpts)
	if err != nil {
		t.Fatal(err)
	}
	usesPad := false
	for _, e := range padPlan.Embeddings {
		if interconnect.IsPad(e.HeadL) || (e.HeadR != "" && interconnect.IsPad(e.HeadR)) {
			usesPad = true
		}
	}
	if usesPad {
		noPad := padOpts
		noPad.AllowPadHeads = false
		noPad.Incumbent = padPlan
		if _, ok := incumbentBound(dp, noPad); ok {
			t.Error("pad-headed incumbent accepted with pads forbidden")
		}
	}
}
