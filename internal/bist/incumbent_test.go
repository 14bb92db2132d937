package bist

import (
	"strings"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/interconnect"
)

// TestIncumbentRejectsStale checks Plan.Revalidate, the check a previous
// run's incumbent plan must pass before a later run splices it in place
// of a search: a plan with an embedding for a module the data path lacks
// is rejected, and so is a plan that rides a pad head while pads are
// forbidden, even though it validates structurally. Paulin's port-fed
// inputs put pads on module ports; ex1 has none.
func TestIncumbentRejectsStale(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Ex1(), false)
	cold, err := Optimize(dp, DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Revalidate(dp, false); err != nil {
		t.Fatalf("fresh plan rejected: %v", err)
	}

	bogus := &Plan{Embeddings: map[string]Embedding{"nope": {Module: "nope", HeadL: "x", Tail: "y"}}}
	if err := bogus.Revalidate(dp, true); err == nil || !strings.Contains(err.Error(), "unknown module") {
		t.Errorf("plan for an unknown module: Revalidate = %v", err)
	}

	dp, _, _ = buildBench(t, benchdata.Paulin(), false)
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
	if !usesPad {
		t.Fatal("paulin's plan with pad heads allowed uses none; the pad-head rule goes unchecked")
	}
	if err := padPlan.Revalidate(dp, true); err != nil {
		t.Fatalf("pad-headed plan rejected with pads allowed: %v", err)
	}
	if err := padPlan.Revalidate(dp, false); err == nil || !strings.Contains(err.Error(), "input pad") {
		t.Errorf("pad-headed plan with pads forbidden: Revalidate = %v", err)
	}
}
