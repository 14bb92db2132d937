package verify

import (
	"context"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/bist"
	"bistpath/internal/datapath"
	"bistpath/internal/interconnect"
	"bistpath/internal/regassign"
)

// The oracle must grade a non-minimal binding against the enumerated
// optimum of the SAME register count — not decline it, and not compare
// it to the minimum-register space. This is the case Lemma-2 avoidance
// lands in when every register would force a CBILBO and it opens a new
// one.
func TestBindingOracleGradesNonMinimalBinding(t *testing.T) {
	b := benchdata.ByName("ex1")
	g := b.Graph
	mb := benchBinding(t, b)
	min, err := g.MinRegisters()
	if err != nil {
		t.Fatal(err)
	}

	// Build a deliberately non-minimal data path: the first enumerated
	// (min+1)-register partition, pushed through the real pipeline.
	parts, _, err := regassign.EnumerateBindings(g, min+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) == 0 {
		t.Fatalf("no %d-register partition of %s", min+1, g.Name)
	}
	rb, err := regassign.BindingFromPartition(g, parts[0])
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
	if len(dp.Regs) != min+1 {
		t.Fatalf("test setup: dp has %d registers, want %d", len(dp.Regs), min+1)
	}
	opts := testOptions()
	plan, err := bist.OptimizeCtx(context.Background(), dp, bist.Options{
		Model:            opts.Model,
		AllowPadHeads:    opts.AllowPadTPG,
		MinimizeSessions: opts.MinimizeSessions,
	})
	if err != nil {
		t.Fatal(err)
	}

	res, err := BindingOracle(context.Background(), g, mb, dp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ran {
		t.Fatal("oracle declined the non-minimal binding")
	}
	if res.Registers != min+1 {
		t.Fatalf("oracle enumerated %d-register bindings, want %d", res.Registers, min+1)
	}
	if res.Feasible == 0 {
		t.Fatal("no feasible bindings at the non-minimal count")
	}
	if plan.ExtraArea < res.Best || plan.ExtraArea > res.Worst {
		t.Errorf("plan cost %d outside the %d-register range [%d,%d] over %d bindings",
			plan.ExtraArea, res.Registers, res.Best, res.Worst, res.Feasible)
	}

	// A k below the chromatic number yields no partitions at all.
	none, _, err := regassign.EnumerateBindings(g, min-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("EnumerateBindings(min-1) produced %d partitions", len(none))
	}
}
