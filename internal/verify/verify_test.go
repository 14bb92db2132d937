package verify

import (
	"context"
	"maps"
	"strings"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/bist"
	"bistpath/internal/datapath"
	"bistpath/internal/dfg"
	"bistpath/internal/interconnect"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// pipeline runs the full allocation flow on a graph + module binding.
// The verify package cannot import the root bistpath package (the root
// imports verify), so tests drive the internal stages directly — the
// same sequence Synthesize runs.
func pipeline(g *dfg.Graph, mb *modassign.Binding, traditional bool, width int) (*datapath.Datapath, *bist.Plan, error) {
	var rb *regassign.Binding
	var err error
	if traditional {
		rb, err = regassign.Traditional(g)
	} else {
		rb, err = regassign.Bind(g, mb, regassign.DefaultOptions())
	}
	if err != nil {
		return nil, nil, err
	}
	sh := regassign.NewSharing(g, mb)
	ib, err := interconnect.Bind(g, mb, rb, sh)
	if err != nil {
		return nil, nil, err
	}
	dp, err := datapath.Build(g, mb, rb, ib, width)
	if err != nil {
		return nil, nil, err
	}
	opts := bist.DefaultOptions(width)
	plan, err := bist.Optimize(dp, opts)
	if err != nil {
		return nil, nil, err
	}
	return dp, plan, nil
}

func mustPipeline(t *testing.T, g *dfg.Graph, mb *modassign.Binding, traditional bool) (*datapath.Datapath, *bist.Plan) {
	t.Helper()
	dp, plan, err := pipeline(g, mb, traditional, 8)
	if err != nil {
		t.Fatalf("pipeline(%s, traditional=%v): %v", g.Name, traditional, err)
	}
	return dp, plan
}

// testOptions is the configuration bistpath.DefaultConfig gives a
// width-8 verification: pad heads on, seed 1, the rest withDefaults'.
func testOptions() Options {
	return Options{AllowPadTPG: true, Seed: 1}.withDefaults(8)
}

// exactSearch is the re-run oracle's search for a plan from the exact
// branch and bound under o.
func exactSearch(o Options) func(context.Context, *datapath.Datapath) (*bist.Plan, error) {
	return func(ctx context.Context, dp *datapath.Datapath) (*bist.Plan, error) {
		return bist.OptimizeCtx(ctx, dp, bist.Options{
			Model:            o.Model,
			AllowPadHeads:    o.AllowPadTPG,
			MinimizeSessions: o.MinimizeSessions,
		})
	}
}

func benchBinding(t *testing.T, b *benchdata.Benchmark) *modassign.Binding {
	t.Helper()
	mb, err := modassign.FromMap(b.Graph, b.OpModule)
	if err != nil {
		t.Fatalf("%s: module binding: %v", b.Name, err)
	}
	return mb
}

// Every layer of the harness must come back clean on all five paper
// benchmarks, in both binding modes. This is the same gate the verify
// CLI subcommand applies.
func TestRunCleanOnPaperBenchmarks(t *testing.T) {
	for _, b := range benchdata.All() {
		for _, trad := range []bool{false, true} {
			mb := benchBinding(t, b)
			dp, plan := mustPipeline(t, b.Graph, mb, trad)
			opts := testOptions()
			opts.Search = exactSearch(opts)
			rep, err := Run(context.Background(), b.Graph, mb, dp, plan, opts)
			if err != nil {
				t.Fatalf("%s traditional=%v: %v", b.Name, trad, err)
			}
			if !rep.OK() {
				t.Errorf("%s traditional=%v:\n%s", b.Name, trad, rep.Summary())
			}
			if rep.Vectors < 100 {
				t.Errorf("%s traditional=%v: only %d vectors checked", b.Name, trad, rep.Vectors)
			}
			if !rep.EmbeddingRan {
				t.Errorf("%s traditional=%v: embedding oracle infeasible (%d combos)", b.Name, trad, rep.EmbeddingCombos)
			}
			if !rep.RerunRan {
				t.Errorf("%s traditional=%v: re-run oracle did not run", b.Name, trad)
			}
			if plan.Exact && rep.EmbeddingRan && rep.EmbeddingMin != plan.ExtraArea {
				t.Errorf("%s traditional=%v: oracle min %d != plan %d", b.Name, trad, rep.EmbeddingMin, plan.ExtraArea)
			}
		}
	}
}

// The binding oracle must run on every benchmark whose heuristic
// binding is minimum-register (all five are) and bracket the plan cost.
func TestBindingOracleBracketsHeuristicOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("binding oracle sweep is slow")
	}
	for _, b := range benchdata.All() {
		mb := benchBinding(t, b)
		dp, plan := mustPipeline(t, b.Graph, mb, false)
		res, err := BindingOracle(context.Background(), b.Graph, mb, dp, testOptions())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !res.Ran || !res.Complete || res.Feasible == 0 {
			t.Fatalf("%s: oracle did not complete: %+v", b.Name, res)
		}
		if plan.ExtraArea < res.Best || plan.ExtraArea > res.Worst {
			t.Errorf("%s: plan cost %d outside enumerated range [%d,%d] over %d bindings",
				b.Name, plan.ExtraArea, res.Best, res.Worst, res.Feasible)
		}
	}
}

// Seeded randomized conformance sweep: every random design must pass
// the invariants and the functional cross-check; a slice of the seeds
// additionally runs the full oracle stack (exhaustive embeddings,
// re-run conformance, bounded binding enumeration). CI runs this under
// the race detector.
func TestVerifyRandomSweep(t *testing.T) {
	const seeds = 60
	skipped := 0
	for seed := int64(1); seed <= seeds; seed++ {
		g, mb, err := benchdata.RandomWithModules(benchdata.SweepConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dp, plan, err := pipeline(g, mb, false, 8)
		if err != nil {
			// A random allocation can legitimately leave a module with no
			// register I-path; tolerate a bounded number of such designs.
			if strings.Contains(err.Error(), "no BIST embedding") {
				skipped++
				continue
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := testOptions()
		opts.Vectors = 40
		opts.Seed = seed
		if seed%5 != 0 {
			opts.SkipOracles = true
		} else {
			opts.EmbeddingCap = 1 << 16
			opts.BindingLimit = 400
			opts.Search = exactSearch(opts)
		}
		rep, err := Run(context.Background(), g, mb, dp, plan, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.OK() {
			t.Errorf("seed %d:\n%s", seed, rep.Summary())
		}
	}
	if skipped > seeds/4 {
		t.Errorf("too many unsynthesizable random designs: %d of %d", skipped, seeds)
	}
}

// The traditional binder on ex1 yields a CBILBO (the paper's motivating
// contrast), and the testable binder eliminates it; both plans must
// still satisfy every invariant — the harness is mode-agnostic.
func TestInvariantsModeAgnosticOnEx1(t *testing.T) {
	b := benchdata.ByName("ex1")
	if b == nil {
		t.Fatal("ex1 missing")
	}
	mb := benchBinding(t, b)
	for _, trad := range []bool{false, true} {
		dp, plan := mustPipeline(t, b.Graph, mb, trad)
		opts := testOptions()
		if vs := Invariants(b.Graph, mb, dp, plan, opts.Model, opts.AllowPadTPG); len(vs) != 0 {
			t.Errorf("traditional=%v: %v", trad, vs)
		}
	}
}

// Context cancellation must surface as an error, never as violations.
func TestRunHonorsCancellation(t *testing.T) {
	b := benchdata.ByName("paulin")
	if b == nil {
		t.Fatal("paulin missing")
	}
	mb := benchBinding(t, b)
	dp, plan := mustPipeline(t, b.Graph, mb, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, b.Graph, mb, dp, plan, testOptions()); err == nil {
		t.Fatal("cancelled Run returned nil error")
	}
}

// The re-run oracle must catch a plan the search would not return: on
// paulin, moving one module to another valid embedding yields a plan
// that passes Validate but differs from a fresh search's, and the
// oracle reports exactly that one divergence. The search's own plan
// reports none.
func TestRerunMatchCatchesDivergentPlan(t *testing.T) {
	b := benchdata.ByName("paulin")
	mb := benchBinding(t, b)
	dp, plan := mustPipeline(t, b.Graph, mb, false)
	opts := testOptions()
	search := exactSearch(opts)

	vs, err := RerunMatch(context.Background(), dp, search, plan)
	if err != nil || len(vs) != 0 {
		t.Fatalf("search's own plan: violations %v, err %v", vs, err)
	}

	var moved *bist.Plan
	for _, m := range dp.Modules {
		for _, e := range bist.Embeddings(dp, m.Name, opts.AllowPadTPG) {
			if e == plan.Embeddings[m.Name] {
				continue
			}
			embs := maps.Clone(plan.Embeddings)
			embs[m.Name] = e
			moved = bist.PlanFromEmbeddings(opts.Model, embs, plan.Exact)
			break
		}
		if moved != nil {
			break
		}
	}
	if moved == nil {
		t.Fatal("no module of paulin has a second embedding")
	}
	if err := moved.Validate(dp); err != nil {
		t.Fatalf("moved plan is invalid: %v", err)
	}
	vs, err = RerunMatch(context.Background(), dp, search, moved)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !strings.HasPrefix(vs[0], "rerun:") {
		t.Fatalf("got %d violations, want exactly one re-run violation: %v", len(vs), vs)
	}
}
