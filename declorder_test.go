package bistpath

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/dfg"
)

// declOrderDesign returns a design of the declaration-order corpus with
// its explicit module map: paper design -(seed+1) mod 5 for a negative
// seed, the SweepConfig design of seed otherwise.
func declOrderDesign(t testing.TB, seed int64) (*dfg.Graph, map[string]string) {
	t.Helper()
	if seed < 0 {
		names := BenchmarkNames()
		d, mods, err := Benchmark(names[-(seed+1)%int64(len(names))])
		if err != nil {
			t.Fatal(err)
		}
		return d.g, mods
	}
	g, mb, err := benchdata.RandomWithModules(benchdata.SweepConfig(seed))
	if err != nil {
		t.Fatalf("sweep-%d: %v", seed, err)
	}
	mods := make(map[string]string)
	for _, m := range mb.Modules {
		for _, op := range m.Ops {
			mods[op] = m.Name
		}
	}
	return g, mods
}

// permuteDeclarations rebuilds g with its inputs declared in a shuffled
// order and its ops added in a random topological order. Names, steps,
// operands and the port and output marks stay the same.
func permuteDeclarations(t testing.TB, g *dfg.Graph, rng *rand.Rand) *dfg.Graph {
	t.Helper()
	p := dfg.New(g.Name)
	var inputs, ports, outputs []string
	for _, v := range g.Vars() {
		if v.IsInput {
			inputs = append(inputs, v.Name)
		}
		if v.IsPort {
			ports = append(ports, v.Name)
		}
		if v.IsOutput {
			outputs = append(outputs, v.Name)
		}
	}
	rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	if err := p.AddInput(inputs...); err != nil {
		t.Fatal(err)
	}
	if err := p.MarkPortInput(ports...); err != nil {
		t.Fatal(err)
	}
	pending := slices.Clone(g.Ops())
	for len(pending) > 0 {
		var ready []int
		for i, op := range pending {
			if !slices.ContainsFunc(op.Args, func(a string) bool { return p.Var(a) == nil }) {
				ready = append(ready, i)
			}
		}
		i := ready[rng.Intn(len(ready))]
		op := pending[i]
		if err := p.AddOp(op.Name, op.Kind, op.Step, op.Result, op.Args...); err != nil {
			t.Fatal(err)
		}
		pending = slices.Delete(pending, i, i+1)
	}
	if err := p.MarkOutput(outputs...); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// checkDeclarationOrder synthesizes the design and perms permutations of
// its declarations, under the default and the traditional flow, and
// requires each permutation's report, stats-stripped JSON and netlist
// to equal the original's.
func checkDeclarationOrder(t *testing.T, designSeed int64, rng *rand.Rand, perms int) {
	t.Helper()
	g, mods := declOrderDesign(t, designSeed)
	traditional := DefaultConfig()
	traditional.Mode = TraditionalHLS
	variants := []*dfg.Graph{g}
	for range perms {
		variants = append(variants, permuteDeclarations(t, g, rng))
	}
	for _, cfg := range []Config{DefaultConfig(), traditional} {
		var want [3]string
		for i, v := range variants {
			res, err := (&DFG{g: v}).SynthesizeCtx(context.Background(), mods, cfg)
			if err != nil {
				t.Fatalf("%s (%s), permutation %d: %v", g.Name, cfg.Mode, i, err)
			}
			got := [3]string{res.ReportText(), stripStatsJSON(t, res), res.NetlistText()}
			if i == 0 {
				want = got
				continue
			}
			for k, what := range []string{"ReportText", "stats-stripped JSON", "NetlistText"} {
				if got[k] != want[k] {
					t.Fatalf("%s (%s), permutation %d: %s differs from the declared order's\n--- permuted ---\n%s\n--- declared ---\n%s",
						g.Name, cfg.Mode, i, what, got[k], want[k])
				}
			}
		}
	}
}

// Results do not depend on the order in which a design declares its
// inputs and adds its ops: the five paper designs and SweepConfig seeds
// 1-200, four permutations each, under both flows. An internal id that
// follows declaration order and reaches a tie-break fails it.
func TestDeclarationOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := range len(BenchmarkNames()) {
		checkDeclarationOrder(t, -int64(i+1), rng, 4)
	}
	for seed := int64(1); seed <= 200; seed++ {
		checkDeclarationOrder(t, seed, rng, 4)
	}
}

// FuzzDeclarationOrder is TestDeclarationOrderInvariant on a fuzz-chosen
// design (a negative designSeed picks a paper design) and permutation.
func FuzzDeclarationOrder(f *testing.F) {
	for i := int64(-5); i <= 5; i++ {
		f.Add(i, i*7919)
	}
	f.Fuzz(func(t *testing.T, designSeed, permSeed int64) {
		checkDeclarationOrder(t, designSeed, rand.New(rand.NewSource(permSeed)), 1)
	})
}
