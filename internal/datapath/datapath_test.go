package datapath

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/dfg"
	"bistpath/internal/interconnect"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// build synthesizes a datapath for a benchmark in the given mode.
func build(t *testing.T, b *benchdata.Benchmark, traditional bool) *Datapath {
	t.Helper()
	mb, err := b.Modules()
	if err != nil {
		t.Fatal(err)
	}
	var rb *regassign.Binding
	if traditional {
		rb, err = regassign.Traditional(b.Graph)
	} else {
		rb, err = regassign.Bind(b.Graph, mb, regassign.DefaultOptions())
	}
	if err != nil {
		t.Fatal(err)
	}
	ib, err := interconnect.Bind(b.Graph, mb, rb, regassign.NewSharing(b.Graph, mb))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Build(b.Graph, mb, rb, ib, 8)
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

func TestBuildAllBenchmarks(t *testing.T) {
	for _, b := range benchdata.All() {
		for _, trad := range []bool{false, true} {
			dp := build(t, b, trad)
			if err := dp.Validate(); err != nil {
				t.Errorf("%s trad=%v: %v", b.Name, trad, err)
			}
			if len(dp.Regs) == 0 || len(dp.Modules) == 0 {
				t.Errorf("%s: empty netlist", b.Name)
			}
		}
	}
}

func TestBuildWidthRange(t *testing.T) {
	b := benchdata.Ex1()
	mb, _ := b.Modules()
	rb, _ := regassign.Bind(b.Graph, mb, regassign.DefaultOptions())
	ib, _ := interconnect.Bind(b.Graph, mb, rb, nil)
	if _, err := Build(b.Graph, mb, rb, ib, 0); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := Build(b.Graph, mb, rb, ib, 65); err == nil {
		t.Error("width 65 accepted")
	}
}

func TestSimulateMatchesEvalOnBenchmarks(t *testing.T) {
	for _, b := range benchdata.All() {
		for _, trad := range []bool{false, true} {
			dp := build(t, b, trad)
			vectors := []map[string]uint64{}
			for s := uint64(1); s <= 20; s++ {
				in := make(map[string]uint64)
				for i, name := range b.Graph.Inputs() {
					in[name] = (s*2654435761 + uint64(i)*40503) % 251
				}
				vectors = append(vectors, in)
			}
			for _, in := range vectors {
				if err := dp.CheckAgainstDFG(in); err != nil {
					t.Fatalf("%s trad=%v: %v", b.Name, trad, err)
				}
			}
		}
	}
}

func TestSimulateMatchesEvalOnRandomDFGs(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		g, mb, err := benchdata.RandomWithModules(benchdata.DefaultRandomConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ib, err := interconnect.Bind(g, mb, rb, regassign.NewSharing(g, mb))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dp, err := Build(g, mb, rb, ib, 16)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for s := uint64(0); s < 10; s++ {
			in := make(map[string]uint64)
			for i, name := range g.Inputs() {
				in[name] = s*7919 + uint64(i)*104729
			}
			if err := dp.CheckAgainstDFG(in); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestSimulateMissingInput(t *testing.T) {
	dp := build(t, benchdata.Ex1(), false)
	if _, err := dp.Simulate(map[string]uint64{"a": 1}); err == nil {
		t.Error("missing inputs accepted")
	}
}

func TestSelfAdjacent(t *testing.T) {
	// t1 = a*b on M, t2 = t1*c on the same M: if t1 and t2 share a
	// register with... construct a guaranteed self-adjacency: t2's
	// result register also feeds M (via t1).
	g := dfg.New("sa")
	g.AddInput("a", "b", "c")
	g.AddOp("m1", dfg.Mul, 1, "t1", "a", "b")
	g.AddOp("m2", dfg.Mul, 2, "t2", "t1", "c")
	g.MarkOutput("t2")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mb, err := modassign.FromMap(g, map[string]string{"m1": "M1", "m2": "M1"})
	if err != nil {
		t.Fatal(err)
	}
	// t1 and t2 do not conflict (chained), so they can share a register,
	// which then both feeds M1 (t1 operand) and latches it (both).
	rb := regassign.FromSets([][]string{{"a"}, {"b", "t1", "t2"}, {"c"}})
	if err := rb.Validate(g); err != nil {
		t.Fatal(err)
	}
	ib, err := interconnect.Bind(g, mb, rb, nil)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Build(g, mb, rb, ib, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Build must wire R2 on both sides of M1: as an operand source (t1)
	// and as the only destination (t1, t2).
	m := dp.Modules[0]
	feeds := append(append([]string(nil), m.Left...), m.Right...)
	if !slices.Contains(feeds, "R2") || !reflect.DeepEqual(m.Dests, []string{"R2"}) {
		t.Errorf("M1 sources %v, dests %v: want R2 to feed and latch it", feeds, m.Dests)
	}
}

func TestMuxStats(t *testing.T) {
	dp := build(t, benchdata.Paulin(), false)
	count, extra := dp.MuxStats()
	if count <= 0 || extra < count {
		t.Errorf("MuxStats = %d,%d implausible", count, extra)
	}
}

func TestTextAndDot(t *testing.T) {
	dp := build(t, benchdata.Ex1(), false)
	text := dp.Text()
	for _, want := range []string{"datapath ex1", "reg R1", "mod M1", "step 1:"} {
		if !strings.Contains(text, want) {
			t.Errorf("netlist text missing %q:\n%s", want, text)
		}
	}
	var sb strings.Builder
	dp.WriteDot(&sb)
	if !strings.Contains(sb.String(), "digraph") || !strings.Contains(sb.String(), "M1") {
		t.Error("dot output incomplete")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	dp := build(t, benchdata.Ex1(), false)
	// Corrupt: point a micro-op at a source not wired to the module.
	for si := range dp.Steps {
		if len(dp.Steps[si].Ops) > 0 {
			dp.Steps[si].Ops[0].LeftSrc = "R99"
			break
		}
	}
	if err := dp.Validate(); err == nil {
		t.Error("corrupted control program accepted")
	}
}

func TestPortFedInputsHaveNoLoads(t *testing.T) {
	dp := build(t, benchdata.Paulin(), false)
	for _, st := range dp.Steps {
		for _, ld := range st.Loads {
			if ld.Var == "dx" || ld.Var == "a" || ld.Var == "k3" {
				t.Errorf("port input %s has a register load", ld.Var)
			}
		}
	}
	// But they appear as module port sources.
	found := false
	for _, m := range dp.Modules {
		for _, s := range append(append([]string(nil), m.Left...), m.Right...) {
			if s == "in:dx" {
				found = true
			}
		}
	}
	if !found {
		t.Error("pad in:dx not wired to any module port")
	}
}

func TestModuleDiagonal(t *testing.T) {
	// sq = x*x on M1 (diagonal); m2 = a*b on M2 (not).
	g := dfg.New("diag")
	g.AddInput("x", "a", "b")
	g.AddOp("sq", dfg.Mul, 1, "p", "x", "x")
	g.AddOp("m2", dfg.Mul, 2, "q", "a", "b")
	g.MarkOutput("p", "q")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mb, err := modassign.FromMap(g, map[string]string{"sq": "M1", "m2": "M2"})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ib, err := interconnect.Bind(g, mb, rb, nil)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Build(g, mb, rb, ib, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !dp.ModuleDiagonal("M1") {
		t.Error("squarer not recognized as diagonal")
	}
	if dp.ModuleDiagonal("M2") {
		t.Error("ordinary multiplier marked diagonal")
	}
	if dp.ModuleDiagonal("nope") {
		t.Error("unknown module marked diagonal")
	}
	// The squarer still computes correctly through the datapath.
	if err := dp.CheckAgainstDFG(map[string]uint64{"x": 13, "a": 5, "b": 7}); err != nil {
		t.Error(err)
	}
}
