package benchdata

import (
	"testing"

	"bistpath/internal/dfg"
)

func TestAllBenchmarksValid(t *testing.T) {
	bs := All()
	if len(bs) != 5 {
		t.Fatalf("got %d benchmarks, want 5", len(bs))
	}
	for _, b := range bs {
		if err := b.Graph.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		mb, err := b.Modules()
		if err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		if err := mb.Validate(b.Graph); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestPaperRegisterMinimums(t *testing.T) {
	// The reconstructions are built so that the minimum register count
	// equals the count the paper reports in Table I.
	for _, b := range All() {
		min, err := b.Graph.MinRegisters()
		if err != nil {
			t.Fatal(err)
		}
		if min != b.PaperRegisters {
			t.Errorf("%s: minimum %d registers, paper reports %d", b.Name, min, b.PaperRegisters)
		}
	}
}

func TestEx1MatchesPaperStructure(t *testing.T) {
	b := Ex1()
	g := b.Graph
	if len(g.Vars()) != 8 {
		t.Errorf("ex1 has %d variables, want 8 (a..h)", len(g.Vars()))
	}
	if len(g.Ops()) != 4 {
		t.Errorf("ex1 has %d ops, want 4", len(g.Ops()))
	}
	mb, err := b.Modules()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(mb.Modules); got != 2 {
		t.Errorf("ex1 has %d modules, want 2 (M1, M2)", got)
	}
	if len(mb.Module("M1").Ops) != 2 || len(mb.Module("M2").Ops) != 2 {
		t.Error("ex1 temporal multiplicities should both be 2")
	}
}

func TestTsengVariantsShareStructure(t *testing.T) {
	t1, t2 := Tseng1(), Tseng2()
	if t1.Graph.Text() == t2.Graph.Text() {
		// Same ops, different names: only the dfg name differs.
		t.Log("tseng graphs identical (expected aside from name)")
	}
	if len(t1.Graph.Ops()) != len(t2.Graph.Ops()) {
		t.Error("tseng variants must share the operation structure")
	}
	mb1, _ := t1.Modules()
	mb2, _ := t2.Modules()
	if len(mb1.Modules) != 7 {
		t.Errorf("tseng1 has %d modules, want 7", len(mb1.Modules))
	}
	if len(mb2.Modules) != 4 {
		t.Errorf("tseng2 has %d modules, want 4 (1+ and 3 ALUs)", len(mb2.Modules))
	}
}

func TestPaulinPortInputs(t *testing.T) {
	b := Paulin()
	for _, name := range []string{"dx", "a", "k3"} {
		if v := b.Graph.Var(name); v == nil || !v.IsPort {
			t.Errorf("%s should be a port input", name)
		}
	}
	for _, name := range []string{"x", "u", "y"} {
		if v := b.Graph.Var(name); v == nil || v.IsPort {
			t.Errorf("%s should be register allocated", name)
		}
	}
	// The differential equation solver computes what it should.
	vals, err := b.Graph.Eval(map[string]uint64{"x": 1, "u": 6, "y": 2, "dx": 1, "a": 9, "k3": 3}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if vals["x1"] != 2 {
		t.Errorf("x1 = %d, want 2", vals["x1"])
	}
	if vals["y1"] != 8 { // y + u*dx = 2 + 6
		t.Errorf("y1 = %d, want 8", vals["y1"])
	}
	// u1 = u - 3*x*u*dx - 3*y*dx = 6 - 18 - 6 = -18 mod 2^16
	if want := uint64(65536 - 18); vals["u1"] != want {
		t.Errorf("u1 = %d, want %d", vals["u1"], want)
	}
	if vals["c"] != 1 { // x1=2 < a=9
		t.Errorf("c = %d, want 1", vals["c"])
	}
}

func TestByName(t *testing.T) {
	if ByName("ex1") == nil || ByName("paulin") == nil {
		t.Error("known benchmark not found")
	}
	if ByName("nope") != nil {
		t.Error("unknown benchmark found")
	}
}

func TestRandomDeterministic(t *testing.T) {
	g1, err := Random(DefaultRandomConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Random(DefaultRandomConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if g1.Text() != g2.Text() {
		t.Error("same seed produced different graphs")
	}
	g3, _ := Random(DefaultRandomConfig(43))
	if g1.Text() == g3.Text() {
		t.Error("different seeds produced the same graph")
	}
}

func TestRandomValid(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g, err := Random(DefaultRandomConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		for _, op := range g.Ops() {
			if len(op.Args) == 2 && op.Args[0] == op.Args[1] {
				t.Errorf("seed %d: op %s has duplicate operands", seed, op.Name)
			}
		}
	}
}

func TestRandomConfigValidation(t *testing.T) {
	if _, err := Random(RandomConfig{Steps: 1, OpsPerStep: 1, Inputs: 2}); err == nil {
		t.Error("1-step config accepted")
	}
	if _, err := Random(RandomConfig{Steps: 3, OpsPerStep: 0, Inputs: 2}); err == nil {
		t.Error("0-ops config accepted")
	}
}

func TestRandomWithModules(t *testing.T) {
	g, mb, err := RandomWithModules(RandomConfig{Seed: 7, Steps: 4, OpsPerStep: 2, Inputs: 3,
		Kinds: []dfg.Kind{dfg.Add, dfg.Mul}})
	if err != nil {
		t.Fatal(err)
	}
	if err := mb.Validate(g); err != nil {
		t.Error(err)
	}
}
