package regassign

import (
	"reflect"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
)

// chainGraph builds a module with one instance whose output feeds
// nothing else: and1(x,y) -> z.
func chainGraph(t *testing.T) (*dfg.Graph, *modassign.Binding) {
	t.Helper()
	g := dfg.New("chain")
	if err := g.AddInput("x", "y"); err != nil {
		t.Fatal(err)
	}
	g.AddOp("and1", dfg.And, 1, "z", "x", "y")
	g.MarkOutput("z")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mb, err := modassign.FromMap(g, map[string]string{"and1": "M1"})
	if err != nil {
		t.Fatal(err)
	}
	return g, mb
}

func TestForcedCaseI(t *testing.T) {
	g, mb := chainGraph(t)
	// z together with operand x: the register holds all of O_M1 = {z}
	// and hits the only instance -> forced CBILBO, case (i).
	forced := ForcedCBILBOs(g, mb, [][]string{{"x", "z"}, {"y"}})
	if len(forced) != 1 || forced[0].CaseII || forced[0].Regs[0] != 0 {
		t.Fatalf("forced = %v, want case(i) on register 0", forced)
	}
	// z alone: no register both holds the output and hits the instance.
	if f := ForcedCBILBOs(g, mb, [][]string{{"x"}, {"y"}, {"z"}}); len(f) != 0 {
		t.Errorf("separate registers reported forced: %v", f)
	}
}

func TestForcedCaseII(t *testing.T) {
	// Module with two instances and two outputs split across two
	// registers, each register hitting every instance.
	g := dfg.New("c2")
	g.AddInput("p", "q", "r", "s")
	g.AddOp("a1", dfg.Add, 1, "u", "p", "q")
	g.AddOp("a2", dfg.Add, 2, "v", "r", "s")
	g.MarkOutput("u", "v")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mb, err := modassign.FromMap(g, map[string]string{"a1": "M1", "a2": "M1"})
	if err != nil {
		t.Fatal(err)
	}
	// R0 = {p, r, u}: holds output u, hits a1 (p) and a2 (r).
	// R1 = {q, s, v}: holds output v, hits a1 (q) and a2 (s).
	forced := ForcedCBILBOs(g, mb, [][]string{{"p", "r", "u"}, {"q", "s", "v"}})
	if len(forced) != 1 || !forced[0].CaseII {
		t.Fatalf("forced = %v, want one case(ii)", forced)
	}
	if len(forced[0].Regs) != 2 {
		t.Errorf("case(ii) regs = %v, want a pair", forced[0].Regs)
	}
	// Break the condition: R1 no longer hits instance a1.
	forced = ForcedCBILBOs(g, mb, [][]string{{"p", "r", "u"}, {"s", "v"}, {"q"}})
	if len(forced) != 0 {
		t.Errorf("forced = %v, want none (R1 misses instance a1)", forced)
	}
}

func TestForcedPartialAssignmentConservative(t *testing.T) {
	g, mb := chainGraph(t)
	// Output z not yet assigned anywhere: nothing can be forced.
	if f := ForcedCBILBOs(g, mb, [][]string{{"x"}, {"y"}}); len(f) != 0 {
		t.Errorf("partial assignment reported forced: %v", f)
	}
}

// ForcedCBILBOs reports both cases of Lemma 2 on one assignment, each
// with its registers: a case (ii) pair and a case (i) single register.
func TestForcedBothCases(t *testing.T) {
	g := dfg.New("fr")
	g.AddInput("p", "q", "r", "s")
	g.AddOp("a1", dfg.Add, 1, "u", "p", "q")
	g.AddOp("a2", dfg.Add, 2, "v", "r", "s")
	g.AddOp("n1", dfg.And, 3, "w", "u", "v")
	g.MarkOutput("w")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mb, err := modassign.FromMap(g, map[string]string{"a1": "M1", "a2": "M1", "n1": "M2"})
	if err != nil {
		t.Fatal(err)
	}
	// Case (ii) pair for M1 plus case (i) for M2 sharing register 0:
	// R0 = {p,r,u,w} (holds u; hits both adds; holds w=O_M2 and hits n1
	// via u), R1 = {q,s,v}.
	regs := [][]string{{"p", "r", "u", "w"}, {"q", "s", "v"}}
	forced := ForcedCBILBOs(g, mb, regs)
	want := []Forced{
		{Module: "M1", Regs: []int{0, 1}, CaseII: true},
		{Module: "M2", Regs: []int{0}},
	}
	if !reflect.DeepEqual(forced, want) {
		t.Errorf("forced = %v, want %v", forced, want)
	}
}

func TestForcedOnBenchmarkBindings(t *testing.T) {
	// The paper's binder must never be worse than the traditional one in
	// forced-CBILBO count on the five benchmarks.
	for _, b := range benchdata.All() {
		mb, err := b.Modules()
		if err != nil {
			t.Fatal(err)
		}
		trad, err := Traditional(b.Graph)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		test, err := Bind(b.Graph, mb, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		nt := len(ForcedCBILBOs(b.Graph, mb, trad.Sets()))
		nb := len(ForcedCBILBOs(b.Graph, mb, test.Sets()))
		if nb > nt {
			t.Errorf("%s: testable forces %d CBILBOs, traditional %d", b.Name, nb, nt)
		}
	}
}
