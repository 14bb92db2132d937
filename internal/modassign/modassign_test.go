package modassign

import (
	"reflect"
	"testing"

	"bistpath/internal/dfg"
)

// twoAdderGraph: two adds in step 1 (need 2 modules), one in step 2.
func twoAdderGraph(t *testing.T) *dfg.Graph {
	t.Helper()
	g := dfg.New("g")
	if err := g.AddInput("a", "b", "c", "d"); err != nil {
		t.Fatal(err)
	}
	g.AddOp("o1", dfg.Add, 1, "x", "a", "b")
	g.AddOp("o2", dfg.Add, 1, "y", "c", "d")
	g.AddOp("o3", dfg.Add, 2, "z", "x", "y")
	if err := g.MarkOutput("z"); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestClassExecutes(t *testing.T) {
	alu := ALUClass(dfg.Add, dfg.Sub, dfg.Or)
	if !alu.Executes(dfg.Sub) || alu.Executes(dfg.Mul) {
		t.Error("ALU kind set wrong")
	}
	u := UnitClass(dfg.Mul)
	if u.Name != "*" || !u.Executes(dfg.Mul) || u.Executes(dfg.Add) {
		t.Error("unit class wrong")
	}
}

func TestBindPacksMinimumModules(t *testing.T) {
	g := twoAdderGraph(t)
	b, err := Bind(g, []Class{UnitClass(dfg.Add)})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Modules) != 2 {
		t.Fatalf("got %d modules, want 2: %v", len(b.Modules), b)
	}
	if err := b.Validate(g); err != nil {
		t.Error(err)
	}
	// o3 must share a module with o1 or o2 (different steps).
	m3 := b.ModuleOf("o3")
	if m3 == nil || len(m3.Ops) != 2 {
		t.Errorf("o3 not packed: %v", b)
	}
}

func TestBindUnscheduled(t *testing.T) {
	g := dfg.New("u")
	g.AddInput("a", "b")
	g.AddOp("o1", dfg.Add, 0, "x", "a", "b")
	g.MarkOutput("x")
	if _, err := Bind(g, []Class{UnitClass(dfg.Add)}); err == nil {
		t.Error("unscheduled graph accepted")
	}
}

func TestBindMissingClass(t *testing.T) {
	g := twoAdderGraph(t)
	if _, err := Bind(g, []Class{UnitClass(dfg.Mul)}); err == nil {
		t.Error("binding without an adder class accepted")
	}
}

func TestBindALU(t *testing.T) {
	g := dfg.New("mix")
	g.AddInput("a", "b")
	g.AddOp("o1", dfg.Add, 1, "x", "a", "b")
	g.AddOp("o2", dfg.Sub, 2, "y", "x", "a")
	g.MarkOutput("y")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := Bind(g, []Class{ALUClass(dfg.Add, dfg.Sub)})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Modules) != 1 {
		t.Errorf("ALU should absorb both ops: %v", b)
	}
}

func TestFromMap(t *testing.T) {
	g := twoAdderGraph(t)
	b, err := FromMap(g, map[string]string{"o1": "M1", "o2": "M2", "o3": "M1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Module("M1").Ops) != 2 || len(b.Module("M2").Ops) != 1 {
		t.Errorf("TM wrong: %v", b)
	}
	if b.Module("M1").Class.Name != "+" {
		t.Errorf("M1 class = %q", b.Module("M1").Class.Name)
	}
}

func TestFromMapErrors(t *testing.T) {
	g := twoAdderGraph(t)
	if _, err := FromMap(g, map[string]string{"o1": "M1"}); err == nil {
		t.Error("partial map accepted")
	}
	// Same-step clash on one module.
	if _, err := FromMap(g, map[string]string{"o1": "M1", "o2": "M1", "o3": "M2"}); err == nil {
		t.Error("same-step clash accepted")
	}
}

func TestVariableSets(t *testing.T) {
	g := twoAdderGraph(t)
	b, err := FromMap(g, map[string]string{"o1": "M1", "o2": "M2", "o3": "M1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.InputVarSet(g, "M1"); !reflect.DeepEqual(got, []string{"a", "b", "x", "y"}) {
		t.Errorf("I_M1 = %v", got)
	}
	if got := b.OutputVarSet(g, "M1"); !reflect.DeepEqual(got, []string{"x", "z"}) {
		t.Errorf("O_M1 = %v", got)
	}
	if got := b.InstanceOperands(g, "M1"); !reflect.DeepEqual(got, [][]string{{"a", "b"}, {"x", "y"}}) {
		t.Errorf("instances = %v", got)
	}
	if b.InputVarSet(g, "nope") != nil {
		t.Error("unknown module should yield nil")
	}
}

func TestPaperDefinitions(t *testing.T) {
	// The Fig. 2 running example: I_M1 = {a,b,c,d}, O_M1 = {d,f},
	// TM(M1) = 2 (Definitions 2 and 3 of the paper).
	g := dfg.New("ex1")
	g.AddInput("a", "b", "e", "g")
	g.AddOp("add1", dfg.Add, 1, "d", "a", "b")
	g.AddOp("mul1", dfg.Mul, 2, "c", "e", "g")
	g.AddOp("add2", dfg.Add, 3, "f", "c", "d")
	g.AddOp("mul2", dfg.Mul, 4, "h", "f", "g")
	g.MarkOutput("h")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := FromMap(g, map[string]string{"add1": "M1", "add2": "M1", "mul1": "M2", "mul2": "M2"})
	if err != nil {
		t.Fatal(err)
	}
	if tm := len(b.Module("M1").Ops); tm != 2 {
		t.Errorf("TM(M1) = %d, want 2", tm)
	}
	if got := b.InputVarSet(g, "M1"); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Errorf("I_M1 = %v, want [a b c d]", got)
	}
	if got := b.OutputVarSet(g, "M1"); !reflect.DeepEqual(got, []string{"d", "f"}) {
		t.Errorf("O_M1 = %v, want [d f]", got)
	}
}
