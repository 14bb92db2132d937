package dfg

import (
	"math/rand"
	"strings"
	"testing"
)

// buildDiamond returns a small scheduled DFG:
//
//	step 1: o1: t1 = a + b
//	step 2: o2: t2 = t1 * c
//	step 3: o3: out = t2 - a
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	if err := g.AddInput("a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	mustOp := func(name string, k Kind, step int, res string, args ...string) {
		t.Helper()
		if err := g.AddOp(name, k, step, res, args...); err != nil {
			t.Fatal(err)
		}
	}
	mustOp("o1", Add, 1, "t1", "a", "b")
	mustOp("o2", Mul, 2, "t2", "t1", "c")
	mustOp("o3", Sub, 3, "out", "t2", "a")
	if err := g.MarkOutput("out"); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildAndValidate(t *testing.T) {
	g := buildDiamond(t)
	if got := g.NumSteps(); got != 3 {
		t.Errorf("NumSteps = %d, want 3", got)
	}
	if !g.Scheduled() {
		t.Error("Scheduled() = false, want true")
	}
	if got := len(g.Ops()); got != 3 {
		t.Errorf("len(Ops) = %d, want 3", got)
	}
	if got := len(g.Vars()); got != 6 {
		t.Errorf("len(Vars) = %d, want 6", got)
	}
	if g.Op("o2").Kind != Mul {
		t.Errorf("o2 kind = %q, want *", g.Op("o2").Kind)
	}
	if got := g.Inputs(); len(got) != 3 || got[0] != "a" {
		t.Errorf("Inputs = %v", got)
	}
	if got := g.Outputs(); len(got) != 1 || got[0] != "out" {
		t.Errorf("Outputs = %v", got)
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("duplicate var", func(t *testing.T) {
		g := New("x")
		g.AddInput("a")
		if err := g.AddInput("a"); err == nil {
			t.Error("duplicate input accepted")
		}
	})
	t.Run("unknown operand", func(t *testing.T) {
		g := New("x")
		if err := g.AddOp("o", Add, 1, "r", "nope", "nada"); err == nil {
			t.Error("unknown operand accepted")
		}
	})
	t.Run("bad kind", func(t *testing.T) {
		g := New("x")
		g.AddInput("a", "b")
		if err := g.AddOp("o", Kind("%"), 1, "r", "a", "b"); err == nil {
			t.Error("invalid kind accepted")
		}
	})
	t.Run("dead variable", func(t *testing.T) {
		g := New("x")
		g.AddInput("a", "b")
		g.AddOp("o", Add, 1, "r", "a", "b")
		// r not marked output, never used
		if err := g.Validate(); err == nil {
			t.Error("dead variable accepted")
		}
	})
	t.Run("schedule violates dependency", func(t *testing.T) {
		g := New("x")
		g.AddInput("a", "b")
		g.AddOp("o1", Add, 2, "r", "a", "b")
		g.AddOp("o2", Mul, 2, "s", "r", "a")
		g.MarkOutput("r", "s")
		if err := g.Validate(); err == nil {
			t.Error("same-step producer/consumer accepted")
		}
	})
	t.Run("empty graph", func(t *testing.T) {
		if err := New("x").Validate(); err == nil {
			t.Error("empty graph accepted")
		}
	})
}

func TestLifetimes(t *testing.T) {
	g := buildDiamond(t)
	lts, err := g.Lifetimes()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Lifetime{
		"a":   {Var: "a", Born: 0, Dies: 3},
		"b":   {Var: "b", Born: 0, Dies: 1},
		"c":   {Var: "c", Born: 1, Dies: 2}, // arrives just in time for o2@2
		"t1":  {Var: "t1", Born: 1, Dies: 2},
		"t2":  {Var: "t2", Born: 2, Dies: 3},
		"out": {Var: "out", Born: 3, Dies: 4},
	}
	for name, w := range want {
		if got := lts[name]; got != w {
			t.Errorf("lifetime[%s] = %v, want %v", name, got, w)
		}
	}
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		a, b Lifetime
		want bool
	}{
		{Lifetime{"u", 0, 1}, Lifetime{"v", 1, 2}, false}, // chained: u dies when v born
		{Lifetime{"u", 0, 2}, Lifetime{"v", 1, 3}, true},
		{Lifetime{"u", 0, 5}, Lifetime{"v", 2, 3}, true}, // containment
		{Lifetime{"u", 0, 1}, Lifetime{"v", 3, 4}, false},
		{Lifetime{"u", 2, 4}, Lifetime{"v", 2, 4}, true}, // identical
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap not symmetric for %v, %v", c.a, c.b)
		}
	}
}

// TestCliqueSizesMatchesCounting checks CliqueSizes' difference array
// against the definition: count, per step, the lifetimes occupying a
// register during it. The scratch profile is handed back dirty.
func TestCliqueSizesMatchesCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var dens []int32
	for trial := 0; trial < 200; trial++ {
		lts := make([]Lifetime, rng.Intn(12))
		for i := range lts {
			born := rng.Intn(10)
			lts[i] = Lifetime{Born: born, Dies: born + 1 + rng.Intn(5)}
		}
		occupied := func(lt Lifetime, step int) bool { return lt.Born < step && step <= lt.Dies }
		density := func(step int) int32 {
			n := int32(0)
			for _, lt := range lts {
				if occupied(lt, step) {
					n++
				}
			}
			return n
		}
		wantMax := int32(0)
		for step := 1; step <= 15; step++ {
			wantMax = max(wantMax, density(step))
		}
		mcs := make([]int32, len(lts))
		var got int
		got, dens = CliqueSizes(lts, mcs, dens)
		if got != int(wantMax) {
			t.Fatalf("trial %d: max density %d, want %d (%v)", trial, got, wantMax, lts)
		}
		for i, lt := range lts {
			want := int32(0)
			for step := lt.Born + 1; step <= lt.Dies; step++ {
				want = max(want, density(step))
			}
			if mcs[i] != want {
				t.Fatalf("trial %d: MCS(%v) = %d, want %d (%v)", trial, lt, mcs[i], want, lts)
			}
		}
		if k, _ := CliqueSizes(lts, nil, nil); k != got {
			t.Fatalf("trial %d: without mcs, max density %d, want %d", trial, k, got)
		}
	}
}

func TestConflictsAndDensity(t *testing.T) {
	g := buildDiamond(t)
	conf, err := g.Conflicts()
	if err != nil {
		t.Fatal(err)
	}
	if !conf["a"]["t1"] || !conf["t1"]["a"] {
		t.Error("a and t1 should conflict (a alive through step 3)")
	}
	if conf["t1"]["t2"] {
		t.Error("t1 and t2 should chain, not conflict")
	}
	if conf["b"]["t1"] {
		t.Error("b dies at step 1, t1 born at step 1: no conflict")
	}
	minR, err := g.MinRegisters()
	if err != nil {
		t.Fatal(err)
	}
	// step1: a,b,c alive; step2: a,c,t1; step3: a,t2; step4: out → max 3
	if minR != 3 {
		t.Errorf("MinRegisters = %d, want 3", minR)
	}
	mcs, err := g.MaxCliqueSize()
	if err != nil {
		t.Fatal(err)
	}
	if mcs["a"] != 3 {
		t.Errorf("MCS(a) = %d, want 3", mcs["a"])
	}
	if mcs["out"] != 1 {
		t.Errorf("MCS(out) = %d, want 1", mcs["out"])
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `
# a comment
dfg demo
input a b c
op o1 + a b -> t1 @1
op o2 * t1 c -> t2 @2
op o3 - t2 a -> out @3
output out
`
	g, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "demo" {
		t.Errorf("name = %q", g.Name)
	}
	text := g.Text()
	g2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\ntext:\n%s", err, text)
	}
	if g2.Text() != text {
		t.Errorf("round trip not stable:\n%s\nvs\n%s", text, g2.Text())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bogus directive",
		"op o1 + a b -> r @1", // a,b undeclared
		"input a\nop o1 + a -> ",
		"input a b\nop o1 + a b r @1",
		"input a b\nop o1 + a b -> r @x",
		"input a b\nop o1 + a b -> r extra",
		"input a b\nop o1 + a b -> r @1\noutput r nope",
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("accepted bad input %q", src)
		}
	}
}

func TestEval(t *testing.T) {
	g := buildDiamond(t)
	vals, err := g.Eval(map[string]uint64{"a": 3, "b": 4, "c": 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// t1 = 7, t2 = 35, out = 32
	if vals["out"] != 32 {
		t.Errorf("out = %d, want 32", vals["out"])
	}
	// Overflow wraps at width.
	vals, err = g.Eval(map[string]uint64{"a": 200, "b": 100, "c": 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if vals["t1"] != (200+100)&0xff {
		t.Errorf("t1 = %d, want %d", vals["t1"], (200+100)&0xff)
	}
}

func TestEvalAllKinds(t *testing.T) {
	g := New("kinds")
	g.AddInput("a", "b")
	kinds := []Kind{Add, Sub, Mul, Div, And, Or, Xor, Lt, Gt}
	for i, k := range kinds {
		name := "o" + string(rune('0'+i))
		if err := g.AddOp(name, k, i+1, "r"+string(rune('0'+i)), "a", "b"); err != nil {
			t.Fatal(err)
		}
		g.MarkOutput("r" + string(rune('0'+i)))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	const ones = ^uint64(0)
	cases := []struct {
		width int
		a, b  uint64
		want  []uint64 // one per kind, in kinds order
	}{
		{8, 12, 5, []uint64{17, 7, 60, 2, 4, 13, 9, 0, 1}},
		// Division by zero: all ones.
		{8, 12, 0, []uint64{12, 12, 0, 0xff, 0, 12, 12, 0, 1}},
		// Operands above the width are reduced: 13 is 1 and 6 is 0 at
		// width 1, so the division is by zero too.
		{1, 13, 6, []uint64{1, 1, 0, 1, 0, 1, 1, 0, 1}},
		{64, ones, 2, []uint64{1, ones - 2, ones - 1, ones >> 1, 2, ones, ones - 2, 0, 1}},
		{64, 12, 0, []uint64{12, 12, 0, ones, 0, 12, 12, 0, 1}},
	}
	for _, c := range cases {
		vals, err := g.Eval(map[string]uint64{"a": c.a, "b": c.b}, c.width)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range c.want {
			name := "r" + string(rune('0'+i))
			if vals[name] != w {
				t.Errorf("width %d: %d %s %d = %d, want %d", c.width, c.a, kinds[i], c.b, vals[name], w)
			}
			if got := kinds[i].Apply(c.a, c.b, c.width); got != w {
				t.Errorf("width %d: Apply(%d %s %d) = %d, want %d", c.width, c.a, kinds[i], c.b, got, w)
			}
		}
	}
}

func TestEvalErrors(t *testing.T) {
	g := buildDiamond(t)
	if _, err := g.Eval(map[string]uint64{"a": 1}, 8); err == nil {
		t.Error("missing inputs accepted")
	}
	if _, err := g.Eval(map[string]uint64{"a": 1, "b": 2, "c": 3}, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := g.Eval(map[string]uint64{"a": 1, "b": 2, "c": 3}, 65); err == nil {
		t.Error("width 65 accepted")
	}
}

func TestClone(t *testing.T) {
	g := buildDiamond(t)
	c := g.Clone()
	c.Op("o1").Step = 9
	if g.Op("o1").Step == 9 {
		t.Error("clone shares op storage")
	}
	c.Var("a").Uses[0] = "zap"
	if g.Var("a").Uses[0] == "zap" {
		t.Error("clone shares uses storage")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("original damaged by clone mutation: %v", err)
	}
}

func TestOpsAtStepAndString(t *testing.T) {
	g := buildDiamond(t)
	if ops := g.OpsAtStep(2); len(ops) != 1 || ops[0].Name != "o2" {
		t.Errorf("OpsAtStep(2) = %v", ops)
	}
	if ops := g.OpsAtStep(7); len(ops) != 0 {
		t.Errorf("OpsAtStep(7) = %v", ops)
	}
	s := g.Op("o1").String()
	if !strings.Contains(s, "t1 = a + b") {
		t.Errorf("Op.String = %q", s)
	}
}

func TestKindProperties(t *testing.T) {
	comm := []Kind{Add, Mul, And, Or, Xor}
	for _, k := range comm {
		if !k.Commutative() {
			t.Errorf("%s should be commutative", k)
		}
	}
	noncomm := []Kind{Sub, Div, Lt, Gt}
	for _, k := range noncomm {
		if k.Commutative() {
			t.Errorf("%s should not be commutative", k)
		}
	}
	if Kind("%").Valid() {
		t.Error("%% should be invalid")
	}
}

func TestRename(t *testing.T) {
	g := New("r")
	g.AddInput("a", "b")
	g.AddOp("o1", Add, 1, "tmp", "a", "b")
	if err := g.Rename("tmp", "out"); err != nil {
		t.Fatal(err)
	}
	if g.Var("tmp") != nil || g.Var("out") == nil {
		t.Error("rename did not move the variable")
	}
	if g.Op("o1").Result != "out" {
		t.Error("op result not updated")
	}
	g.MarkOutput("out")
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Error paths.
	if err := g.Rename("nope", "x"); err == nil {
		t.Error("unknown variable renamed")
	}
	if err := g.Rename("out", "a"); err == nil {
		t.Error("rename onto existing name accepted")
	}
	if err := g.Rename("a", "c"); err == nil {
		t.Error("primary input renamed")
	}
	g.AddOp("o2", Mul, 2, "y", "out", "a")
	g.MarkOutput("y")
	if err := g.Rename("out", "z"); err == nil {
		t.Error("referenced variable renamed")
	}
}
