package sched

import (
	"reflect"
	"testing"

	"bistpath/internal/dfg"
)

// wide builds an unscheduled DFG with four independent adds feeding a
// reduction tree:
//
//	t1=a+b t2=c+d t3=e+f t4=g+h  (independent)
//	u1=t1+t2 u2=t3+t4
//	out=u1+u2
func wide(t *testing.T) *dfg.Graph {
	t.Helper()
	g := dfg.New("wide")
	if err := g.AddInput("a", "b", "c", "d", "e", "f", "g", "h"); err != nil {
		t.Fatal(err)
	}
	add := func(name, res string, x, y string) {
		t.Helper()
		if err := g.AddOp(name, dfg.Add, 0, res, x, y); err != nil {
			t.Fatal(err)
		}
	}
	add("t1", "vt1", "a", "b")
	add("t2", "vt2", "c", "d")
	add("t3", "vt3", "e", "f")
	add("t4", "vt4", "g", "h")
	add("u1", "vu1", "vt1", "vt2")
	add("u2", "vu2", "vt3", "vt4")
	add("o", "out", "vu1", "vu2")
	if err := g.MarkOutput("out"); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestASAP(t *testing.T) {
	g := wide(t)
	steps, err := ASAP(g)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"t1": 1, "t2": 1, "t3": 1, "t4": 1, "u1": 2, "u2": 2, "o": 3}
	for op, w := range want {
		if steps[op] != w {
			t.Errorf("ASAP[%s] = %d, want %d", op, steps[op], w)
		}
	}
	if Length(steps) != 3 {
		t.Errorf("Length = %d, want 3", Length(steps))
	}
}

func TestALAP(t *testing.T) {
	g := wide(t)
	steps, err := ALAP(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"o": 5, "u1": 4, "u2": 4, "t1": 3, "t2": 3, "t3": 3, "t4": 3}
	for op, w := range want {
		if steps[op] != w {
			t.Errorf("ALAP[%s] = %d, want %d", op, steps[op], w)
		}
	}
	if _, err := ALAP(g, 2); err == nil {
		t.Error("latency below critical path accepted")
	}
}

// ListSchedule issues the least mobile ready op first: with one adder
// the head of a three-add chain (ALAP-ASAP slack 4 against the bound it
// schedules with) goes before a lone add (slack 6), although the lone
// add sorts first by name.
func TestMobility(t *testing.T) {
	g := dfg.New("chain")
	if err := g.AddInput("a", "b"); err != nil {
		t.Fatal(err)
	}
	for _, op := range [][4]string{
		{"a1", "x1", "a", "b"},
		{"z1", "y1", "a", "b"},
		{"z2", "y2", "y1", "a"},
		{"z3", "y3", "y2", "b"},
	} {
		if err := g.AddOp(op[0], dfg.Add, 0, op[1], op[2], op[3]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.MarkOutput("x1", "y3"); err != nil {
		t.Fatal(err)
	}
	steps, err := ListSchedule(g, Limits{dfg.Add: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"z1": 1, "z2": 2, "z3": 3, "a1": 4}
	if !reflect.DeepEqual(steps, want) {
		t.Errorf("ListSchedule = %v, want %v", steps, want)
	}
}

func TestListScheduleUnconstrained(t *testing.T) {
	g := wide(t)
	steps, err := ListSchedule(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if Length(steps) != 3 {
		t.Errorf("unconstrained list schedule length %d, want 3", Length(steps))
	}
	if err := Apply(g, steps); err != nil {
		t.Fatal(err)
	}
}

func TestListScheduleConstrained(t *testing.T) {
	g := wide(t)
	steps, err := ListSchedule(g, Limits{dfg.Add: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 7 adds, ≤2 per step → at least 4 steps; dependencies allow exactly 4.
	if got := Length(steps); got != 4 {
		t.Errorf("constrained length = %d, want 4", got)
	}
	perStep := map[int]int{}
	for _, s := range steps {
		perStep[s]++
	}
	for s, n := range perStep {
		if n > 2 {
			t.Errorf("step %d has %d adds, limit 2", s, n)
		}
	}
	if err := Apply(g, steps); err != nil {
		t.Fatalf("constrained schedule invalid: %v", err)
	}
}

func TestListScheduleOneAdder(t *testing.T) {
	g := wide(t)
	steps, err := ListSchedule(g, Limits{dfg.Add: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := Length(steps); got != 7 {
		t.Errorf("serial schedule length = %d, want 7", got)
	}
	if err := Apply(g, steps); err != nil {
		t.Fatal(err)
	}
}

func TestApplyMissing(t *testing.T) {
	g := wide(t)
	if err := Apply(g, map[string]int{"t1": 1}); err == nil {
		t.Error("partial schedule accepted")
	}
}

func TestMixedKindsLimits(t *testing.T) {
	g := dfg.New("mixed")
	g.AddInput("a", "b", "c", "d")
	g.AddOp("m1", dfg.Mul, 0, "p", "a", "b")
	g.AddOp("m2", dfg.Mul, 0, "q", "c", "d")
	g.AddOp("s1", dfg.Add, 0, "r", "p", "q")
	g.MarkOutput("r")
	steps, err := ListSchedule(g, Limits{dfg.Mul: 1})
	if err != nil {
		t.Fatal(err)
	}
	if Length(steps) != 3 {
		t.Errorf("length = %d, want 3 (serialized muls)", Length(steps))
	}
	if err := Apply(g, steps); err != nil {
		t.Fatal(err)
	}
}
