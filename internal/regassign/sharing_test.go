package regassign

import (
	"reflect"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
)

func ex1Sharing(t *testing.T) (*Sharing, *benchdata.Benchmark) {
	t.Helper()
	b := benchdata.Ex1()
	mb, err := b.Modules()
	if err != nil {
		t.Fatal(err)
	}
	return NewSharing(b.Graph, mb), b
}

// The paper's worked example (Section III.A.2) fixes SD values on ex1:
// SD({c}) = 2, SD({d}) = 2, SD({c},f) = 4 so ΔSD = 2, SD({d},f) = 3 so
// ΔSD = 1.
func TestSDPaperExample(t *testing.T) {
	sh, _ := ex1Sharing(t)
	if got := sh.SDReg([]string{"c"}); got != 2 {
		t.Errorf("SD({c}) = %d, want 2", got)
	}
	if got := sh.SDReg([]string{"d"}); got != 2 {
		t.Errorf("SD({d}) = %d, want 2", got)
	}
	if got := sh.SDReg([]string{"c", "f"}); got != 4 {
		t.Errorf("SD({c},f) = %d, want 4", got)
	}
	if got := sh.SDReg([]string{"c", "f"}) - sh.SDReg([]string{"c"}); got != 2 {
		t.Errorf("ΔSD^f({c}) = %d, want 2", got)
	}
	if got := sh.SDReg([]string{"d", "f"}); got != 3 {
		t.Errorf("SD({d},f) = %d, want 3", got)
	}
	if got := sh.SDReg([]string{"d", "f"}) - sh.SDReg([]string{"d"}); got != 1 {
		t.Errorf("ΔSD^f({d}) = %d, want 1", got)
	}
}

func TestSDVar(t *testing.T) {
	sh, _ := ex1Sharing(t)
	// d is input of M1 (operand of add2) and output of M1 (result of
	// add1): SD = 2. a is only an input of M1: SD = 1. h is only an
	// output of M2: SD = 1.
	want := map[string]int{"a": 1, "b": 1, "c": 2, "d": 2, "e": 1, "f": 2, "g": 1, "h": 1}
	for v, w := range want {
		if got := sh.SDVar(v); got != w {
			t.Errorf("SD(%s) = %d, want %d", v, got, w)
		}
	}
	// The index holds register variables only: a port-fed input, which
	// no register can hold, reads 0.
	p := benchdata.Paulin()
	mb, err := p.Modules()
	if err != nil {
		t.Fatal(err)
	}
	if got := NewSharing(p.Graph, mb).SDVar("dx"); got != 0 {
		t.Errorf("SD(dx) = %d, want 0 for a port-fed input", got)
	}
}

func TestSDRegUnionSemantics(t *testing.T) {
	sh, _ := ex1Sharing(t)
	// Definition 5 is an OR, not a sum: two inputs of the same module in
	// one register count once.
	if got := sh.SDReg([]string{"a", "b"}); got != 1 {
		t.Errorf("SD({a,b}) = %d, want 1 (both only inputs of M1)", got)
	}
	// Full register: every flag set = 2 modules × (in+out) = 4 max.
	if got := sh.SDReg([]string{"a", "c", "f", "h"}); got != 4 {
		t.Errorf("SD({a,c,f,h}) = %d, want 4", got)
	}
}

// NewSharing's variable sets on ex1 (Definition 3), read back through
// the per-module flags: M1 = {add1, add2} reads a, b, c, d and writes
// d, f; M2 = {mul1, mul2} reads e, f, g and writes c, h.
func TestInputOutputModules(t *testing.T) {
	sh, b := ex1Sharing(t)
	set := func(vs ...string) map[string]bool {
		m := make(map[string]bool, len(vs))
		for _, v := range vs {
			m[v] = true
		}
		return m
	}
	wantIn := map[string]map[string]bool{"M1": set("a", "b", "c", "d"), "M2": set("e", "f", "g")}
	wantOut := map[string]map[string]bool{"M1": set("d", "f"), "M2": set("c", "h")}
	gotIn, gotOut := map[string]map[string]bool{}, map[string]map[string]bool{}
	for j, m := range sh.Modules {
		gotIn[m], gotOut[m] = set(), set()
		for _, v := range b.Graph.AllocVars() {
			x, y := sh.Flags([]string{v}, j)
			if x {
				gotIn[m][v] = true
			}
			if y {
				gotOut[m][v] = true
			}
		}
	}
	if !reflect.DeepEqual(gotIn, wantIn) {
		t.Errorf("I_M = %v, want %v", gotIn, wantIn)
	}
	if !reflect.DeepEqual(gotOut, wantOut) {
		t.Errorf("O_M = %v, want %v", gotOut, wantOut)
	}
}

// ΔSD is monotone: merging more variables never lowers a register's SD.
func TestSDMonotone(t *testing.T) {
	sh, b := ex1Sharing(t)
	vars := b.Graph.AllocVars()
	for _, v := range vars {
		for _, w := range vars {
			if v == w {
				continue
			}
			if sh.SDReg([]string{v, w}) < sh.SDReg([]string{v}) {
				t.Errorf("SD({%s},%s) < SD({%s})", v, w, v)
			}
		}
	}
}

// The accessors run inside coloring loops (the RALLOC and SYNTEST
// baselines call Flags per candidate register), so none may allocate.
func TestSharingAccessorsDoNotAllocate(t *testing.T) {
	sh, _ := ex1Sharing(t)
	reg := []string{"a", "c", "f", "h"}
	if n := testing.AllocsPerRun(20, func() {
		_ = sh.SDReg(reg) + sh.SDVar("c")
		_, _ = sh.Flags(reg, 1)
	}); n != 0 {
		t.Errorf("SDReg, SDVar and Flags allocate %.0f times per call, want 0", n)
	}
}

// The index a Bind leaves in its Scratch is the one NewSharing builds:
// same modules, SD(v), SD(R) and Definition 5 flags for every register
// of the binding. One Scratch serves every design, larger ones first,
// so a stale row from an earlier, wider design would show.
func TestScratchSharingMatchesNewSharing(t *testing.T) {
	type design struct {
		name string
		g    *dfg.Graph
		mb   *modassign.Binding
	}
	var designs []design
	for _, preset := range []string{"l", "m", "s"} {
		cfg, _ := benchdata.Preset(preset, 1)
		g, mb, err := benchdata.RandomWithModules(cfg)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, design{preset + "-1", g, mb})
	}
	for _, b := range benchdata.All() {
		mb, err := b.Modules()
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, design{b.Graph.Name, b.Graph, mb})
	}
	opts := DefaultOptions()
	opts.Scratch = NewScratch()
	for _, d := range designs {
		rb, err := Bind(d.g, d.mb, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, want := opts.Scratch.Sharing(), NewSharing(d.g, d.mb)
		if !reflect.DeepEqual(got.Modules, want.Modules) {
			t.Fatalf("%s: modules %v, want %v", d.name, got.Modules, want.Modules)
		}
		for _, v := range d.g.AllocVars() {
			if g, w := got.SDVar(v), want.SDVar(v); g != w {
				t.Errorf("%s: SD(%s) = %d, want %d", d.name, v, g, w)
			}
		}
		for _, r := range rb.Registers {
			if g, w := got.SDReg(r.Vars), want.SDReg(r.Vars); g != w {
				t.Errorf("%s: SD(%s) = %d, want %d", d.name, r.Name, g, w)
			}
			for j := range want.Modules {
				gx, gy := got.Flags(r.Vars, j)
				wx, wy := want.Flags(r.Vars, j)
				if gx != wx || gy != wy {
					t.Errorf("%s: flags of %s on %s = %v,%v, want %v,%v",
						d.name, r.Name, want.Modules[j], gx, gy, wx, wy)
				}
			}
		}
	}
}
