package gates

import (
	"testing"
	"testing/quick"
)

// simFor builds a simulator and fails the test on error.
func simFor(t *testing.T, n *Netlist) *Sim {
	t.Helper()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPrimitives(t *testing.T) {
	n := New()
	a := n.InputBus("a", 1)[0]
	b := n.InputBus("b", 1)[0]
	outs := map[string]Sig{
		"and":  n.And2(a, b),
		"or":   n.Or2(a, b),
		"xor":  n.Xor2(a, b),
		"not":  n.Not1(a),
		"nand": n.Nand2(a, b),
		"nor":  n.Nor2(a, b),
		"xnor": n.Xnor2(a, b),
		"mux":  n.Mux2(a, b, n.Not1(b)), // a ? !b : b
	}
	s := simFor(t, n)
	for _, av := range []bool{false, true} {
		for _, bv := range []bool{false, true} {
			s.Set(a, av)
			s.Set(b, bv)
			s.Eval()
			want := map[string]bool{
				"and": av && bv, "or": av || bv, "xor": av != bv, "not": !av,
				"nand": !(av && bv), "nor": !(av || bv), "xnor": av == bv,
			}
			want["mux"] = bv != av // a ? !b : b
			for name, sig := range outs {
				if got := s.Get(sig); got != want[name] {
					t.Errorf("%s(%v,%v) = %v, want %v", name, av, bv, got, want[name])
				}
			}
		}
	}
}

func TestConstBusAndReadWrite(t *testing.T) {
	n := New()
	c := n.ConstBus(8, 0xA5)
	in := n.InputBus("in", 8)
	s := simFor(t, n)
	if got := s.ReadBus(c); got != 0xA5 {
		t.Errorf("const bus = %#x", got)
	}
	s.SetBus(in, 0x3C)
	if got := s.ReadBus(in); got != 0x3C {
		t.Errorf("input bus = %#x", got)
	}
}

// arithBench builds one netlist computing several operators on two 8-bit
// inputs.
func arithBench(t *testing.T) (*Sim, map[string][]Sig, []Sig, []Sig) {
	t.Helper()
	n := New()
	a := n.InputBus("a", 8)
	b := n.InputBus("b", 8)
	sum, _ := n.AddBus(a, b, Zero)
	diff, _ := n.SubBus(a, b)
	outs := map[string][]Sig{
		"add": sum,
		"sub": diff,
		"mul": n.MulBus(a, b),
		"div": n.DivBus(a, b),
		"and": n.BitwiseBus(And, a, b),
		"or":  n.BitwiseBus(Or, a, b),
		"xor": n.BitwiseBus(Xor, a, b),
		"lt":  {n.LtBus(a, b)},
	}
	return simFor(t, n), outs, a, b
}

func TestArithmeticQuick(t *testing.T) {
	s, outs, a, b := arithBench(t)
	check := func(av, bv uint8) bool {
		s.SetBus(a, uint64(av))
		s.SetBus(b, uint64(bv))
		s.Eval()
		x, y := uint64(av), uint64(bv)
		div := uint64(0xFF)
		if y != 0 {
			div = x / y
		}
		lt := uint64(0)
		if x < y {
			lt = 1
		}
		want := map[string]uint64{
			"add": (x + y) & 0xFF, "sub": (x - y) & 0xFF, "mul": (x * y) & 0xFF,
			"div": div, "and": x & y, "or": x | y, "xor": x ^ y, "lt": lt,
		}
		for name, bus := range outs {
			if got := s.ReadBus(bus); got != want[name] {
				t.Errorf("%s(%d,%d) = %d, want %d", name, av, bv, got, want[name])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Corner cases quick.Check may miss.
	for _, c := range [][2]uint8{{0, 0}, {255, 255}, {255, 1}, {1, 255}, {128, 2}, {7, 0}} {
		check(c[0], c[1])
	}
}

func TestRegisterBus(t *testing.T) {
	n := New()
	d := n.InputBus("d", 4)
	en := n.InputBus("en", 1)[0]
	q := n.RegisterBus(d, en)
	n.OutputBus("q", q)
	s := simFor(t, n)
	s.SetBus(d, 0x9)
	s.Set(en, true)
	s.Step()
	if got := s.ReadBus(q); got != 9 {
		t.Fatalf("q = %d after load", got)
	}
	s.SetBus(d, 0x3)
	s.Set(en, false)
	s.Step()
	if got := s.ReadBus(q); got != 9 {
		t.Fatalf("q = %d, enable ignored", got)
	}
	s.Set(en, true)
	s.Step()
	if got := s.ReadBus(q); got != 3 {
		t.Fatalf("q = %d after second load", got)
	}
}

func TestFeedbackRegisterCounter(t *testing.T) {
	// A 4-bit counter: q <= q + 1.
	n := New()
	r := n.NewFeedbackRegister(4)
	inc, _ := n.AddBus(r.Q, n.ConstBus(4, 1), Zero)
	r.WireD(inc, One)
	s := simFor(t, n)
	for i := 1; i <= 20; i++ {
		s.Step()
		if got := s.ReadBus(r.Q); got != uint64(i%16) {
			t.Fatalf("counter = %d at step %d", got, i)
		}
	}
}

func TestOneHotMux(t *testing.T) {
	n := New()
	s0 := n.InputBus("s0", 1)[0]
	s1 := n.InputBus("s1", 1)[0]
	a := n.InputBus("a", 4)
	b := n.InputBus("b", 4)
	out := n.OneHotMux([]Sig{s0, s1}, [][]Sig{a, b})
	sim := simFor(t, n)
	sim.SetBus(a, 0xA)
	sim.SetBus(b, 0x5)
	sim.Set(s0, true)
	sim.Eval()
	if got := sim.ReadBus(out); got != 0xA {
		t.Errorf("sel a: %#x", got)
	}
	sim.Set(s0, false)
	sim.Set(s1, true)
	sim.Eval()
	if got := sim.ReadBus(out); got != 0x5 {
		t.Errorf("sel b: %#x", got)
	}
	sim.Set(s1, false)
	sim.Eval()
	if got := sim.ReadBus(out); got != 0 {
		t.Errorf("no sel: %#x", got)
	}
}

func TestEqConst(t *testing.T) {
	n := New()
	in := n.InputBus("in", 5)
	eq := n.EqConst(in, 19)
	s := simFor(t, n)
	for v := uint64(0); v < 32; v++ {
		s.SetBus(in, v)
		s.Eval()
		if got := s.Get(eq); got != (v == 19) {
			t.Errorf("EqConst(%d) = %v", v, got)
		}
	}
}

func TestValidateCatchesDoubleDrive(t *testing.T) {
	n := New()
	a := n.InputBus("a", 1)[0]
	out := n.And2(a, One)
	n.Gates = append(n.Gates, Gate{Kind: Or, A: a, B: One, Out: out}) // second driver
	if err := n.Validate(); err == nil {
		t.Error("double-driven signal accepted")
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	n := New()
	x := n.Sig()
	y := n.Sig()
	n.Gates = append(n.Gates,
		Gate{Kind: And, A: x, B: One, Out: y},
		Gate{Kind: Or, A: y, B: Zero, Out: x})
	if err := n.Validate(); err == nil {
		t.Error("combinational cycle accepted")
	}
}

func TestStuckAtFault(t *testing.T) {
	n := New()
	a := n.InputBus("a", 1)[0]
	b := n.InputBus("b", 1)[0]
	x := n.Xor2(a, b)
	out := n.And2(x, One)
	s := simFor(t, n)
	s.Set(a, true)
	s.Set(b, false)
	s.Eval()
	if !s.Get(out) {
		t.Fatal("fault-free value wrong")
	}
	s.SetFault(&StuckAt{Sig: x, Value: false})
	s.Eval()
	if s.Get(out) {
		t.Fatal("stuck-at-0 on xor output not observed")
	}
	s.SetFault(nil)
	s.Eval()
	if !s.Get(out) {
		t.Fatal("fault removal failed")
	}
	// Fault on a primary input signal.
	s.SetFault(&StuckAt{Sig: a, Value: false})
	s.Eval()
	if s.Get(out) {
		t.Fatal("input fault not applied")
	}
}

func TestAllFaultSites(t *testing.T) {
	n := New()
	a := n.InputBus("a", 2)
	sum, _ := n.AddBus(a, n.ConstBus(2, 1), Zero)
	q := n.RegisterBus(sum, One)
	n.OutputBus("q", q)
	sites := n.AllFaultSites()
	want := 2 * (n.NumGates() + n.NumDFFs())
	if len(sites) != want {
		t.Errorf("got %d fault sites, want %d", len(sites), want)
	}
}

func TestStats(t *testing.T) {
	n := New()
	a := n.InputBus("a", 4)
	b := n.InputBus("b", 4)
	sum, _ := n.AddBus(a, b, Zero)
	n.RegisterBus(sum, One)
	st := n.Stats()
	if st["dff"] != 4 || st["xor"] == 0 || st["and"] == 0 {
		t.Errorf("stats = %v", st)
	}
}
