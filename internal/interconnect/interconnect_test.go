package interconnect

import (
	"reflect"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// bindEx1 returns the fully bound ex1 benchmark.
func bindEx1(t *testing.T) (*dfg.Graph, *modassign.Binding, *regassign.Binding, *Binding) {
	t.Helper()
	b := benchdata.Ex1()
	mb, err := b.Modules()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regassign.Bind(b.Graph, mb, regassign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sh := regassign.NewSharing(b.Graph, mb)
	ib, err := Bind(b.Graph, mb, rb, sh)
	if err != nil {
		t.Fatal(err)
	}
	return b.Graph, mb, rb, ib
}

func TestSourceOf(t *testing.T) {
	b := benchdata.Paulin()
	mb, _ := b.Modules()
	rb, err := regassign.Bind(b.Graph, mb, regassign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// dx is a port input: source is a pad.
	if s := SourceOf(rb, b.Graph, "dx"); s != "in:dx" {
		t.Errorf("SourceOf(dx) = %q, want in:dx", s)
	}
	if !IsPad("in:dx") || IsPad("R1") {
		t.Error("IsPad misclassifies")
	}
	// x is register allocated.
	if s := SourceOf(rb, b.Graph, "x"); IsPad(s) || s == "" {
		t.Errorf("SourceOf(x) = %q, want a register", s)
	}
}

func TestOperandSourcesRespectCommutativity(t *testing.T) {
	g, mb, rb, ib := bindEx1(t)
	_ = mb
	for _, op := range g.Ops() {
		l, r := ib.OperandSources(g, rb, op)
		a := SourceOf(rb, g, op.Args[0])
		bsrc := SourceOf(rb, g, op.Args[1])
		if ib.Swapped[op.Name] {
			if l != bsrc || r != a {
				t.Errorf("op %s swapped sources wrong: %s,%s", op.Name, l, r)
			}
			if op.Kind.Commutative() == false {
				t.Errorf("non-commutative op %s was swapped", op.Name)
			}
		} else if l != a || r != bsrc {
			t.Errorf("op %s sources wrong: %s,%s", op.Name, l, r)
		}
	}
}

func TestPortSourcesCoverEveryInstance(t *testing.T) {
	g, mb, rb, ib := bindEx1(t)
	for _, m := range mb.Modules {
		left, right := PortSources(g, mb, rb, ib, m.Name)
		if len(left) == 0 || len(right) == 0 {
			t.Fatalf("module %s has empty port: L=%v R=%v", m.Name, left, right)
		}
		for _, opName := range m.Ops {
			l, r := ib.OperandSources(g, rb, g.Op(opName))
			if !containsT(left, l) {
				t.Errorf("op %s left source %s not in %v", opName, l, left)
			}
			if !containsT(right, r) {
				t.Errorf("op %s right source %s not in %v", opName, r, right)
			}
		}
	}
}

func TestIRPartitionDisjointAndComplete(t *testing.T) {
	g, mb, rb, ib := bindEx1(t)
	for _, m := range mb.Modules {
		p := InputRegisterPartition(g, mb, rb, ib, m.Name)
		seen := map[string]int{}
		for _, s := range p.L {
			seen[s]++
		}
		for _, s := range p.R {
			seen[s]++
		}
		for _, s := range p.LR {
			seen[s]++
		}
		for reg, n := range seen {
			if n != 1 {
				t.Errorf("module %s: register %s appears %d times in partition", m.Name, reg, n)
			}
		}
	}
}

func TestNonCommutativeNeverSwapped(t *testing.T) {
	g := dfg.New("nc")
	g.AddInput("a", "b", "c")
	g.AddOp("s1", dfg.Sub, 1, "x", "a", "b")
	g.AddOp("s2", dfg.Sub, 2, "y", "c", "x")
	g.MarkOutput("y")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mb, err := modassign.FromMap(g, map[string]string{"s1": "M1", "s2": "M1"})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ib, err := Bind(g, mb, rb, nil)
	if err != nil {
		t.Fatal(err)
	}
	for op, sw := range ib.Swapped {
		if sw {
			t.Errorf("non-commutative op %s swapped", op)
		}
	}
}

func TestBindMinimizesMuxInputs(t *testing.T) {
	// Two commutative ops on one module sharing registers: the binder
	// must orient them so each port has a single source.
	// op1 = p * q, op2 = q * p (same sources reversed in the DFG).
	g := dfg.New("swap")
	g.AddInput("p", "q", "r", "s")
	g.AddOp("m1", dfg.Mul, 1, "x", "p", "q")
	g.AddOp("m2", dfg.Mul, 2, "y", "r", "s")
	g.MarkOutput("x", "y")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mb, err := modassign.FromMap(g, map[string]string{"m1": "M1", "m2": "M1"})
	if err != nil {
		t.Fatal(err)
	}
	// Force p,s into one register and q,r into another so that without
	// swapping, both ports would see both registers.
	rb := regassign.FromSets([][]string{{"p", "s"}, {"q", "r", "y"}, {"x"}})
	if err := rb.Validate(g); err != nil {
		t.Fatal(err)
	}
	ib, err := Bind(g, mb, rb, nil)
	if err != nil {
		t.Fatal(err)
	}
	left, right := PortSources(g, mb, rb, ib, "M1")
	if len(left)+len(right) != 2 {
		t.Errorf("orientation missed: L=%v R=%v (want one source per port)", left, right)
	}
}

func TestRegisterSources(t *testing.T) {
	g, mb, rb, _ := bindEx1(t)
	srcs := RegisterSources(g, mb, rb)
	if len(srcs) != rb.NumRegisters() {
		t.Fatalf("got %d entries", len(srcs))
	}
	// The register holding primary input a must list pad in:a.
	ra := rb.RegisterOf("a")
	if !containsT(srcs[ra], "in:a") {
		t.Errorf("register %s sources %v missing in:a", ra, srcs[ra])
	}
	// The register holding d (result of add1 on M1) must list M1.
	rd := rb.RegisterOf("d")
	if !containsT(srcs[rd], "M1") {
		t.Errorf("register %s sources %v missing M1", rd, srcs[rd])
	}
}

func TestMeasure(t *testing.T) {
	g, mb, rb, ib := bindEx1(t)
	st := Measure(g, mb, rb, ib)
	if st.MuxCount <= 0 || st.MuxInputs < st.MuxCount {
		t.Errorf("implausible stats %+v", st)
	}
}

func TestWeightedPrefersHighSDInLR(t *testing.T) {
	// When mux-input counts tie, the weighted binder must choose the
	// orientation that puts the higher-SD register on both ports.
	for _, b := range benchdata.All() {
		g := b.Graph
		mb, err := b.Modules()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sh := regassign.NewSharing(g, mb)
		w, err := Bind(g, mb, rb, sh)
		if err != nil {
			t.Fatal(err)
		}
		u, err := Bind(g, mb, rb, nil)
		if err != nil {
			t.Fatal(err)
		}
		sw, su := Measure(g, mb, rb, w), Measure(g, mb, rb, u)
		if sw.MuxInputs != su.MuxInputs {
			t.Errorf("%s: weighting changed mux inputs: %d vs %d", b.Name, sw.MuxInputs, su.MuxInputs)
		}
		lrSD := func(ib *Binding) int {
			total := 0
			for _, m := range mb.Modules {
				for _, reg := range InputRegisterPartition(g, mb, rb, ib, m.Name).LR {
					total += sh.SDReg(rb.Register(reg).Vars)
				}
			}
			return total
		}
		if lrSD(w) < lrSD(u) {
			t.Errorf("%s: weighted LR sharing degree %d < unweighted %d", b.Name, lrSD(w), lrSD(u))
		}
	}
}

// Allocation guard for the orientation search: Bind allocates per call,
// per module and per interned source, never per mask. dfgen l-3 walks
// 2^14 masks on one module, yet must stay within a small multiple of
// ex1's count; a per-mask allocation would multiply it by thousands.
func TestBindAllocsIndependentOfMaskCount(t *testing.T) {
	allocs := func(g *dfg.Graph, mb *modassign.Binding, minFree int) float64 {
		rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sh := regassign.NewSharing(g, mb)
		if _, err := Bind(g, mb, rb, sh); err != nil {
			t.Fatal(err)
		}
		if f := maxFree(g, mb, rb); f < minFree {
			t.Fatalf("%s: largest module has %d free instances, want >= %d", g.Name, f, minFree)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Bind(g, mb, rb, sh); err != nil {
				t.Fatal(err)
			}
		})
	}
	ex1 := benchdata.Ex1()
	mb, err := ex1.Modules()
	if err != nil {
		t.Fatal(err)
	}
	paper := allocs(ex1.Graph, mb, 0)
	cfg, _ := benchdata.Preset("l", 3)
	g, lmb, err := benchdata.RandomWithModules(cfg)
	if err != nil {
		t.Fatal(err)
	}
	large := allocs(g, lmb, 14)
	if large > 4*paper {
		t.Fatalf("Bind on l-3 allocates %.0f allocs/run, ex1 %.0f: want at most 4x", large, paper)
	}
}

// maxFree returns the largest number of free instances (commutative,
// two distinct sources) on one module.
func maxFree(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding) int {
	best := 0
	for _, m := range mb.Modules {
		n := 0
		for _, name := range m.Ops {
			op := g.Op(name)
			if op.Binary() && op.Kind.Commutative() && SourceOf(rb, g, op.Args[0]) != SourceOf(rb, g, op.Args[1]) {
				n++
			}
		}
		best = max(best, n)
	}
	return best
}

func containsT(list []string, x string) bool {
	for _, s := range list {
		if s == x {
			return true
		}
	}
	return false
}

var _ = reflect.DeepEqual
