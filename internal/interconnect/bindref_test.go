package interconnect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// referenceBind is the original exhaustive orientation search, kept as
// the oracle for Bind: it rebuilds both port sets from scratch for
// every mask in ascending order and keeps a mask only when it is
// strictly better, so the first (smallest) best mask wins.
func referenceBind(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding, sh *regassign.Sharing) (*Binding, error) {
	ib := &Binding{Swapped: make(map[string]bool)}
	for _, m := range mb.Modules {
		if err := referenceBindModule(g, m, rb, sh, ib); err != nil {
			return nil, err
		}
	}
	return ib, nil
}

func referenceBindModule(g *dfg.Graph, m *modassign.Module, rb *regassign.Binding, sh *regassign.Sharing, ib *Binding) error {
	type inst struct {
		op   *dfg.Op
		a, b string // source ids
		comm bool
	}
	var insts []inst
	for _, opName := range m.Ops {
		op := g.Op(opName)
		a := SourceOf(rb, g, op.Args[0])
		b := a
		if op.Binary() {
			b = SourceOf(rb, g, op.Args[1])
		}
		if a == "" || b == "" {
			return fmt.Errorf("interconnect: op %s has operand with no register", opName)
		}
		insts = append(insts, inst{op: op, a: a, b: b, comm: op.Kind.Commutative() && op.Binary()})
	}
	var free []int // indices of commutative instances with distinct sources
	for i, in := range insts {
		if in.comm && in.a != in.b {
			free = append(free, i)
		}
	}
	if len(free) > 20 {
		return fmt.Errorf("interconnect: module %s has %d free instances (search cap exceeded)", m.Name, len(free))
	}
	type scoreT struct {
		muxInputs int
		lrCount   int
		lrSD      int // negated preference: higher is better
	}
	better := func(x, y scoreT) bool {
		if x.muxInputs != y.muxInputs {
			return x.muxInputs < y.muxInputs
		}
		if x.lrCount != y.lrCount {
			return x.lrCount < y.lrCount
		}
		return x.lrSD > y.lrSD
	}
	evaluate := func(mask int) scoreT {
		left := make(map[string]bool)
		right := make(map[string]bool)
		for i, in := range insts {
			a, b := in.a, in.b
			for bit, fi := range free {
				if fi == i && mask&(1<<uint(bit)) != 0 {
					a, b = b, a
				}
			}
			left[a] = true
			if in.op.Binary() {
				right[b] = true
			}
		}
		var s scoreT
		s.muxInputs = len(left) + len(right)
		for src := range left {
			if right[src] {
				s.lrCount++
				if sh != nil && !IsPad(src) {
					if r := rb.Register(src); r != nil {
						s.lrSD += sh.SDReg(r.Vars)
					}
				}
			}
		}
		return s
	}
	bestMask, bestScore := 0, evaluate(0)
	for mask := 1; mask < 1<<uint(len(free)); mask++ {
		if s := evaluate(mask); better(s, bestScore) {
			bestMask, bestScore = mask, s
		}
	}
	for bit, fi := range free {
		if bestMask&(1<<uint(bit)) != 0 {
			ib.Swapped[insts[fi].op.Name] = true
		}
	}
	return nil
}

// boundDesign is a design with its module and register bindings, ready
// for interconnect binding.
type boundDesign struct {
	name string
	g    *dfg.Graph
	mb   *modassign.Binding
	rb   *regassign.Binding
}

// differentialDesigns returns the differential corpus: the five paper
// designs (testable and traditional register binding), the dfgen
// presets s/m/l at seeds 1-6 and xl at seeds 1-3, and 300 sweep designs.
func differentialDesigns(t testing.TB) []boundDesign {
	t.Helper()
	var out []boundDesign
	addBindings := func(name string, g *dfg.Graph, mb *modassign.Binding, traditional bool) {
		rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, boundDesign{name + "/testable", g, mb, rb})
		if traditional {
			rb, err := regassign.Traditional(g)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out = append(out, boundDesign{name + "/traditional", g, mb, rb})
		}
	}
	for _, b := range benchdata.All() {
		mb, err := b.Modules()
		if err != nil {
			t.Fatal(err)
		}
		addBindings(b.Name, b.Graph, mb, true)
	}
	random := func(name string, cfg benchdata.RandomConfig, traditional bool) {
		g, mb, err := benchdata.RandomWithModules(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		addBindings(name, g, mb, traditional)
	}
	for _, preset := range []string{"s", "m", "l", "xl"} {
		seeds := 6
		if preset == "xl" {
			seeds = 3
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			cfg, _ := benchdata.Preset(preset, seed)
			random(fmt.Sprintf("%s-%d", preset, seed), cfg, false)
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		random(fmt.Sprintf("sweep-%d", seed), benchdata.SweepConfig(seed), seed%2 == 0)
	}
	return out
}

// checkBindMatchesReference asserts Bind and referenceBind agree on the
// design, with and without the sharing-degree weighting.
func checkBindMatchesReference(t *testing.T, name string, g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding) {
	t.Helper()
	for _, sh := range []*regassign.Sharing{nil, regassign.NewSharing(g, mb)} {
		got, gerr := Bind(g, mb, rb, sh)
		want, werr := referenceBind(g, mb, rb, sh)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s (weighted=%v): error %v, reference %v", name, sh != nil, gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(got.Swapped, want.Swapped) {
			t.Fatalf("%s (weighted=%v): Swapped %v, reference %v", name, sh != nil, got.Swapped, want.Swapped)
		}
	}
}

func TestBindMatchesReference(t *testing.T) {
	for _, d := range differentialDesigns(t) {
		checkBindMatchesReference(t, d.name, d.g, d.mb, d.rb)
	}
}

// synthOp is one op of a synthetic design: the module it runs on (index
// into M1, M2, ...), its kind, its operands as indices into the input
// pool, and whether it is cut down to a single operand.
type synthOp struct {
	module int
	kind   dfg.Kind
	a, b   int
	unary  bool
}

// buildSynthetic builds a design over a pool of primary inputs p0, p1,
// ...: entries flagged in pad are port-fed (pads); every other entry i
// lives in register regOf[i] mod nregs, so distinct inputs can repeat
// one source. Op i runs at step i+1 and writes o<i> into register
// i mod nregs. Unary ops are made by truncating the operand list, which
// dfg.Graph.AddOp (binary-only) cannot express directly.
func buildSynthetic(t testing.TB, pad []bool, regOf []int, nregs int, ops []synthOp) (*dfg.Graph, *modassign.Binding, *regassign.Binding) {
	t.Helper()
	g := dfg.New("synthetic")
	sets := make([][]string, nregs)
	var pads []string
	for i := range pad {
		v := fmt.Sprintf("p%d", i)
		if err := g.AddInput(v); err != nil {
			t.Fatal(err)
		}
		if pad[i] {
			pads = append(pads, v)
		} else {
			r := regOf[i] % nregs
			sets[r] = append(sets[r], v)
		}
	}
	if len(pads) > 0 {
		if err := g.MarkPortInput(pads...); err != nil {
			t.Fatal(err)
		}
	}
	opToModule := make(map[string]string, len(ops))
	for i, o := range ops {
		name, res := fmt.Sprintf("op%02d", i), fmt.Sprintf("o%d", i)
		if err := g.AddOp(name, o.kind, i+1, res, fmt.Sprintf("p%d", o.a), fmt.Sprintf("p%d", o.b)); err != nil {
			t.Fatal(err)
		}
		if o.unary {
			op := g.Op(name)
			op.Args = op.Args[:1]
		}
		opToModule[name] = fmt.Sprintf("M%d", o.module+1)
		sets[i%nregs] = append(sets[i%nregs], res)
	}
	mb, err := modassign.FromMap(g, opToModule)
	if err != nil {
		t.Fatal(err)
	}
	return g, mb, regassign.FromSets(sets)
}

// TestBindSmallestMaskAmongTies pins the tie-break on a module whose two
// best orientations tie exactly: twenty multiplies alternate (p0, p1)
// and (p1, p0), so orienting all of them one way or the other both give
// one source per port. Swapping the even instances is mask 0x55555,
// smaller than the odd instances' 0xAAAAA, so the even ones swap.
func TestBindSmallestMaskAmongTies(t *testing.T) {
	var ops []synthOp
	for i := 0; i < maxFreeInstances; i++ {
		a, b := 0, 1
		if i%2 == 1 {
			a, b = 1, 0
		}
		ops = append(ops, synthOp{kind: dfg.Mul, a: a, b: b})
	}
	g, mb, rb := buildSynthetic(t, []bool{false, false}, []int{0, 1}, 2, ops)
	for _, sh := range []*regassign.Sharing{nil, regassign.NewSharing(g, mb)} {
		ib, err := Bind(g, mb, rb, sh)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ops {
			name := fmt.Sprintf("op%02d", i)
			if ib.Swapped[name] != (i%2 == 0) {
				t.Fatalf("weighted=%v: op %s swapped=%v, want the even instances swapped", sh != nil, name, ib.Swapped[name])
			}
		}
	}
}

// tieDesign draws a synthetic design built to tie: few sources repeated
// across many instances, pads next to registers, unary, same-source and
// non-commutative instances, and side modules that vary the sharing
// degrees. Module M1 gets exactly nfree free instances.
func tieDesign(t testing.TB, rng *rand.Rand, nfree int) (*dfg.Graph, *modassign.Binding, *regassign.Binding) {
	kinds := []dfg.Kind{dfg.Add, dfg.Mul, dfg.And, dfg.Sub, dfg.Lt}
	npool := 2 + rng.Intn(5)
	nregs := 1 + rng.Intn(npool)
	pad := make([]bool, npool)
	regOf := make([]int, npool)
	for i := range pad {
		pad[i] = rng.Intn(4) == 0
		regOf[i] = rng.Intn(nregs)
	}
	// p0 and p1 are distinct sources, so free instances exist.
	pad[0], regOf[0], regOf[1] = false, 0, 1
	pad[1] = pad[1] || nregs == 1
	var ops []synthOp
	for free := 0; free < nfree; {
		o := synthOp{kind: kinds[rng.Intn(len(kinds))], a: rng.Intn(npool), b: rng.Intn(npool)}
		switch rng.Intn(8) {
		case 0:
			o.unary = true
		case 1:
			o.module = 1 + rng.Intn(2)
		}
		ops = append(ops, o)
		if o.module == 0 && !o.unary && o.kind.Commutative() && sourceOfPool(pad, regOf, nregs, o.a) != sourceOfPool(pad, regOf, nregs, o.b) {
			free++
		}
	}
	return buildSynthetic(t, pad, regOf, nregs, ops)
}

// TestBindMatchesReferenceOnTies compares Bind with the reference on
// tie-heavy synthetic modules of up to 12 free instances, and on one
// past the 20-instance cap, where both must fail alike.
func TestBindMatchesReferenceOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 200; c++ {
		nfree := 1 + rng.Intn(12)
		if c == 0 {
			nfree = maxFreeInstances + 1
		}
		g, mb, rb := tieDesign(t, rng, nfree)
		checkBindMatchesReference(t, fmt.Sprintf("case-%d", c), g, mb, rb)
	}
}

// TestBindMatchesReferenceAtCap compares Bind with the reference on a
// tie-heavy module at the 20-free-instance cap: its free instances
// draw their operands from three registers and a pad, next to a unary,
// a non-commutative and a same-source instance and a side module that
// shifts the sharing degrees. The weighted score uses all three
// criteria. The reference takes seconds over its 2^20 masks, so -short
// skips it.
func TestBindMatchesReferenceAtCap(t *testing.T) {
	if testing.Short() {
		t.Skip("reference search over 2^20 masks")
	}
	rng := rand.New(rand.NewSource(20))
	pad := []bool{false, false, false, true, false}
	regOf := []int{0, 1, 2, 0, 0} // p4 shares p0's register
	ops := []synthOp{
		{kind: dfg.Add, a: 0, b: 1, unary: true},
		{kind: dfg.Sub, a: 1, b: 2},
		{kind: dfg.Mul, a: 0, b: 4},
		{module: 1, kind: dfg.Add, a: 1, b: 3},
	}
	for free := 0; free < maxFreeInstances; {
		a, b := rng.Intn(4), rng.Intn(4)
		if a != b {
			ops = append(ops, synthOp{kind: dfg.Mul, a: a, b: b})
			free++
		}
	}
	g, mb, rb := buildSynthetic(t, pad, regOf, 3, ops)
	sh := regassign.NewSharing(g, mb)
	got, gerr := Bind(g, mb, rb, sh)
	want, werr := referenceBind(g, mb, rb, sh)
	if gerr != nil || werr != nil {
		t.Fatalf("error %v, reference %v", gerr, werr)
	}
	if !reflect.DeepEqual(got.Swapped, want.Swapped) {
		t.Fatalf("Swapped %v, reference %v", got.Swapped, want.Swapped)
	}
}

// sourceOfPool is the source id buildSynthetic gives pool entry i.
func sourceOfPool(pad []bool, regOf []int, nregs, i int) string {
	if pad[i] {
		return fmt.Sprintf("pad%d", i)
	}
	return fmt.Sprintf("reg%d", regOf[i]%nregs)
}
