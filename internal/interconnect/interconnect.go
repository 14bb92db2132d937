// Package interconnect binds data transfers to module ports and
// multiplexers (Section IV of the paper). For every module the input
// registers are partitioned into IR^L, IR^R and IR^LR (connected to the
// left, right or both input ports). Minimum connectivity minimizes
// |IR^LR| (Pangrle); the testability-weighted mode additionally prefers,
// among minimum-mux solutions, those that place registers with high
// sharing degrees on both ports, improving their chances of being chosen
// as TPGs.
package interconnect

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// PadSource is the prefix of source identifiers that denote input pads
// (port-fed inputs) rather than registers.
const PadSource = "in:"

// IsPad reports whether a source identifier denotes an input pad.
func IsPad(src string) bool { return strings.HasPrefix(src, PadSource) }

// SourceOf returns the physical source feeding the value of a variable: a
// register name, or an input-pad identifier for port-fed inputs.
func SourceOf(rb *regassign.Binding, g *dfg.Graph, varName string) string {
	if v := g.Var(varName); v != nil && v.IsPort {
		return PadSource + varName
	}
	return rb.RegisterOf(varName)
}

// Binding records, per operation, whether its two operands are swapped
// with respect to the DFG argument order when wired to the module's left
// and right ports.
type Binding struct {
	Swapped map[string]bool
}

// OperandSources returns the (left, right) source identifiers for an op
// under this binding.
func (ib *Binding) OperandSources(g *dfg.Graph, rb *regassign.Binding, op *dfg.Op) (left, right string) {
	a := SourceOf(rb, g, op.Args[0])
	b := a
	if op.Binary() {
		b = SourceOf(rb, g, op.Args[1])
	}
	if ib.Swapped[op.Name] {
		return b, a
	}
	return a, b
}

// maxFreeInstances caps the commutative instances with two distinct
// sources ("free" instances) one module may carry: Bind searches all
// 2^F orientations of a module's F free instances.
const maxFreeInstances = 20

// Bind chooses operand orientations. For each module the commutative
// instances are oriented by exhaustive search (the per-module instance
// count is small) minimizing, in order: total mux inputs over the two
// ports, |IR^LR|, and — when sh is non-nil — maximizing the summed
// sharing degree of registers connected to both ports. Non-commutative
// instances keep their argument order.
//
// The search visits the 2^F orientation masks of a module's F free
// instances in Gray-code order, so consecutive masks differ in one
// instance and the score updates in O(1) per mask. Among masks with the
// best score it keeps the numerically smallest, where bit i swaps the
// i-th free instance in m.Ops order: the orientation is a function of
// the module's op order, which callers that reuse a binding across
// reschedules must therefore hold fixed.
func Bind(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding, sh *regassign.Sharing) (*Binding, error) {
	ib := &Binding{Swapped: make(map[string]bool)}
	nsrc := len(rb.Registers) // every source is a register or a pad
	for _, v := range g.Vars() {
		if v.IsPort {
			nsrc++
		}
	}
	o := orienter{
		rb:   rb,
		sh:   sh,
		ids:  make(map[string]int32, nsrc),
		srcs: make([]source, 0, nsrc),
	}
	for _, m := range mb.Modules {
		if err := o.bindModule(g, m, ib); err != nil {
			return nil, err
		}
	}
	return ib, nil
}

// score ranks one orientation: fewer mux inputs, then fewer sources on
// both ports, then a higher sharing degree summed over those sources.
type score struct {
	muxInputs int
	lrCount   int
	lrSD      int
}

func (x score) better(y score) bool {
	if x.muxInputs != y.muxInputs {
		return x.muxInputs < y.muxInputs
	}
	if x.lrCount != y.lrCount {
		return x.lrCount < y.lrCount
	}
	return x.lrSD > y.lrSD
}

// inst is one instance of a module: its op and its operand sources as
// interned ids.
type inst struct {
	op     *dfg.Op
	a, b   int32
	binary bool
}

// source is one interned operand source of a Bind call: its name, its
// memoized sharing degree, and how many of the current module's
// instances wire it to the left (cnt[0]) and right (cnt[1]) port.
type source struct {
	name string
	sd   int // -1 until first needed
	cnt  [2]int32
}

// orienter holds one Bind call's search state: the sources interned to
// small ids for the whole call, the current module's instances, and s,
// the score of the current port counts, kept current by add and remove.
type orienter struct {
	rb *regassign.Binding
	sh *regassign.Sharing

	ids   map[string]int32
	srcs  []source
	s     score
	insts []inst
	free  []int32 // indices into insts of the free instances, in m.Ops order
}

func (o *orienter) intern(name string) int32 {
	if id, ok := o.ids[name]; ok {
		return id
	}
	id := int32(len(o.srcs))
	o.ids[name] = id
	o.srcs = append(o.srcs, source{name: name, sd: -1})
	return id
}

// sdOf returns the sharing degree a source adds to the score when it
// sits on both ports: SD of its register under sh, 0 for pads or when
// the binder is unweighted. Computed at most once per source per call.
func (o *orienter) sdOf(src *source) int {
	if src.sd < 0 {
		src.sd = 0
		if o.sh != nil && !IsPad(src.name) {
			if r := o.rb.Register(src.name); r != nil {
				src.sd = o.sh.SDReg(r.Vars)
			}
		}
	}
	return src.sd
}

// add wires one more instance's operand from source id to port p.
func (o *orienter) add(p int, id int32) {
	src := &o.srcs[id]
	if src.cnt[p] == 0 {
		o.s.muxInputs++
		if src.cnt[1-p] > 0 {
			o.s.lrCount++
			o.s.lrSD += o.sdOf(src)
		}
	}
	src.cnt[p]++
}

// remove undoes one add.
func (o *orienter) remove(p int, id int32) {
	src := &o.srcs[id]
	src.cnt[p]--
	if src.cnt[p] == 0 {
		o.s.muxInputs--
		if src.cnt[1-p] > 0 {
			o.s.lrCount--
			o.s.lrSD -= o.sdOf(src)
		}
	}
}

func (o *orienter) bindModule(g *dfg.Graph, m *modassign.Module, ib *Binding) error {
	o.insts, o.free = o.insts[:0], o.free[:0]
	for _, opName := range m.Ops {
		op := g.Op(opName)
		a := SourceOf(o.rb, g, op.Args[0])
		b := a
		if op.Binary() {
			b = SourceOf(o.rb, g, op.Args[1])
		}
		if a == "" || b == "" {
			return fmt.Errorf("interconnect: op %s has operand with no register", opName)
		}
		in := inst{op: op, a: o.intern(a), b: o.intern(b), binary: op.Binary()}
		if in.binary && op.Kind.Commutative() && a != b {
			o.free = append(o.free, int32(len(o.insts)))
		}
		o.insts = append(o.insts, in)
	}
	nfree := len(o.free)
	if nfree > maxFreeInstances {
		return fmt.Errorf("interconnect: module %s has %d free instances (search cap exceeded)", m.Name, nfree)
	}
	if nfree == 0 {
		return nil // one orientation: nothing swapped
	}

	// Score mask 0 (every instance in argument order), then walk the
	// remaining masks in Gray-code order: step k flips free instance
	// trailingZeros(k), moving its two sources across the ports.
	o.s = score{}
	for _, in := range o.insts {
		o.add(0, in.a)
		if in.binary {
			o.add(1, in.b)
		}
	}
	best, bestMask, mask := o.s, 0, 0
	for k := 1; k < 1<<nfree; k++ {
		bit := bits.TrailingZeros(uint(k))
		in := o.insts[o.free[bit]]
		l, r := in.a, in.b
		if mask&(1<<bit) != 0 {
			l, r = r, l
		}
		o.remove(0, l)
		o.remove(1, r)
		o.add(0, r)
		o.add(1, l)
		mask ^= 1 << bit
		if s := o.s; s.better(best) || (s == best && mask < bestMask) {
			best, bestMask = s, mask
		}
	}
	for _, in := range o.insts {
		o.srcs[in.a].cnt = [2]int32{}
		o.srcs[in.b].cnt = [2]int32{}
	}
	for bit, fi := range o.free {
		if bestMask&(1<<bit) != 0 {
			ib.Swapped[o.insts[fi].op.Name] = true
		}
	}
	return nil
}

// Wiring is the port wiring of a bound data path: per module (in
// mb.Modules order) the distinct sources on its left and right ports and
// the registers its output loads, and per register (in rb.Registers
// order) the distinct modules and input pads that load it. Every list is
// sorted.
type Wiring struct {
	Left, Right, Dests [][]string // by module
	Sources            [][]string // by register
}

// Wire derives the wiring of a complete set of bindings in one pass:
// datapath.Build hands its lists to the netlist and Measure counts them.
// The lists share one backing array, each capped at its own slots.
func Wire(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding, ib *Binding) Wiring {
	nm := len(mb.Modules)
	w := Wiring{
		Left:    make([][]string, nm),
		Right:   make([][]string, nm),
		Dests:   make([][]string, nm),
		Sources: make([][]string, len(rb.Registers)),
	}
	slots := 0
	for _, m := range mb.Modules {
		slots += 3 * len(m.Ops)
	}
	for _, r := range rb.Registers {
		slots += len(r.Vars)
	}
	buf := make([]string, 0, slots)
	next := func(k int) []string { // the next k slots of buf, as an empty list
		n := len(buf)
		buf = buf[:n+k]
		return buf[n : n : n+k]
	}
	for i, m := range mb.Modules {
		left, right, dests := next(len(m.Ops)), next(len(m.Ops)), next(len(m.Ops))
		for _, opName := range m.Ops {
			op := g.Op(opName)
			l, r := ib.OperandSources(g, rb, op)
			left = append(left, l)
			if op.Binary() {
				right = append(right, r)
			}
			dests = append(dests, rb.RegisterOf(op.Result))
		}
		w.Left[i], w.Right[i], w.Dests[i] = sortedSet(left), sortedSet(right), sortedSet(dests)
	}
	for i, r := range rb.Registers {
		srcs := next(len(r.Vars))
		for _, vn := range r.Vars {
			if v := g.Var(vn); v.IsInput {
				srcs = append(srcs, PadSource+vn)
			} else {
				srcs = append(srcs, mb.ModuleOf(v.Def).Name)
			}
		}
		w.Sources[i] = sortedSet(srcs)
	}
	return w
}

// sortedSet sorts list in place and drops its repeats.
func sortedSet(list []string) []string {
	slices.Sort(list)
	return slices.Compact(list)
}

// Stats summarizes the interconnect of a bound data path.
type Stats struct {
	MuxCount  int // ports (module inputs + register inputs) with ≥2 sources
	MuxInputs int // total extra mux inputs: Σ max(0, sources-1)
}

// Measure computes interconnect statistics from the wiring.
func Measure(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding, ib *Binding) Stats {
	w := Wire(g, mb, rb, ib)
	var st Stats
	for _, ports := range [][][]string{w.Left, w.Right, w.Sources} {
		for _, srcs := range ports {
			if n := len(srcs); n >= 2 {
				st.MuxCount++
				st.MuxInputs += n - 1
			}
		}
	}
	return st
}
