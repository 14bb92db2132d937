// Package regassign binds DFG variables to registers. This is the
// paper's primary contribution (Sections III.A and III.B): a coloring of
// the variable conflict graph that (1) maximizes the sharing of test
// registers between modules, measured by sharing degrees, and (2) avoids
// assignments that force CBILBO registers, characterized exactly by
// Lemma 2. A traditional area-only binder is provided as the baseline the
// paper compares against.
package regassign

import (
	"math/bits"
	"slices"

	"bistpath/internal/bitset"
	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
)

// Sharing is the module-incidence index of a fixed module binding: the
// input and output variable sets of every module (Definition 3) as
// bitset rows, from which it answers the paper's sharing-degree measures
// (Definitions 4 and 5). Register variables and modules are numbered in
// name order; port-fed inputs are never register-bound and are not
// indexed. The binder reads the same rows, so the SD column of a report,
// the interconnect tie-break and the coloring share one implementation.
// A Sharing is read-only once built, so concurrent readers are safe.
type Sharing struct {
	Modules []string // module names, sorted: module id -> name

	vars          []string      // register variables, sorted: var id -> name
	in, out       bitset.Matrix // module id -> I_M / O_M over var ids
	varIn, varOut bitset.Matrix // var id -> modules it is an input / output of
}

// NewSharing builds the sharing index for a graph and module binding.
func NewSharing(g *dfg.Graph, mb *modassign.Binding) *Sharing {
	s := new(Sharing)
	s.init(g, mb, g.AllocVars())
	return s
}

// init (re)builds the index over vars, the graph's sorted register
// variables, recycling the backing arrays of an earlier build.
func (s *Sharing) init(g *dfg.Graph, mb *modassign.Binding, vars []string) {
	s.vars = vars
	s.Modules = s.Modules[:0]
	for _, m := range mb.Modules {
		s.Modules = append(s.Modules, m.Name)
	}
	slices.Sort(s.Modules)
	nm, nv := len(s.Modules), len(vars)
	s.in.Grow(nm, nv)
	s.out.Grow(nm, nv)
	s.varIn.Grow(nv, nm)
	s.varOut.Grow(nv, nm)
	for mi, name := range s.Modules {
		for _, opName := range mb.Module(name).Ops {
			op := g.Op(opName)
			for _, a := range op.Args {
				if id := s.id(a); id >= 0 {
					s.in.Row(mi).Set(id)
					s.varIn.Row(id).Set(mi)
				}
			}
			if id := s.id(op.Result); id >= 0 {
				s.out.Row(mi).Set(id)
				s.varOut.Row(id).Set(mi)
			}
		}
	}
}

// id returns the var id of a register variable, or -1.
func (s *Sharing) id(v string) int {
	if i, ok := slices.BinarySearch(s.vars, v); ok {
		return i
	}
	return -1
}

// module returns the module id of a module name.
func (s *Sharing) module(name string) int {
	i, _ := slices.BinarySearch(s.Modules, name)
	return i
}

// sdVarID returns SD(v) of var id v: a popcount of its module rows.
func (s *Sharing) sdVarID(v int) int {
	return s.varIn.Row(v).Count() + s.varOut.Row(v).Count()
}

// SDVar returns SD(v), Definition 4: the number of modules for which v is
// an input variable plus the number for which it is an output variable.
// It is 0 for a port-fed input, which no register can hold.
func (s *Sharing) SDVar(v string) int {
	if id := s.id(v); id >= 0 {
		return s.sdVarID(id)
	}
	return 0
}

// Flags returns X^R_j and Y^R_j (Definition 5) for the register holding
// vars and module j (an index into Modules): whether the register holds
// an input variable, and an output variable, of module j.
func (s *Sharing) Flags(vars []string, j int) (x, y bool) {
	in, out := s.in.Row(j), s.out.Row(j)
	for _, v := range vars {
		if id := s.id(v); id >= 0 {
			x = x || in.Has(id)
			y = y || out.Has(id)
		}
	}
	return x, y
}

// SDReg returns SD(R), Definition 5: the number of distinct input
// variable sets plus distinct output variable sets that contain at least
// one variable of the register — the popcounts of the union of its
// variables' module rows, taken one word of modules at a time.
func (s *Sharing) SDReg(vars []string) int {
	sd := 0
	for w := range bitset.Words(len(s.Modules)) {
		var x, y uint64
		for _, v := range vars {
			if id := s.id(v); id >= 0 {
				x |= s.varIn.Row(id)[w]
				y |= s.varOut.Row(id)[w]
			}
		}
		sd += bits.OnesCount64(x) + bits.OnesCount64(y)
	}
	return sd
}
