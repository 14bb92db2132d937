// Package regassign binds DFG variables to registers. This is the
// paper's primary contribution (Sections III.A and III.B): a coloring of
// the variable conflict graph that (1) maximizes the sharing of test
// registers between modules, measured by sharing degrees, and (2) avoids
// assignments that force CBILBO registers, characterized exactly by
// Lemma 2. A traditional area-only binder is provided as the baseline the
// paper compares against.
package regassign

import (
	"sort"

	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
)

// Sharing caches, for a fixed module binding, the input and output
// variable sets of every module, and evaluates the paper's sharing-degree
// measures (Definitions 4 and 5).
type Sharing struct {
	Modules []string                   // module names, stable order
	In      map[string]map[string]bool // module -> I_M
	Out     map[string]map[string]bool // module -> O_M
}

// NewSharing builds the sharing index for a graph and module binding.
func NewSharing(g *dfg.Graph, mb *modassign.Binding) *Sharing {
	s := &Sharing{
		In:  make(map[string]map[string]bool),
		Out: make(map[string]map[string]bool),
	}
	for _, m := range mb.Modules {
		s.Modules = append(s.Modules, m.Name)
		in := make(map[string]bool)
		for _, v := range mb.InputVarSet(g, m.Name) {
			in[v] = true
		}
		out := make(map[string]bool)
		for _, v := range mb.OutputVarSet(g, m.Name) {
			out[v] = true
		}
		s.In[m.Name] = in
		s.Out[m.Name] = out
	}
	sort.Strings(s.Modules)
	return s
}

// flags returns X^v_j and Y^v_j for variable v and module j.
func (s *Sharing) flags(v, module string) (x, y bool) {
	return s.In[module][v], s.Out[module][v]
}

// SDVar returns SD(v), Definition 4: the number of modules for which v is
// an input variable plus the number for which it is an output variable.
func (s *Sharing) SDVar(v string) int {
	sd := 0
	for _, m := range s.Modules {
		x, y := s.flags(v, m)
		if x {
			sd++
		}
		if y {
			sd++
		}
	}
	return sd
}

// regFlags returns X^R_j and Y^R_j (Definition 5): the OR over the
// register's variables of the per-variable flags.
func (s *Sharing) regFlags(vars []string, module string) (x, y bool) {
	for _, v := range vars {
		vx, vy := s.flags(v, module)
		x = x || vx
		y = y || vy
	}
	return x, y
}

// SDReg returns SD(R), Definition 5: the number of distinct input
// variable sets plus distinct output variable sets that contain at least
// one variable of the register.
func (s *Sharing) SDReg(vars []string) int {
	sd := 0
	for _, m := range s.Modules {
		x, y := s.regFlags(vars, m)
		if x {
			sd++
		}
		if y {
			sd++
		}
	}
	return sd
}

// SDRegWith returns SD(R, v): the sharing degree of the register after
// variable v is added to it.
func (s *Sharing) SDRegWith(vars []string, v string) int {
	return s.SDReg(append(append([]string(nil), vars...), v))
}

// DeltaSD returns ΔSD^v(R) = SD(R, v) − SD(R): the increase in the
// register's sharing degree caused by assigning v to it.
func (s *Sharing) DeltaSD(vars []string, v string) int {
	return s.SDRegWith(vars, v) - s.SDReg(vars)
}
