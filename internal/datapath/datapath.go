// Package datapath materializes an allocation (module + register +
// interconnect bindings) into an RTL data-path netlist: registers,
// functional modules, multiplexers and the per-step control program. It
// also provides structural validation, I-path queries for the BIST
// optimizer, and a cycle simulator that checks the bound data path
// against direct DFG evaluation.
package datapath

import (
	"fmt"
	"slices"
	"strings"

	"bistpath/internal/dfg"
	"bistpath/internal/interconnect"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// Module is a functional module with its port connectivity.
type Module struct {
	Name  string
	Kinds []dfg.Kind
	Left  []string // sources wired to the left port (registers or pads), sorted
	Right []string // sources wired to the right port, sorted
	Dests []string // registers latching the module output, sorted
}

// Register is a storage element with its data sources.
type Register struct {
	Name    string
	Vars    []string // variables bound to it, sorted
	Sources []string // modules and pads that load it, sorted
}

// MicroOp is one operation execution in the control program.
type MicroOp struct {
	Op       string
	Kind     dfg.Kind
	Module   string
	LeftSrc  string // register or pad supplying the left operand
	RightSrc string // register or pad supplying the right operand ("" for unary)
	DestReg  string // register latching the result
}

// Load is an input-pad-to-register transfer at the end of a step.
type Load struct {
	Reg string
	Pad string // "in:<var>"
	Var string
}

// Step is the activity of one control step. Step 0 carries only the
// initial input loads.
type Step struct {
	N     int
	Ops   []MicroOp
	Loads []Load
}

// Datapath is the complete netlist plus control program.
type Datapath struct {
	Name    string
	Width   int
	Regs    []*Register
	Modules []*Module
	InPads  []string // pad identifiers ("in:<var>"), sorted
	Outputs []string // primary output variable names, sorted
	Steps   []Step   // index = control step (0..NumSteps)

	graph *dfg.Graph
	regIx map[string]*Register
	modIx map[string]*Module
}

// Register returns the named register, or nil.
func (dp *Datapath) Register(name string) *Register { return dp.regIx[name] }

// Module returns the named module, or nil.
func (dp *Datapath) Module(name string) *Module { return dp.modIx[name] }

// Graph returns the DFG the data path implements.
func (dp *Datapath) Graph() *dfg.Graph { return dp.graph }

// Build constructs the netlist for a complete set of bindings.
func Build(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding, ib *interconnect.Binding, width int) (*Datapath, error) {
	if width <= 0 || width > 64 {
		return nil, fmt.Errorf("datapath: width %d out of range [1,64]", width)
	}
	lts, err := g.Lifetimes()
	if err != nil {
		return nil, err
	}
	dp := &Datapath{
		Name:  g.Name,
		Width: width,
		graph: g,
		regIx: make(map[string]*Register),
		modIx: make(map[string]*Module),
	}
	// Registers and modules, with the port lists of the one wiring pass.
	w := interconnect.Wire(g, mb, rb, ib)
	for i, r := range rb.Registers {
		nr := &Register{Name: r.Name, Vars: append([]string(nil), r.Vars...), Sources: w.Sources[i]}
		dp.Regs = append(dp.Regs, nr)
		dp.regIx[nr.Name] = nr
	}
	for i, m := range mb.Modules {
		nm := &Module{
			Name:  m.Name,
			Kinds: append([]dfg.Kind(nil), m.Class.Kinds...),
			Left:  w.Left[i],
			Right: w.Right[i],
			Dests: w.Dests[i],
		}
		dp.Modules = append(dp.Modules, nm)
		dp.modIx[nm.Name] = nm
	}
	// Pads, sorted as their input names are.
	for _, v := range g.Inputs() {
		dp.InPads = append(dp.InPads, interconnect.PadSource+v)
	}
	dp.Outputs = g.Outputs()
	// Control program.
	dp.Steps = buildSteps(g, mb, rb, ib, lts)
	return dp, dp.Validate()
}

// buildSteps derives the control program — the one part of the netlist
// that depends on the schedule — from the graph and bindings.
func buildSteps(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding, ib *interconnect.Binding, lts map[string]dfg.Lifetime) []Step {
	n := g.NumSteps()
	steps := make([]Step, n+1)
	for s := 0; s <= n; s++ {
		steps[s].N = s
	}
	for _, op := range g.Ops() {
		l, r := ib.OperandSources(g, rb, op)
		mo := MicroOp{
			Op:      op.Name,
			Kind:    op.Kind,
			Module:  mb.ModuleOf(op.Name).Name,
			LeftSrc: l,
			DestReg: rb.RegisterOf(op.Result),
		}
		if op.Binary() {
			mo.RightSrc = r
		}
		steps[op.Step].Ops = append(steps[op.Step].Ops, mo)
	}
	for _, v := range g.Vars() {
		if !v.IsInput || v.IsPort {
			continue
		}
		born := lts[v.Name].Born
		steps[born].Loads = append(steps[born].Loads, Load{
			Reg: rb.RegisterOf(v.Name),
			Pad: interconnect.PadSource + v.Name,
			Var: v.Name,
		})
	}
	sortSteps(steps)
	return steps
}

// sortSteps puts each step's micro-ops in op-name order and its loads in
// variable order, the canonical order of a control program.
func sortSteps(steps []Step) {
	for s := range steps {
		slices.SortFunc(steps[s].Ops, func(a, b MicroOp) int { return strings.Compare(a.Op, b.Op) })
		slices.SortFunc(steps[s].Loads, func(a, b Load) int { return strings.Compare(a.Var, b.Var) })
	}
}

// WithSchedule returns a copy of dp re-targeted at g: the same netlist
// (registers, modules and pads are shared, not copied) with the control
// program re-timed to g's schedule. Each micro-op moves to its op's step
// in g and each input load to its input's birth step in lts, g's
// lifetimes. It is the incremental re-synthesis layer's datapath phase
// for edits that change nothing but control steps: the caller must
// guarantee g is structurally identical to the graph dp was built from —
// same operations, operand wiring, port marks and bindings — which the
// Session proves by equal lifetime-overlap matrices and an identical
// module binding before taking this path.
func (dp *Datapath) WithSchedule(g *dfg.Graph, lts map[string]dfg.Lifetime) (*Datapath, error) {
	steps := make([]Step, g.NumSteps()+1)
	for s := range steps {
		steps[s].N = s
	}
	for _, st := range dp.Steps {
		for _, mo := range st.Ops {
			s := g.Op(mo.Op).Step
			steps[s].Ops = append(steps[s].Ops, mo)
		}
		for _, ld := range st.Loads {
			born := lts[ld.Var].Born
			steps[born].Loads = append(steps[born].Loads, ld)
		}
	}
	sortSteps(steps)
	ndp := &Datapath{
		Name:    dp.Name,
		Width:   dp.Width,
		Regs:    dp.Regs,
		Modules: dp.Modules,
		InPads:  dp.InPads,
		Outputs: dp.Outputs,
		Steps:   steps,
		graph:   g,
		regIx:   dp.regIx,
		modIx:   dp.modIx,
	}
	return ndp, ndp.Validate()
}

// Validate performs structural checks on the netlist and control program.
func (dp *Datapath) Validate() error {
	for _, m := range dp.Modules {
		if len(m.Left) == 0 {
			return fmt.Errorf("datapath %s: module %s left port has no source", dp.Name, m.Name)
		}
		if len(m.Dests) == 0 {
			return fmt.Errorf("datapath %s: module %s output drives nothing", dp.Name, m.Name)
		}
		for _, d := range m.Dests {
			if dp.regIx[d] == nil {
				return fmt.Errorf("datapath %s: module %s dest %q is not a register", dp.Name, m.Name, d)
			}
		}
		for _, s := range append(append([]string(nil), m.Left...), m.Right...) {
			if !interconnect.IsPad(s) && dp.regIx[s] == nil {
				return fmt.Errorf("datapath %s: module %s port source %q unknown", dp.Name, m.Name, s)
			}
		}
	}
	seenOps := make(map[string]bool)
	for s, st := range dp.Steps {
		written := make(map[string]string)
		for _, mo := range st.Ops {
			if seenOps[mo.Op] {
				return fmt.Errorf("datapath %s: op %s scheduled twice", dp.Name, mo.Op)
			}
			seenOps[mo.Op] = true
			m := dp.modIx[mo.Module]
			if m == nil {
				return fmt.Errorf("datapath %s: op %s on unknown module %s", dp.Name, mo.Op, mo.Module)
			}
			if !slices.Contains(m.Left, mo.LeftSrc) {
				return fmt.Errorf("datapath %s: op %s left source %s not wired to %s.L", dp.Name, mo.Op, mo.LeftSrc, m.Name)
			}
			if mo.RightSrc != "" && !slices.Contains(m.Right, mo.RightSrc) {
				return fmt.Errorf("datapath %s: op %s right source %s not wired to %s.R", dp.Name, mo.Op, mo.RightSrc, m.Name)
			}
			if !slices.Contains(m.Dests, mo.DestReg) {
				return fmt.Errorf("datapath %s: op %s dest %s not wired from %s", dp.Name, mo.Op, mo.DestReg, m.Name)
			}
			if prev, clash := written[mo.DestReg]; clash {
				return fmt.Errorf("datapath %s: step %d writes register %s twice (%s, %s)", dp.Name, s, mo.DestReg, prev, mo.Op)
			}
			written[mo.DestReg] = mo.Op
		}
		for _, ld := range st.Loads {
			if dp.regIx[ld.Reg] == nil {
				return fmt.Errorf("datapath %s: load into unknown register %s", dp.Name, ld.Reg)
			}
			if prev, clash := written[ld.Reg]; clash {
				return fmt.Errorf("datapath %s: step %d writes register %s twice (%s, load %s)", dp.Name, s, ld.Reg, prev, ld.Var)
			}
			written[ld.Reg] = "load:" + ld.Var
		}
	}
	for _, op := range dp.graph.Ops() {
		if !seenOps[op.Name] {
			return fmt.Errorf("datapath %s: op %s missing from control program", dp.Name, op.Name)
		}
	}
	return nil
}

// ModuleDiagonal reports whether every operation executed on the module
// reads the same source on both ports (a squarer-style unit). Such a
// module's ports are never independently exercisable in function mode,
// so a BIST embedding may legitimately drive both ports from one
// pattern generator.
func (dp *Datapath) ModuleDiagonal(name string) bool {
	found := false
	for _, st := range dp.Steps {
		for _, mo := range st.Ops {
			if mo.Module != name {
				continue
			}
			if mo.RightSrc == "" || mo.LeftSrc != mo.RightSrc {
				return false
			}
			found = true
		}
	}
	return found
}

// MuxStats counts multiplexers: a mux exists at every module port and
// register input with at least two distinct sources.
func (dp *Datapath) MuxStats() (count, extraInputs int) {
	tally := func(n int) {
		if n >= 2 {
			count++
			extraInputs += n - 1
		}
	}
	for _, m := range dp.Modules {
		tally(len(m.Left))
		tally(len(m.Right))
	}
	for _, r := range dp.Regs {
		tally(len(r.Sources))
	}
	return count, extraInputs
}

// WriteText emits a human-readable netlist description.
func (dp *Datapath) WriteText(w *strings.Builder) {
	fmt.Fprintf(w, "datapath %s (width %d)\n", dp.Name, dp.Width)
	for _, r := range dp.Regs {
		fmt.Fprintf(w, "  reg %s  vars={%s}  sources={%s}\n", r.Name,
			strings.Join(r.Vars, ","), strings.Join(r.Sources, ","))
	}
	for _, m := range dp.Modules {
		ks := make([]string, len(m.Kinds))
		for i, k := range m.Kinds {
			ks[i] = string(k)
		}
		fmt.Fprintf(w, "  mod %s [%s]  L={%s}  R={%s}  ->{%s}\n", m.Name,
			strings.Join(ks, ""), strings.Join(m.Left, ","),
			strings.Join(m.Right, ","), strings.Join(m.Dests, ","))
	}
	for _, st := range dp.Steps {
		if len(st.Ops) == 0 && len(st.Loads) == 0 {
			continue
		}
		fmt.Fprintf(w, "  step %d:", st.N)
		for _, ld := range st.Loads {
			fmt.Fprintf(w, "  %s<=%s", ld.Reg, ld.Pad)
		}
		for _, mo := range st.Ops {
			if mo.RightSrc != "" {
				fmt.Fprintf(w, "  %s<=%s(%s %s %s)", mo.DestReg, mo.Module, mo.LeftSrc, mo.Kind, mo.RightSrc)
			} else {
				fmt.Fprintf(w, "  %s<=%s(%s %s)", mo.DestReg, mo.Module, mo.Kind, mo.LeftSrc)
			}
		}
		fmt.Fprintln(w)
	}
}

// Text returns the netlist description as a string.
func (dp *Datapath) Text() string {
	var sb strings.Builder
	dp.WriteText(&sb)
	return sb.String()
}

// WriteDot emits a Graphviz structural view: registers as ellipses,
// modules as boxes, pads as plain text, one edge per connection.
func (dp *Datapath) WriteDot(w *strings.Builder) {
	fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n", dp.Name)
	for _, r := range dp.Regs {
		fmt.Fprintf(w, "  %q [shape=ellipse,label=\"%s\\n{%s}\"];\n", r.Name, r.Name, strings.Join(r.Vars, ","))
	}
	for _, m := range dp.Modules {
		fmt.Fprintf(w, "  %q [shape=box];\n", m.Name)
		for _, s := range m.Left {
			fmt.Fprintf(w, "  %q -> %q [label=\"L\"];\n", s, m.Name)
		}
		for _, s := range m.Right {
			fmt.Fprintf(w, "  %q -> %q [label=\"R\"];\n", s, m.Name)
		}
		for _, d := range m.Dests {
			fmt.Fprintf(w, "  %q -> %q;\n", m.Name, d)
		}
	}
	for _, p := range dp.InPads {
		fmt.Fprintf(w, "  %q [shape=plaintext];\n", p)
	}
	fmt.Fprintln(w, "}")
}
