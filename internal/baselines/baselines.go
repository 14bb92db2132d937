// Package baselines models the two prior synthesis-for-BIST systems the
// paper compares against in Table III:
//
//   - RALLOC (Avra, ISCAS'91): register allocation that minimizes the
//     number of self-adjacent registers, spending extra registers to do
//     so; every module-adjacent register becomes a BILBO and every
//     remaining self-adjacent register a CBILBO.
//   - SYNTEST (Papachristou/Harmanani): allocation constrained to a
//     self-testable template in which no register may be both an input
//     and an output register of the same module, so plain TPGs and SAs
//     suffice.
//
// Both are reimplementations in spirit (the original tools are closed);
// see DESIGN.md §3.
package baselines

import (
	"bistpath/internal/area"
	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// Result is a baseline allocation with its BIST register styles.
type Result struct {
	System  string
	Binding *regassign.Binding
	Styles  map[string]area.Style
}

// StyleCount tallies registers per non-normal style.
func (r *Result) StyleCount() map[area.Style]int {
	out := make(map[area.Style]int)
	for _, s := range r.Styles {
		if s != area.Normal {
			out[s]++
		}
	}
	return out
}

// adjacency summarizes a register's relation to the modules.
type adjacency struct {
	input  bool // holds an input variable of some module
	output bool // holds an output variable of some module
	self   bool // holds an input and an output variable of the same module
}

func adjacencyOf(sh *regassign.Sharing, vars []string) adjacency {
	var a adjacency
	for j := range sh.Modules {
		in, out := sh.Flags(vars, j)
		a.input = a.input || in
		a.output = a.output || out
		a.self = a.self || (in && out)
	}
	return a
}

// selfAdjCount counts registers self-adjacent to some module.
func selfAdjCount(sh *regassign.Sharing, regs [][]string) int {
	n := 0
	for _, r := range regs {
		if adjacencyOf(sh, r).self {
			n++
		}
	}
	return n
}

// colorAvoiding colors the conflict graph in reverse lexicographic-PVES
// order; for each vertex it picks the first candidate register whose
// extension does not increase `penalty`, opening a new register when all
// candidates do (this is how both baselines trade registers for their
// respective structural constraints).
func colorAvoiding(g *dfg.Graph, penalty func(regs [][]string) int) (*regassign.Binding, error) {
	cg, err := regassign.ConflictGraph(g)
	if err != nil {
		return nil, err
	}
	scheme, err := cg.PVES(nil)
	if err != nil {
		return nil, err
	}
	conf, err := g.Conflicts()
	if err != nil {
		return nil, err
	}
	var regs [][]string
	for i := len(scheme) - 1; i >= 0; i-- {
		v := scheme[i]
		chosen := -1
		base := penalty(regs)
		for ri, r := range regs {
			ok := true
			for _, u := range r {
				if conf[v][u] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			trial := make([][]string, len(regs))
			copy(trial, regs)
			trial[ri] = append(append([]string(nil), r...), v)
			if penalty(trial) <= base {
				chosen = ri
				break
			}
		}
		if chosen >= 0 {
			regs[chosen] = append(regs[chosen], v)
		} else {
			regs = append(regs, []string{v})
		}
	}
	return regassign.FromSets(regs), nil
}

// RALLOC runs the Avra-style flow: minimize self-adjacent registers,
// then map every module-adjacent register to a BILBO and every
// self-adjacent one to a CBILBO.
func RALLOC(g *dfg.Graph, mb *modassign.Binding) (*Result, error) {
	sh := regassign.NewSharing(g, mb)
	rb, err := colorAvoiding(g, func(regs [][]string) int { return selfAdjCount(sh, regs) })
	if err != nil {
		return nil, err
	}
	if err := rb.Validate(g); err != nil {
		return nil, err
	}
	styles := make(map[string]area.Style)
	for _, r := range rb.Registers {
		a := adjacencyOf(sh, r.Vars)
		switch {
		case a.self:
			styles[r.Name] = area.CBILBO
		case a.input && a.output:
			styles[r.Name] = area.BILBO
		case a.input:
			styles[r.Name] = area.TPG
		case a.output:
			styles[r.Name] = area.SA
		}
	}
	return &Result{System: "RALLOC", Binding: rb, Styles: styles}, nil
}

// SYNTEST runs the template-style flow: allocation forbids any register
// from being self-adjacent (spending registers as needed); input
// registers become TPGs, output registers SAs, registers that are both
// (for different modules) TPG/SA BILBOs.
func SYNTEST(g *dfg.Graph, mb *modassign.Binding) (*Result, error) {
	sh := regassign.NewSharing(g, mb)
	rb, err := colorAvoiding(g, func(regs [][]string) int { return selfAdjCount(sh, regs) })
	if err != nil {
		return nil, err
	}
	if err := rb.Validate(g); err != nil {
		return nil, err
	}
	styles := make(map[string]area.Style)
	for _, r := range rb.Registers {
		a := adjacencyOf(sh, r.Vars)
		switch {
		case a.self:
			// The template cannot express self-adjacency; the '93
			// extension handles one configuration with a BILBO pair.
			styles[r.Name] = area.BILBO
		case a.input && a.output:
			styles[r.Name] = area.BILBO
		case a.input:
			styles[r.Name] = area.TPG
		case a.output:
			styles[r.Name] = area.SA
		}
	}
	return &Result{System: "SYNTEST", Binding: rb, Styles: styles}, nil
}

// PaulinSyntestModules is the 3-ALU module allocation (reconstructing
// Table III's "(+*), (>*-), (*+)") used for the SYNTEST comparison row.
func PaulinSyntestModules() map[string]string {
	return map[string]string{
		"a1": "ALU1", "m4": "ALU1", "m6": "ALU1", "s2": "ALU1",
		"m1": "ALU2", "cmp": "ALU2", "s1": "ALU2", "m5": "ALU2",
		"m2": "ALU3", "m3": "ALU3", "a2": "ALU3",
	}
}
