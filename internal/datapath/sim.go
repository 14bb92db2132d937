package datapath

import (
	"fmt"
	"strings"

	"bistpath/internal/interconnect"
)

// Simulate executes the control program on concrete input values and
// returns the value of every primary output. Values are read from
// registers (or pads) exactly as the netlist is wired, so a successful
// comparison against dfg.Eval exercises the module, register and
// interconnect bindings end to end.
func (dp *Datapath) Simulate(inputs map[string]uint64) (map[string]uint64, error) {
	mask := ^uint64(0)
	if dp.Width < 64 {
		mask = (uint64(1) << uint(dp.Width)) - 1
	}
	pads := make(map[string]uint64)
	for _, p := range dp.InPads {
		name := strings.TrimPrefix(p, interconnect.PadSource)
		v, ok := inputs[name]
		if !ok {
			return nil, fmt.Errorf("datapath %s: missing input %q", dp.Name, name)
		}
		pads[p] = v & mask
	}
	regs := make(map[string]uint64, len(dp.Regs))
	read := func(src string) uint64 {
		if interconnect.IsPad(src) {
			return pads[src]
		}
		return regs[src]
	}
	lts, err := dp.graph.Lifetimes()
	if err != nil {
		return nil, err
	}
	outs := make(map[string]uint64)
	for _, st := range dp.Steps {
		// Combinational phase: evaluate all module operations from the
		// current register/pad values.
		type write struct {
			reg string
			val uint64
		}
		var writes []write
		for _, mo := range st.Ops {
			val := mo.Kind.Apply(read(mo.LeftSrc), read(mo.RightSrc), dp.Width)
			writes = append(writes, write{mo.DestReg, val})
		}
		for _, ld := range st.Loads {
			writes = append(writes, write{ld.Reg, pads[ld.Pad]})
		}
		// Clock edge: latch.
		for _, w := range writes {
			regs[w.reg] = w.val
		}
		// Sample primary outputs from the registers right after the edge
		// that latched them (the environment reads them next step).
		for _, o := range dp.Outputs {
			if lts[o].Born == st.N {
				reg := dp.registerHolding(o)
				if reg == "" {
					return nil, fmt.Errorf("datapath %s: output %q bound to no register", dp.Name, o)
				}
				outs[o] = regs[reg]
			}
		}
	}
	return outs, nil
}

func (dp *Datapath) registerHolding(varName string) string {
	for _, r := range dp.Regs {
		for _, v := range r.Vars {
			if v == varName {
				return r.Name
			}
		}
	}
	return ""
}

// CheckAgainstDFG simulates the data path on the given inputs and
// compares every primary output against direct DFG evaluation, returning
// an error describing the first mismatch.
func (dp *Datapath) CheckAgainstDFG(inputs map[string]uint64) error {
	want, err := dp.graph.Eval(inputs, dp.Width)
	if err != nil {
		return err
	}
	got, err := dp.Simulate(inputs)
	if err != nil {
		return err
	}
	for _, o := range dp.Outputs {
		if got[o] != want[o] {
			return fmt.Errorf("datapath %s: output %s = %d, DFG says %d (inputs %v)",
				dp.Name, o, got[o], want[o], inputs)
		}
	}
	return nil
}
