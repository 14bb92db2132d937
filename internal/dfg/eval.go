package dfg

import "fmt"

// Eval evaluates the DFG on concrete input values with width-bit modular
// arithmetic (Kind.Apply) and returns the value of every variable. It
// serves as the functional oracle against which the bound data path (see
// internal/datapath) is simulated.
func (g *Graph) Eval(inputs map[string]uint64, width int) (map[string]uint64, error) {
	if width <= 0 || width > 64 {
		return nil, fmt.Errorf("dfg %s: width %d out of range [1,64]", g.Name, width)
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = (uint64(1) << uint(width)) - 1
	}
	vals := make(map[string]uint64, len(g.vars))
	for _, v := range g.vars {
		if v.IsInput {
			x, ok := inputs[v.Name]
			if !ok {
				return nil, fmt.Errorf("dfg %s: missing input %q", g.Name, v.Name)
			}
			vals[v.Name] = x & mask
		}
	}
	// Ops in dependency order: repeatedly evaluate ops whose operands are
	// ready. The graph is validated acyclic, so this terminates.
	done := make(map[string]bool, len(g.ops))
	for n := 0; n < len(g.ops); {
		progressed := false
		for _, o := range g.ops {
			if done[o.Name] {
				continue
			}
			ready := true
			for _, a := range o.Args {
				if _, ok := vals[a]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			vals[o.Result] = o.Kind.Apply(vals[o.Args[0]], vals[o.Args[1]], width)
			done[o.Name] = true
			progressed = true
			n++
		}
		if !progressed {
			return nil, fmt.Errorf("dfg %s: evaluation stuck (cycle?)", g.Name)
		}
	}
	return vals, nil
}

// Apply computes a op b in width-bit modular arithmetic (width in
// [1,64]); it is the one statement of the operator semantics that DFG
// evaluation, data path simulation and module fault simulation share.
// Operands are reduced to width bits first. Comparison kinds (<, >)
// produce 0 or 1. Division by zero yields all-ones (a common hardware
// convention) so that random-input testing never traps.
func (k Kind) Apply(a, b uint64, width int) uint64 {
	mask := ^uint64(0)
	if width < 64 {
		mask = (uint64(1) << uint(width)) - 1
	}
	a &= mask
	b &= mask
	var r uint64
	switch k {
	case Add:
		r = a + b
	case Sub:
		r = a - b
	case Mul:
		r = a * b
	case Div:
		if b == 0 {
			r = mask
		} else {
			r = a / b
		}
	case And:
		r = a & b
	case Or:
		r = a | b
	case Xor:
		r = a ^ b
	case Lt:
		if a < b {
			r = 1
		}
	case Gt:
		if a > b {
			r = 1
		}
	}
	return r & mask
}
