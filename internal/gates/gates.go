// Package gates provides a structural gate-level netlist, a cycle
// simulator, and stuck-at fault injection. The allocation flow elaborates
// its data paths into this representation (internal/elab) so that area is
// a literal gate count and the BIST methodology can be validated by real
// gate-level fault simulation, as the paper's BITS system did.
package gates

import (
	"fmt"
)

// Sig is a signal index within a netlist. Signal 0 is constant zero and
// signal 1 is constant one.
type Sig int

// Reserved signals.
const (
	Zero Sig = 0
	One  Sig = 1
)

// GateKind enumerates the combinational primitives.
type GateKind int

// Primitive kinds.
const (
	And GateKind = iota
	Or
	Xor
	Not
	Nand
	Nor
	Xnor
)

func (k GateKind) String() string {
	switch k {
	case And:
		return "and"
	case Or:
		return "or"
	case Xor:
		return "xor"
	case Not:
		return "not"
	case Nand:
		return "nand"
	case Nor:
		return "nor"
	case Xnor:
		return "xnor"
	}
	return "?"
}

// Gate is one combinational primitive: Out = Kind(A, B). Not uses only A.
type Gate struct {
	Kind GateKind
	A, B Sig
	Out  Sig
}

// DFF is a rising-edge flip-flop with optional enable (One = always
// load): Q <= if EN then D else Q.
type DFF struct {
	D, EN, Q Sig
}

// Netlist is a flat gate-level design. Construct with New and the
// builder methods; names attach debug labels to signals and buses.
type Netlist struct {
	nsig    int
	Gates   []Gate
	DFFs    []DFF
	Inputs  []Sig
	Outputs []Sig

	names map[string][]Sig // named buses (LSB first)
	order []string
}

// New returns a netlist containing only the constant signals.
func New() *Netlist {
	return &Netlist{nsig: 2, names: make(map[string][]Sig)}
}

// NumSignals returns the signal count (including constants).
func (n *Netlist) NumSignals() int { return n.nsig }

// NumGates returns the combinational gate count.
func (n *Netlist) NumGates() int { return len(n.Gates) }

// NumDFFs returns the flip-flop count.
func (n *Netlist) NumDFFs() int { return len(n.DFFs) }

// Sig allocates a fresh signal.
func (n *Netlist) Sig() Sig {
	s := Sig(n.nsig)
	n.nsig++
	return s
}

// Bus allocates w fresh signals (LSB first).
func (n *Netlist) Bus(w int) []Sig {
	out := make([]Sig, w)
	for i := range out {
		out[i] = n.Sig()
	}
	return out
}

// Name labels a bus; re-using a name overwrites the previous label.
func (n *Netlist) Name(name string, bus []Sig) {
	if _, ok := n.names[name]; !ok {
		n.order = append(n.order, name)
	}
	n.names[name] = append([]Sig(nil), bus...)
}

// Named returns the bus labeled name, or nil.
func (n *Netlist) Named(name string) []Sig { return n.names[name] }

// NamedBuses lists labels in definition order.
func (n *Netlist) NamedBuses() []string { return append([]string(nil), n.order...) }

// InputBus allocates a w-bit primary input bus with the given name.
func (n *Netlist) InputBus(name string, w int) []Sig {
	bus := n.Bus(w)
	n.Inputs = append(n.Inputs, bus...)
	n.Name(name, bus)
	return bus
}

// OutputBus marks a bus as primary outputs with the given name.
func (n *Netlist) OutputBus(name string, bus []Sig) {
	n.Outputs = append(n.Outputs, bus...)
	n.Name(name, bus)
}

// gate adds a two-input primitive and returns its output signal.
func (n *Netlist) gate(k GateKind, a, b Sig) Sig {
	out := n.Sig()
	n.Gates = append(n.Gates, Gate{Kind: k, A: a, B: b, Out: out})
	return out
}

// And2 returns a AND b.
func (n *Netlist) And2(a, b Sig) Sig { return n.gate(And, a, b) }

// Or2 returns a OR b.
func (n *Netlist) Or2(a, b Sig) Sig { return n.gate(Or, a, b) }

// Xor2 returns a XOR b.
func (n *Netlist) Xor2(a, b Sig) Sig { return n.gate(Xor, a, b) }

// Not1 returns NOT a.
func (n *Netlist) Not1(a Sig) Sig { return n.gate(Not, a, Zero) }

// Nand2 returns NOT(a AND b).
func (n *Netlist) Nand2(a, b Sig) Sig { return n.gate(Nand, a, b) }

// Nor2 returns NOT(a OR b).
func (n *Netlist) Nor2(a, b Sig) Sig { return n.gate(Nor, a, b) }

// Xnor2 returns NOT(a XOR b).
func (n *Netlist) Xnor2(a, b Sig) Sig { return n.gate(Xnor, a, b) }

// Mux2 returns sel ? b : a (built from primitives: 3 gates + inverter).
func (n *Netlist) Mux2(sel, a, b Sig) Sig {
	if sel == Zero || a == b {
		return a
	}
	if sel == One {
		return b
	}
	ns := n.NotF(sel)
	return n.OrF(n.AndF(ns, a), n.AndF(sel, b))
}

// The *F helpers fold constants so that macro builders never emit gates
// whose outputs are constant or equal to an input — such gates would
// carry structurally untestable stuck-at faults and inflate area.

// AndF returns a AND b with constant folding.
func (n *Netlist) AndF(a, b Sig) Sig {
	switch {
	case a == Zero || b == Zero:
		return Zero
	case a == One:
		return b
	case b == One:
		return a
	case a == b:
		return a
	}
	return n.gate(And, a, b)
}

// OrF returns a OR b with constant folding.
func (n *Netlist) OrF(a, b Sig) Sig {
	switch {
	case a == One || b == One:
		return One
	case a == Zero:
		return b
	case b == Zero:
		return a
	case a == b:
		return a
	}
	return n.gate(Or, a, b)
}

// XorF returns a XOR b with constant folding.
func (n *Netlist) XorF(a, b Sig) Sig {
	switch {
	case a == b:
		return Zero
	case a == Zero:
		return b
	case b == Zero:
		return a
	case a == One:
		return n.NotF(b)
	case b == One:
		return n.NotF(a)
	}
	return n.gate(Xor, a, b)
}

// NotF returns NOT a with constant folding.
func (n *Netlist) NotF(a Sig) Sig {
	switch a {
	case Zero:
		return One
	case One:
		return Zero
	}
	return n.gate(Not, a, Zero)
}

// Dff adds a flip-flop with enable and returns its Q output.
func (n *Netlist) Dff(d, en Sig) Sig {
	q := n.Sig()
	n.DFFs = append(n.DFFs, DFF{D: d, EN: en, Q: q})
	return q
}

// DffAt adds a flip-flop whose Q is a pre-allocated signal (needed for
// feedback loops where Q is used before D exists).
func (n *Netlist) DffAt(q, d, en Sig) {
	n.DFFs = append(n.DFFs, DFF{D: d, EN: en, Q: q})
}

// Drive makes a pre-allocated signal carry the value of src (a buffer
// gate with an explicit output). Used to close forward references, e.g.
// control signals consumed by the data path before the controller that
// computes them is built.
func (n *Netlist) Drive(dst, src Sig) {
	n.Gates = append(n.Gates, Gate{Kind: Or, A: src, B: Zero, Out: dst})
}

// Validate checks structural sanity: every gate/DFF input refers to an
// existing signal, every signal is driven at most once, and the
// combinational part is acyclic (checked by attempting levelization).
func (n *Netlist) Validate() error {
	driven := make([]int, n.nsig)
	driven[Zero]++
	driven[One]++
	check := func(s Sig) error {
		if s < 0 || int(s) >= n.nsig {
			return fmt.Errorf("gates: signal %d out of range", s)
		}
		return nil
	}
	for _, in := range n.Inputs {
		if err := check(in); err != nil {
			return err
		}
		driven[in]++
	}
	for _, g := range n.Gates {
		for _, s := range []Sig{g.A, g.B, g.Out} {
			if err := check(s); err != nil {
				return err
			}
		}
		driven[g.Out]++
	}
	for _, d := range n.DFFs {
		for _, s := range []Sig{d.D, d.EN, d.Q} {
			if err := check(s); err != nil {
				return err
			}
		}
		driven[d.Q]++
	}
	for s, cnt := range driven {
		if cnt > 1 {
			return fmt.Errorf("gates: signal %d driven %d times", s, cnt)
		}
	}
	for _, out := range n.Outputs {
		if err := check(out); err != nil {
			return err
		}
	}
	if _, err := n.Levelize(); err != nil {
		return err
	}
	return nil
}

// Levelize orders the combinational gates topologically (DFF outputs,
// constants and inputs are level-0 sources), returning gate indices. It
// fails on a combinational cycle.
func (n *Netlist) Levelize() ([]int, error) {
	// producer[g.Out] = gate index
	producer := make([]int, n.nsig)
	for i := range producer {
		producer[i] = -1
	}
	for i, g := range n.Gates {
		producer[g.Out] = i
	}
	order := make([]int, 0, len(n.Gates))
	state := make([]int, len(n.Gates)) // 0 white, 1 gray, 2 black
	var visit func(gi int) error
	visit = func(gi int) error {
		state[gi] = 1
		g := n.Gates[gi]
		ins := []Sig{g.A}
		if g.Kind != Not {
			ins = append(ins, g.B)
		}
		for _, s := range ins {
			pi := producer[s]
			if pi < 0 {
				continue
			}
			switch state[pi] {
			case 1:
				return fmt.Errorf("gates: combinational cycle through gate %d", pi)
			case 0:
				if err := visit(pi); err != nil {
					return err
				}
			}
		}
		state[gi] = 2
		order = append(order, gi)
		return nil
	}
	for gi := range n.Gates {
		if state[gi] == 0 {
			if err := visit(gi); err != nil {
				return nil, err
			}
		}
	}
	return order, nil
}

// Stats summarizes the netlist per gate kind.
func (n *Netlist) Stats() map[string]int {
	out := map[string]int{"dff": len(n.DFFs), "signals": n.nsig}
	for _, g := range n.Gates {
		out[g.Kind.String()]++
	}
	return out
}
