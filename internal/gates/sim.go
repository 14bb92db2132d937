package gates

import "fmt"

// StuckAt is a single stuck-at fault on a signal: the signal reads as
// Value regardless of its driver.
type StuckAt struct {
	Sig   Sig
	Value bool
}

func (f StuckAt) String() string {
	v := 0
	if f.Value {
		v = 1
	}
	return fmt.Sprintf("s%d/sa%d", f.Sig, v)
}

// Sim is a two-phase (evaluate, clock) simulator for a netlist,
// optionally with one injected stuck-at fault.
type Sim struct {
	n     *Netlist
	order []int
	vals  []bool
	fault *StuckAt
}

// NewSim levelizes the netlist and returns a simulator with all state
// cleared.
func NewSim(n *Netlist) (*Sim, error) {
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	s := &Sim{n: n, order: order, vals: make([]bool, n.nsig)}
	s.Reset()
	return s, nil
}

// Reset clears every flip-flop and input.
func (s *Sim) Reset() {
	for i := range s.vals {
		s.vals[i] = false
	}
	s.vals[One] = true
	s.fix()
}

// SetFault injects a stuck-at fault (nil removes it).
func (s *Sim) SetFault(f *StuckAt) {
	s.fault = f
	s.fix()
}

func (s *Sim) fix() {
	s.vals[One] = true
	s.vals[Zero] = false
	if s.fault != nil {
		s.vals[s.fault.Sig] = s.fault.Value
	}
}

// Set assigns a primary input or state signal.
func (s *Sim) Set(sig Sig, v bool) {
	s.vals[sig] = v
	s.fix()
}

// SetBus assigns a bus from an integer (LSB first).
func (s *Sim) SetBus(bus []Sig, v uint64) {
	for i, sig := range bus {
		s.vals[sig] = v&(1<<uint(i)) != 0
	}
	s.fix()
}

// Get reads a signal's current value.
func (s *Sim) Get(sig Sig) bool { return s.vals[sig] }

// ReadBus reads a bus as an integer.
func (s *Sim) ReadBus(bus []Sig) uint64 {
	var v uint64
	for i, sig := range bus {
		if s.vals[sig] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// Eval settles the combinational logic from the current inputs and
// flip-flop states.
func (s *Sim) Eval() {
	faultSig := Sig(-1)
	var faultVal bool
	if s.fault != nil {
		faultSig = s.fault.Sig
		faultVal = s.fault.Value
	}
	for _, gi := range s.order {
		g := &s.n.Gates[gi]
		a := s.vals[g.A]
		b := s.vals[g.B]
		var out bool
		switch g.Kind {
		case And:
			out = a && b
		case Or:
			out = a || b
		case Xor:
			out = a != b
		case Not:
			out = !a
		case Nand:
			out = !(a && b)
		case Nor:
			out = !(a || b)
		case Xnor:
			out = a == b
		}
		if g.Out == faultSig {
			out = faultVal
		}
		s.vals[g.Out] = out
	}
	// The fault may sit on a signal no gate drives (input, DFF output).
	s.fix()
}

// Step evaluates the combinational logic and then clocks every
// flip-flop simultaneously.
func (s *Sim) Step() {
	s.Eval()
	next := make([]bool, len(s.n.DFFs))
	for i, d := range s.n.DFFs {
		if s.vals[d.EN] {
			next[i] = s.vals[d.D]
		} else {
			next[i] = s.vals[d.Q]
		}
	}
	for i, d := range s.n.DFFs {
		s.vals[d.Q] = next[i]
	}
	s.fix()
}

// AllFaultSites enumerates one stuck-at-0 and one stuck-at-1 fault per
// gate output and flip-flop output (the standard collapsed structural
// fault universe for this netlist style).
func (n *Netlist) AllFaultSites() []StuckAt {
	var out []StuckAt
	for _, g := range n.Gates {
		out = append(out, StuckAt{g.Out, false}, StuckAt{g.Out, true})
	}
	for _, d := range n.DFFs {
		out = append(out, StuckAt{d.Q, false}, StuckAt{d.Q, true})
	}
	return out
}
