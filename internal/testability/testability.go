// Package testability implements COP (controllability/observability
// program) analysis on gate-level netlists: signal-1 controllability and
// fault observability under random patterns, combined into per-fault
// detection probabilities and expected fault coverage for a given
// pattern budget. The flow uses it to predict which modules are
// random-pattern resistant (the restoring divider) before running the
// much more expensive gate-level fault simulation, mirroring how
// testability measures were used alongside BIST in the paper's era.
package testability

import (
	"fmt"
	"math"

	"bistpath/internal/gates"
)

// Analysis holds the COP measures for a combinational cone.
type Analysis struct {
	// C1 is the probability a signal evaluates to 1 under uniform random
	// assignments to the cone inputs.
	C1 map[gates.Sig]float64
	// Obs is the probability a value change on the signal propagates to
	// an observed output (single-path COP approximation).
	Obs map[gates.Sig]float64
}

// COP analyzes the combinational cone spanned by the netlist's gates
// between the given observed outputs and whatever feeds them. Signals not
// driven by any gate (primary inputs, flip-flop outputs, boundary
// signals) are treated as independent uniform random inputs; the
// constant signals keep their values. COP ignores reconvergent fanout —
// it is the standard fast approximation, exact on fanout-free cones.
func COP(n *gates.Netlist, observed []gates.Sig) (*Analysis, error) {
	if len(observed) == 0 {
		return nil, fmt.Errorf("testability: no observed outputs")
	}
	producer := make(map[gates.Sig]int, len(n.Gates))
	for i, g := range n.Gates {
		producer[g.Out] = i
	}
	a := &Analysis{
		C1:  make(map[gates.Sig]float64),
		Obs: make(map[gates.Sig]float64),
	}
	a.C1[gates.Zero] = 0
	a.C1[gates.One] = 1

	// Controllability: depth-first over the cone.
	var ctrl func(s gates.Sig) float64
	visiting := make(map[gates.Sig]bool)
	ctrl = func(s gates.Sig) float64 {
		if v, ok := a.C1[s]; ok {
			return v
		}
		gi, ok := producer[s]
		if !ok {
			a.C1[s] = 0.5 // boundary: uniform random input
			return 0.5
		}
		if visiting[s] {
			// Defensive: validated netlists are acyclic.
			a.C1[s] = 0.5
			return 0.5
		}
		visiting[s] = true
		g := n.Gates[gi]
		pa := ctrl(g.A)
		pb := 0.0
		if g.Kind != gates.Not {
			pb = ctrl(g.B)
		}
		var v float64
		switch g.Kind {
		case gates.And:
			v = pa * pb
		case gates.Or:
			v = 1 - (1-pa)*(1-pb)
		case gates.Xor:
			v = pa*(1-pb) + (1-pa)*pb
		case gates.Not:
			v = 1 - pa
		case gates.Nand:
			v = 1 - pa*pb
		case gates.Nor:
			v = (1 - pa) * (1 - pb)
		case gates.Xnor:
			v = pa*pb + (1-pa)*(1-pb)
		}
		delete(visiting, s)
		a.C1[s] = v
		return v
	}

	// Build the cone: all gates reachable backward from the observed
	// outputs.
	inCone := make(map[int]bool)
	var mark func(s gates.Sig)
	marked := make(map[gates.Sig]bool)
	mark = func(s gates.Sig) {
		if marked[s] {
			return
		}
		marked[s] = true
		gi, ok := producer[s]
		if !ok {
			return
		}
		inCone[gi] = true
		g := n.Gates[gi]
		mark(g.A)
		if g.Kind != gates.Not {
			mark(g.B)
		}
	}
	for _, o := range observed {
		mark(o)
		ctrl(o)
	}

	// Observability: backward from the observed outputs. Propagation
	// through a gate requires the side inputs at non-controlling values.
	for _, o := range observed {
		a.Obs[o] = 1
	}
	// Process gates in reverse topological order: levelize the full
	// netlist once and walk it backwards, restricted to the cone.
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	bump := func(s gates.Sig, p float64) {
		if p > a.Obs[s] {
			a.Obs[s] = p
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		gi := order[i]
		if !inCone[gi] {
			continue
		}
		g := n.Gates[gi]
		oo := a.Obs[g.Out]
		if oo == 0 {
			continue
		}
		ca, cb := a.C1[g.A], a.C1[g.B]
		switch g.Kind {
		case gates.And, gates.Nand:
			bump(g.A, oo*cb)
			bump(g.B, oo*ca)
		case gates.Or, gates.Nor:
			bump(g.A, oo*(1-cb))
			bump(g.B, oo*(1-ca))
		case gates.Xor, gates.Xnor:
			bump(g.A, oo)
			bump(g.B, oo)
		case gates.Not:
			bump(g.A, oo)
		}
	}
	return a, nil
}

// DetectProb returns the single-pattern detection probability of a
// stuck-at fault on the signal: the fault site must carry the opposite
// value (controllability) and the change must reach an output
// (observability).
func (a *Analysis) DetectProb(f gates.StuckAt) float64 {
	c := a.C1[f.Sig]
	if f.Value {
		c = 1 - c
	}
	return c * a.Obs[f.Sig]
}

// ExpectedCoverage returns the expected fraction of the given faults
// detected by `patterns` independent random patterns: mean over faults of
// 1-(1-p)^patterns.
func (a *Analysis) ExpectedCoverage(faults []gates.StuckAt, patterns int) float64 {
	if len(faults) == 0 {
		return 100
	}
	total := 0.0
	for _, f := range faults {
		p := a.DetectProb(f)
		total += 1 - math.Pow(1-p, float64(patterns))
	}
	return total / float64(len(faults)) * 100
}

// HardFaults returns the faults whose single-pattern detection
// probability is below the threshold — the random-pattern-resistant set.
func (a *Analysis) HardFaults(faults []gates.StuckAt, threshold float64) []gates.StuckAt {
	var out []gates.StuckAt
	for _, f := range faults {
		if a.DetectProb(f) < threshold {
			out = append(out, f)
		}
	}
	return out
}
