package bistgen

import (
	"fmt"

	"bistpath/internal/bist"
	"bistpath/internal/datapath"
)

// ModuleCoverage is the stuck-at coverage of one module under its BIST
// embedding.
type ModuleCoverage struct {
	Module   string
	Faults   int
	Detected int
}

// Report is the fault-coverage result of running a BIST plan.
type Report struct {
	Patterns  int
	PerModule []ModuleCoverage
}

// Totals sums faults and detections over all modules.
func (r *Report) Totals() (faults, detected int) {
	for _, mc := range r.PerModule {
		faults += mc.Faults
		detected += mc.Detected
	}
	return
}

// Pct returns the overall coverage percentage.
func (r *Report) Pct() float64 {
	f, d := r.Totals()
	if f == 0 {
		return 100
	}
	return float64(d) / float64(f) * 100
}

// Coverage executes the BIST plan on the data path: for every module,
// pseudo-random patterns from the embedding's head generators drive the
// module in each of its operation modes while the tail register compacts
// the responses; a fault is detected when its signature differs from the
// fault-free one. This is a behavioral equivalent of the paper's BILBO
// test methodology (partial-intrusion pseudo-random BIST).
func Coverage(dp *datapath.Datapath, plan *bist.Plan, patterns int, seed uint64) (*Report, error) {
	if patterns <= 0 {
		return nil, fmt.Errorf("bistgen: need at least one pattern")
	}
	rep := &Report{Patterns: patterns}
	for _, m := range dp.Modules {
		emb, ok := plan.Embeddings[m.Name]
		if !ok {
			return nil, fmt.Errorf("bistgen: module %s has no embedding in plan", m.Name)
		}
		binary := len(m.Right) > 0
		sig := func(f *Fault) (uint64, error) {
			// Distinct seeds per head register keep the two pattern
			// streams independent, as required of a valid embedding.
			gl, err := NewLFSR(dp.Width, seed^HashName(emb.HeadL))
			if err != nil {
				return 0, err
			}
			var gr *LFSR
			if binary {
				gr, err = NewLFSR(dp.Width, (seed^HashName(emb.HeadR))|2)
				if err != nil {
					return 0, err
				}
			}
			misr, err := NewMISR(dp.Width)
			if err != nil {
				return 0, err
			}
			for p := 0; p < patterns; p++ {
				a := gl.Next()
				var b uint64
				if binary {
					// Both generators share the width's primitive
					// polynomial, so their sequences are phase-shifted
					// copies; clocking the right generator twice per
					// pattern advances the relative phase and breaks the
					// fixed correlation between the two operand streams
					// (a standard decorrelation trick for same-polynomial
					// TPG pairs).
					gr.Next()
					b = gr.Next()
				}
				for _, kind := range m.Kinds {
					misr.Shift(EvalFaulty(kind, a, b, dp.Width, f))
				}
			}
			return misr.Signature(), nil
		}
		golden, err := sig(nil)
		if err != nil {
			return nil, err
		}
		mc := ModuleCoverage{Module: m.Name}
		for _, f := range EnumerateFaults(m.Name, binary, dp.Width) {
			mc.Faults++
			s, err := sig(&f)
			if err != nil {
				return nil, err
			}
			if s != golden {
				mc.Detected++
			}
		}
		rep.PerModule = append(rep.PerModule, mc)
	}
	return rep, nil
}

// HashName derives a deterministic seed from a source identifier. It
// runs FNV-1a's loop from 1469598103934665603, one digit short of the
// FNV offset basis 14695981039346656037; the constant stays, because the
// pinned pattern sequences of cover and gatesim derive from it.
func HashName(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
