package bistgen

import (
	"testing"
	"testing/quick"

	"bistpath/internal/dfg"
)

// The LFSR next-state function is a bijection on nonzero states
// (distinct states map to distinct successors), for both the primary
// polynomial and the second one DistinctTaps hands out.
func TestLFSRBijectiveQuick(t *testing.T) {
	masks := DistinctTaps(8, 2)
	if len(masks) != 2 {
		t.Fatalf("DistinctTaps(8, 2) = %#x, want two masks", masks)
	}
	for _, taps := range masks {
		next := func(s uint64) uint64 {
			l := NewLFSRWithTaps(8, taps, s)
			return l.Next()
		}
		prop := func(a, b uint8) bool {
			x, y := uint64(a), uint64(b)
			if x == 0 || y == 0 || x == y {
				return true
			}
			return next(x) != next(y)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("taps %#x: %v", taps, err)
		}
	}
}

// MISR compaction is linear: sig(a XOR b stream) = sig(a) XOR sig(b)
// when starting from zero.
func TestMISRLinearityQuick(t *testing.T) {
	prop := func(words [6]uint8) bool {
		ma, _ := NewMISR(8)
		mb, _ := NewMISR(8)
		mx, _ := NewMISR(8)
		for i, w := range words {
			a := uint64(w)
			b := uint64(words[(i+3)%6]) * 37 & 0xFF
			ma.Shift(a)
			mb.Shift(b)
			mx.Shift(a ^ b)
		}
		return mx.Signature() == ma.Signature()^mb.Signature()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// EvalFaulty with no fault equals plain evaluation, and injecting then
// "detecting" is consistent: a fault on an input bit changes the result
// iff flipping that bit changes the function value. Every kind is
// checked.
func TestEvalFaultyConsistencyQuick(t *testing.T) {
	for _, k := range []dfg.Kind{dfg.Add, dfg.Sub, dfg.Mul, dfg.Div, dfg.And, dfg.Or, dfg.Xor, dfg.Lt, dfg.Gt} {
		prop := func(a, b uint8, bit uint8, stuck1 bool) bool {
			x, y := uint64(a), uint64(b)
			bi := int(bit % 8)
			f := Fault{Site: PortL, Bit: bi, Stuck1: stuck1}
			faulty := EvalFaulty(k, x, y, 8, &f)
			forced := x
			if stuck1 {
				forced |= 1 << uint(bi)
			} else {
				forced &^= 1 << uint(bi)
			}
			want := EvalFaulty(k, forced, y, 8, nil)
			return faulty == want
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
}
