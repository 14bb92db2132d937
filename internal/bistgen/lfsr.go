// Package bistgen implements the pseudo-random BIST machinery the
// synthesized data paths rely on: LFSR test pattern generators, MISR
// signature analyzers, a structural stuck-at fault model for module
// ports, and a session runner that measures fault coverage of a BIST
// plan. It demonstrates that the test resources allocated by
// internal/bist actually detect faults.
package bistgen

import (
	"fmt"
	"sync"
)

// primitiveTaps maps register width to a primitive-polynomial tap mask
// (bit i set means stage i feeds the XOR). With a primitive polynomial an
// n-bit LFSR cycles through all 2^n-1 nonzero states.
var primitiveTaps = map[int]uint64{
	2:  0x3,        // x^2+x+1
	3:  0x6,        // x^3+x^2+1
	4:  0xC,        // x^4+x^3+1
	5:  0x14,       // x^5+x^3+1
	6:  0x30,       // x^6+x^5+1
	7:  0x60,       // x^7+x^6+1
	8:  0xB8,       // x^8+x^6+x^5+x^4+1
	9:  0x110,      // x^9+x^5+1
	10: 0x240,      // x^10+x^7+1
	11: 0x500,      // x^11+x^9+1
	12: 0xE08,      // x^12+x^11+x^10+x^4+1
	13: 0x1C80,     // x^13+x^12+x^11+x^8+1
	14: 0x3802,     // x^14+x^13+x^12+x^2+1
	15: 0x6000,     // x^15+x^14+1
	16: 0xD008,     // x^16+x^15+x^13+x^4+1
	20: 0x90000,    // x^20+x^17+1
	24: 0xE10000,   // x^24+x^23+x^22+x^17+1
	32: 0xC0000401, // x^32+x^31+x^30+x^10+1 (primitive)
}

// SupportedWidths returns the LFSR widths with a built-in primitive
// polynomial.
func SupportedWidths() []int {
	return []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 20, 24, 32}
}

// PrimitiveTaps returns the tap mask for a supported width. The
// gate-level elaboration (internal/elab) uses the same taps so its LFSR
// and MISR cells produce bit-identical sequences to this package.
func PrimitiveTaps(width int) (uint64, bool) {
	t, ok := primitiveTaps[width]
	return t, ok
}

// distinctTapsCache holds DistinctTaps' masks per width. It is shared by
// every goroutine that elaborates a gate-level design, so distinctTapsMu
// guards it; the lock is held across the search so concurrent callers
// wait for one search instead of repeating it.
var (
	distinctTapsMu    sync.Mutex
	distinctTapsCache = map[int][]uint64{}
)

// lfsrPeriod returns the cycle length of the recurrence from state 1.
func lfsrPeriod(width int, taps uint64) int {
	mask := (uint64(1) << uint(width)) - 1
	state := uint64(1)
	for n := 1; n <= 1<<uint(width); n++ {
		state = ((state << 1) | parity(state&taps)) & mask
		if state == 1 {
			return n
		}
	}
	return -1
}

// DistinctTaps returns up to k distinct primitive tap masks for the
// width, primary first, the rest found by exhaustive period search
// (widths above 16 return only the primary). Registers that pairwise
// feed the same modules receive different masks so their pattern
// streams are uncorrelated; a width-8 LFSR alone has 16 primitive
// polynomials, so small k always succeeds.
func DistinctTaps(width, k int) []uint64 {
	primary, ok := primitiveTaps[width]
	if !ok {
		return nil
	}
	if width > 16 || k <= 1 {
		return []uint64{primary}
	}
	distinctTapsMu.Lock()
	defer distinctTapsMu.Unlock()
	cached := distinctTapsCache[width]
	if len(cached) >= k {
		return append([]uint64(nil), cached[:k]...)
	}
	out := []uint64{primary}
	full := (1 << uint(width)) - 1
	for cand := uint64(1 << uint(width-1)); cand <= uint64(full) && len(out) < k; cand++ {
		if cand == primary {
			continue
		}
		if lfsrPeriod(width, cand) == full {
			out = append(out, cand)
		}
	}
	distinctTapsCache[width] = append([]uint64(nil), out...)
	return out
}

// NewLFSRWithTaps returns an LFSR using an explicit tap mask (caller
// guarantees primitivity when a maximal period matters).
func NewLFSRWithTaps(width int, taps, seed uint64) *LFSR {
	mask := (uint64(1) << uint(width)) - 1
	s := seed & mask
	if s == 0 {
		s = 1
	}
	return &LFSR{width: width, taps: taps, mask: mask, state: s}
}

// LFSR is a Fibonacci linear feedback shift register used as a test
// pattern generator (the TPG mode of a BILBO register).
type LFSR struct {
	width int
	taps  uint64
	mask  uint64
	state uint64
}

// NewLFSR returns an LFSR of the given width seeded with seed (forced
// nonzero: an LFSR locks up at zero).
func NewLFSR(width int, seed uint64) (*LFSR, error) {
	taps, ok := primitiveTaps[width]
	if !ok {
		return nil, fmt.Errorf("bistgen: no primitive polynomial for width %d (supported: %v)", width, SupportedWidths())
	}
	mask := (uint64(1) << uint(width)) - 1
	s := seed & mask
	if s == 0 {
		s = 1
	}
	return &LFSR{width: width, taps: taps, mask: mask, state: s}, nil
}

// Next advances one clock and returns the new pattern.
func (l *LFSR) Next() uint64 {
	fb := parity(l.state & l.taps)
	l.state = ((l.state << 1) | fb) & l.mask
	return l.state
}

// MISR is a multiple-input signature register (the SA mode of a BILBO
// register): each clock it shifts with feedback and XORs the parallel
// response word into its state.
type MISR struct {
	width int
	taps  uint64
	mask  uint64
	state uint64
}

// NewMISR returns a zero-initialized MISR of the given width.
func NewMISR(width int) (*MISR, error) {
	taps, ok := primitiveTaps[width]
	if !ok {
		return nil, fmt.Errorf("bistgen: no primitive polynomial for width %d", width)
	}
	return &MISR{width: width, taps: taps, mask: (uint64(1) << uint(width)) - 1}, nil
}

// Shift compacts one response word.
func (m *MISR) Shift(input uint64) {
	fb := parity(m.state & m.taps)
	m.state = (((m.state << 1) | fb) ^ input) & m.mask
}

// Signature returns the accumulated signature.
func (m *MISR) Signature() uint64 { return m.state }

func parity(x uint64) uint64 {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x & 1
}
