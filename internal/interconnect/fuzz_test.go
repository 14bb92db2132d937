package interconnect

import (
	"testing"

	"bistpath/internal/dfg"
)

// fuzzKinds are the op kinds a fuzz byte picks from: commutative and
// non-commutative ones.
var fuzzKinds = []dfg.Kind{dfg.Add, dfg.Mul, dfg.And, dfg.Or, dfg.Xor, dfg.Sub, dfg.Div, dfg.Lt}

// maxFuzzOps bounds the ops decoded from one input, so the reference
// search stays at most 2^12 masks a module.
const maxFuzzOps = 12

// decodeBindShape turns fuzz bytes into a synthetic design shape: a pool
// of 2-6 inputs (a pad mask and a register per input), then one op per
// three bytes. The first byte of each op picks its kind (bits 0-2),
// makes it unary (bit 3) and picks its module (bits 4-5: M1, M2, M3,
// and M1 again); the next two pick its operands. When the
// pad byte's top bit is set, M1 also gets maxFreeInstances+1 free
// instances over p0 and p1, pushing it past the search cap.
func decodeBindShape(data []byte) (pad []bool, regOf []int, nregs int, ops []synthOp) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	npool := 2 + at(0)%5
	nregs = 1 + at(1)%npool
	pad = make([]bool, npool)
	regOf = make([]int, npool)
	for i := range pad {
		pad[i] = at(2)&(1<<i) != 0
		regOf[i] = at(3 + i)
	}
	// p0 and p1 are distinct sources, so free instances exist.
	pad[0], regOf[0], regOf[1] = false, 0, 1
	pad[1] = pad[1] || nregs == 1
	for i := 3 + npool; i+2 < len(data) && len(ops) < maxFuzzOps; i += 3 {
		flags := int(data[i])
		ops = append(ops, synthOp{
			module: ((flags >> 4) & 3) % 3,
			kind:   fuzzKinds[flags&7],
			unary:  flags&8 != 0,
			a:      int(data[i+1]) % npool,
			b:      int(data[i+2]) % npool,
		})
	}
	if at(2)&128 != 0 {
		for i := 0; i <= maxFreeInstances; i++ {
			ops = append(ops, synthOp{kind: dfg.Add, a: i % 2, b: 1 - i%2})
		}
	}
	return pad, regOf, nregs, ops
}

// FuzzInterconnectBind checks Bind against the exhaustive reference on
// fuzz-chosen module shapes and source multisets, weighted and
// unweighted: the same Swapped map, or the same error.
func FuzzInterconnectBind(f *testing.F) {
	// The shapes worth keeping (ties, pads, unary ops, side modules, the
	// cap) are in testdata/fuzz/FuzzInterconnectBind.
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pad, regOf, nregs, ops := decodeBindShape(data)
		if len(ops) == 0 {
			return
		}
		g, mb, rb := buildSynthetic(t, pad, regOf, nregs, ops)
		checkBindMatchesReference(t, "fuzz", g, mb, rb)
	})
}
