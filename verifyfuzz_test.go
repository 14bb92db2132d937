package bistpath

import (
	"context"
	"errors"
	"testing"
)

// FuzzRandomSynthesizeVerify drives the whole pipeline — random design
// generation, synthesis under a fuzz-chosen configuration, and the
// verification harness — from a (seed, flags) pair. The flags byte
// toggles mode and session tie-break (its higher bits are unused), so
// the fuzzer explores configuration space as well as design space. Any structural
// violation, functional mismatch or panic is a finding.
func FuzzRandomSynthesizeVerify(f *testing.F) {
	f.Add(int64(1), byte(0))
	f.Add(int64(7), byte(1))
	f.Add(int64(13), byte(2))
	f.Add(int64(42), byte(7))
	f.Add(int64(99), byte(12))
	// Regression: a two-instance module whose instances present the
	// Lemma-2 case-(i) register on different ports, un-forcing the
	// CBILBO the register-level conditions predict.
	f.Add(int64(124), byte(0x69))
	f.Fuzz(func(t *testing.T, seed int64, flags byte) {
		d, mods, err := RandomDesign(seed)
		if err != nil {
			t.Fatalf("seed %d: design generation failed: %v", seed, err)
		}
		cfg := DefaultConfig()
		if flags&1 != 0 {
			cfg.Mode = TraditionalHLS
		}
		if flags&2 != 0 {
			cfg.MinimizeSessions = true
		}
		res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
		if err != nil {
			// The one legitimate failure: a module none of whose ports
			// any register can reach. Everything else is a bug.
			if errors.Is(err, ErrNoEmbedding) {
				t.Skip()
			}
			t.Fatalf("seed %d flags %#x: %v", seed, flags, err)
		}
		rep, err := res.Verify(context.Background(), VerifyOptions{
			SkipOracles: true, Vectors: 20, Seed: seed + 1,
		})
		if err != nil {
			t.Fatalf("seed %d flags %#x: %v", seed, flags, err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d flags %#x:\n%s", seed, flags, rep.Summary())
		}
	})
}
