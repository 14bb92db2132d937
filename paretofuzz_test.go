package bistpath

import (
	"context"
	"errors"
	"testing"
)

// FuzzParetoOracle drives the multi-objective pipeline from a
// (seed, flags) pair: a random design is synthesized under the
// ParetoFront objective and the reported front is checked against the
// harness's independent recomputation — and, whenever the embedding
// space is small enough, against the exhaustive enumerated oracle, which
// must reproduce the front's vector set exactly. The flags byte toggles
// mode and pad-TPG legality so the fuzzer explores both embedding
// universes.
func FuzzParetoOracle(f *testing.F) {
	f.Add(int64(1), byte(0))
	f.Add(int64(7), byte(1))
	f.Add(int64(23), byte(2))
	f.Add(int64(42), byte(3))
	f.Add(int64(124), byte(1))
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
			cfg.AllowPadTPG = false
		}
		res, err := d.SynthesizeParetoCtx(context.Background(), mods, cfg)
		if err != nil {
			if errors.Is(err, ErrNoEmbedding) {
				t.Skip()
			}
			t.Fatalf("seed %d flags %#x: %v", seed, flags, err)
		}
		rep, err := res.VerifyPareto(context.Background(), VerifyOptions{
			EmbeddingCap: 1 << 14, // keep each oracle walk sub-second
		})
		if err != nil {
			t.Fatalf("seed %d flags %#x: %v", seed, flags, err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d flags %#x: %v", seed, flags, rep.Err())
		}
	})
}
