package bistpath

import (
	"fmt"
	"testing"
)

// TestCacheKeyPinned pins the canonical fingerprint for representative
// benchmark/config pairs. The hex values predate every refactor of how
// cacheKey renders its pre-image, so they prove the rendering still
// reproduces the historical pre-image byte for byte — no persisted
// cache entry is invalidated.
func TestCacheKeyPinned(t *testing.T) {
	weighted := DefaultConfig()
	weighted.Objective = WeightedSum
	weighted.Weights = Weights{Area: 1, TestTime: 2, PeakPower: 3}
	weighted.Power = map[string]int{"m1": 4, "a1": 2}

	stoch := DefaultConfig()
	stoch.Search = SearchStochastic
	stoch.Seed = 7

	pins := []struct {
		bench string
		cfg   Config
		want  string
	}{
		{"ex1", DefaultConfig(), "e593ddba5d63cc0c89c5dd178c3dd1372182690a3d2edd4b3bc057e928c6f6c4"},
		{"ex1", weighted, "a5365a6466bded5857eb5ae3090497bb28d5b0873e5ba5b9dbde735bec209999"},
		{"ex1", stoch, "de020217e8fb7e597ce1e6d315a9cd7bf298f0d89c54949259414df608dbe82c"},
		{"paulin", DefaultConfig(), "9e4ef9193acde91ff11eb12847a71aede6edcad17a11b22cfc131c9cbdd846e9"},
		{"paulin", weighted, "e3c7d60050bd6abfef7d07e7cb081b4f50059bfb5057925090378f6775402c0d"},
		{"paulin", stoch, "17f7f1e3dbf2a684b0aad432225cada660e346beb340c98acd4f2d8236304562"},
	}
	for _, p := range pins {
		d, mods, err := Benchmark(p.bench)
		if err != nil {
			t.Fatalf("Benchmark(%s): %v", p.bench, err)
		}
		mb, err := d.moduleBinding(mods)
		if err != nil {
			t.Fatalf("moduleBinding(%s): %v", p.bench, err)
		}
		got := fmt.Sprintf("%x", cacheKey(d.g, mb, p.cfg))
		if got != p.want {
			t.Errorf("cacheKey(%s, %+v) = %s, want %s", p.bench, p.cfg, got, p.want)
		}
	}
}
