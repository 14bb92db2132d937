package bist

import (
	"testing"

	"bistpath/internal/benchdata"
)

// The search-space build alone on dfgen xl-3 (104,592 candidate
// embeddings, most of them on one module): interning the port lists,
// generating the candidate refs and cost-ordering them, on a warm
// Scratch as a Synthesizer handle keeps one.
func BenchmarkPrepareSpace_xl(b *testing.B) {
	cfg, _ := benchdata.Preset("xl", 3)
	dp := buildRandomDP(b, cfg)
	opts := DefaultOptions(8)
	sc := NewScratch()
	if _, err := prepareSpace(dp, opts, sc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prepareSpace(dp, opts, sc); err != nil {
			b.Fatal(err)
		}
	}
}
