package bistpath

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"bistpath/internal/benchdata"
)

// presetDesign builds the dfgen preset design of the given size class and
// seed.
func presetDesign(t testing.TB, preset string, seed int64) (*DFG, map[string]string) {
	t.Helper()
	cfg, ok := benchdata.Preset(preset, seed)
	if !ok {
		t.Fatalf("unknown preset %q", preset)
	}
	return randomDesign(t, cfg)
}

// randomDesign generates a design with its area-driven module binding.
func randomDesign(t testing.TB, cfg benchdata.RandomConfig) (*DFG, map[string]string) {
	t.Helper()
	g, mb, err := benchdata.RandomWithModules(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mods := make(map[string]string)
	for _, m := range mb.Modules {
		for _, op := range m.Ops {
			mods[op] = m.Name
		}
	}
	return &DFG{g: g}, mods
}

// The retired search strategies run the exact search: a config that sets
// SearchAuto or SearchStochastic, with a seed and a generation cap, gets
// the default config's Result byte for byte (stats aside), walks the
// same number of nodes and shares its cache key. xl-3 exhausts the node
// budget, and xl-5 is where the genetic search returned a costlier plan.
func TestRetiredSearchesRunExact(t *testing.T) {
	type design struct {
		name string
		d    *DFG
		mods map[string]string
	}
	var designs []design
	for _, name := range BenchmarkNames() {
		d, mods, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, design{name, d, mods})
	}
	for _, p := range []struct {
		preset string
		seed   int64
	}{{"l", 1}, {"xl", 3}, {"xl", 5}} {
		d, mods := presetDesign(t, p.preset, p.seed)
		designs = append(designs, design{fmt.Sprintf("%s-%d", p.preset, p.seed), d, mods})
	}
	for _, ds := range designs {
		want, err := ds.d.SynthesizeCtx(context.Background(), ds.mods, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", ds.name, err)
		}
		wantJSON, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		mb, err := ds.d.moduleBinding(ds.mods)
		if err != nil {
			t.Fatal(err)
		}
		wantKey := cacheKey(ds.d.g, mb, DefaultConfig())
		for _, search := range []Search{SearchAuto, SearchStochastic} {
			cfg := DefaultConfig()
			cfg.Search, cfg.Seed, cfg.MaxGenerations = search, 7, 2
			got, err := ds.d.SynthesizeCtx(context.Background(), ds.mods, cfg)
			if err != nil {
				t.Fatalf("%s search %d: %v", ds.name, search, err)
			}
			gotJSON, err := got.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stripStats(t, gotJSON), stripStats(t, wantJSON)) {
				t.Errorf("%s search %d: Result differs from the default config's", ds.name, search)
			}
			if got.Stats.SearchNodes != want.Stats.SearchNodes {
				t.Errorf("%s search %d: %d search nodes, default %d", ds.name, search, got.Stats.SearchNodes, want.Stats.SearchNodes)
			}
			if cacheKey(ds.d.g, mb, cfg) != wantKey {
				t.Errorf("%s search %d: cache key differs from the default config's", ds.name, search)
			}
		}
	}
}
