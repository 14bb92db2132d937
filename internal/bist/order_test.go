package bist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bistpath/internal/area"
	"bistpath/internal/benchdata"
	"bistpath/internal/datapath"
)

// referenceOrder is the original canonical ordering, kept as the oracle
// for canonicalOrder: a stable insertion sort of the modules by (len,
// name), then a stable insertion sort of each module's embeddings by
// standalone cost.
func referenceOrder(model area.Model, mods []modEmb) {
	for i := 1; i < len(mods); i++ {
		m := mods[i]
		j := i - 1
		for j >= 0 && (len(m.embs) < len(mods[j].embs) ||
			(len(m.embs) == len(mods[j].embs) && m.name < mods[j].name)) {
			mods[j+1] = mods[j]
			j--
		}
		mods[j+1] = m
	}
	for _, m := range mods {
		insertionSortByCost(model, m.embs)
	}
}

func insertionSortByCost(model area.Model, embs []Embedding) {
	costs := make([]int, len(embs))
	for j, e := range embs {
		costs[j] = standaloneCost(model, e)
	}
	for i := 1; i < len(costs); i++ {
		c, e := costs[i], embs[i]
		j := i - 1
		for j >= 0 && costs[j] > c {
			costs[j+1], embs[j+1] = costs[j], embs[j]
			j--
		}
		costs[j+1], embs[j+1] = c, e
	}
}

// differentialDatapaths returns the ordering corpus: the five paper
// designs (testable and traditional register binding), the dfgen
// presets s/m/l at seeds 1-6 and xl at seeds 1-3, and 300 sweep designs.
func differentialDatapaths(t testing.TB) map[string]*datapath.Datapath {
	t.Helper()
	out := make(map[string]*datapath.Datapath)
	for _, b := range benchdata.All() {
		out[b.Name+"/testable"], _, _ = buildBench(t, b, false)
		out[b.Name+"/traditional"], _, _ = buildBench(t, b, true)
	}
	for _, preset := range []string{"s", "m", "l", "xl"} {
		seeds := int64(6)
		if preset == "xl" {
			seeds = 3
		}
		for seed := int64(1); seed <= seeds; seed++ {
			cfg, _ := benchdata.Preset(preset, seed)
			out[fmt.Sprintf("%s-%d", preset, seed)] = buildRandomDP(t, cfg)
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		out[fmt.Sprintf("sweep-%d", seed)] = buildRandomDP(t, benchdata.SweepConfig(seed))
	}
	return out
}

// TestCanonicalOrderMatchesReference checks that prepareSpace, on one
// Scratch reused across every data path, puts the modules and each
// module's embeddings in exactly the reference order, with and without
// pad heads: the exact, stochastic and Pareto searches all walk this
// order, so equality here means they visit the same nodes.
func TestCanonicalOrderMatchesReference(t *testing.T) {
	sc := NewScratch()
	for name, dp := range differentialDatapaths(t) {
		for _, pads := range []bool{true, false} {
			opts := DefaultOptions(dp.Width)
			opts.AllowPadHeads = pads
			var want []modEmb
			for _, m := range dp.Modules {
				want = append(want, modEmb{m.Name, Embeddings(dp, m.Name, pads)})
			}
			referenceOrder(opts.Model, want)
			sp, err := prepareSpace(dp, opts, sc)
			if err != nil {
				// A module without embeddings fails the same way
				// whatever the order.
				continue
			}
			if len(sp.mods) != len(want) {
				t.Fatalf("%s pads=%v: %d modules, reference %d", name, pads, len(sp.mods), len(want))
			}
			for i, m := range sp.mods {
				if m.name != want[i].name || !slices.Equal(m.embs, want[i].embs) {
					t.Fatalf("%s pads=%v: module position %d is %s with %d embeddings, reference %s with %d (or the embedding order differs)",
						name, pads, i, m.name, len(m.embs), want[i].name, len(want[i].embs))
				}
			}
		}
	}
}

// TestOrderByCostMatchesInsertionSort drives orderByCost with random
// embedding lists (register and pad heads, unary modules, CBILBO tails,
// many equal costs) under area models where distinct styles can cost
// the same, against the reference insertion sort.
func TestOrderByCostMatchesInsertionSort(t *testing.T) {
	models := []area.Model{area.Default(8), area.Default(16)}
	flat := area.Default(8) // SA + TPG costs exactly one CBILBO
	flat.RegBit, flat.TPGBit, flat.SABit, flat.BILBOBit, flat.CBILBOBit = 1, 2, 2, 3, 3
	models = append(models, flat)
	heads := []string{"R1", "R2", "R3", "in:a", "in:b"}
	rng := rand.New(rand.NewSource(7))
	var costs []int
	var perm []int32
	for c := 0; c < 500; c++ {
		n := rng.Intn(60)
		embs := make([]Embedding, n)
		for i := range embs {
			e := Embedding{Module: "M", HeadL: heads[rng.Intn(len(heads))], Tail: heads[rng.Intn(3)]}
			if rng.Intn(4) != 0 {
				e.HeadR = heads[rng.Intn(len(heads))]
			}
			embs[i] = e
		}
		model := models[c%len(models)]
		want := append([]Embedding(nil), embs...)
		insertionSortByCost(model, want)
		costs, perm = orderByCost(model, embs, costs, perm)
		if !slices.Equal(embs, want) {
			t.Fatalf("case %d: orderByCost\n%v\nreference\n%v", c, embs, want)
		}
	}
}
