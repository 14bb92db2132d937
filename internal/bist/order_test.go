package bist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bistpath/internal/area"
	"bistpath/internal/benchdata"
	"bistpath/internal/datapath"
	"bistpath/internal/interconnect"
)

// modEmb pairs a module with its embeddings, the name-level form of a
// search space the reference oracles build.
type modEmb struct {
	name string
	embs []Embedding
}

// referenceOrder is the original canonical ordering, kept as the oracle
// for prepareSpace's: a stable insertion sort of the modules by (len,
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
		costs[j] = namedStandaloneCost(model, e)
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

// namedStandaloneCost is the name-level definition of an embedding's
// standalone upgrade area, extraArea(model, stylesOf({e})), computed
// without the role maps.
func namedStandaloneCost(model area.Model, e Embedding) int {
	lReg := e.HeadL != "" && !interconnect.IsPad(e.HeadL)
	rReg := e.HeadR != "" && !interconnect.IsPad(e.HeadR)
	cost := 0
	if (lReg && e.HeadL == e.Tail) || (rReg && e.HeadR == e.Tail) {
		cost += model.StyleExtra(area.CBILBO)
	} else {
		cost += model.StyleExtra(area.SA)
	}
	if lReg && e.HeadL != e.Tail {
		cost += model.StyleExtra(area.TPG)
	}
	if rReg && e.HeadR != e.Tail && !(lReg && e.HeadR == e.HeadL) {
		cost += model.StyleExtra(area.TPG)
	}
	return cost
}

// refSpace is referencePrepare's search space: the modules with their
// materialized embeddings in search order, the compact refs built from
// them, and the interned register names.
type refSpace struct {
	mods     []modEmb
	refs     [][]embRef
	regNames []string
	embTotal int64
}

// referencePrepare is the search-space build as it stood before
// candidates were generated from interned port lists: it materializes
// every module's embeddings through Embeddings, puts them in canonical
// order (referenceOrder) and interns each embedding's register names.
// It is the oracle for prepareSpace.
func referencePrepare(dp *datapath.Datapath, opts Options) (refSpace, error) {
	var sp refSpace
	for _, m := range dp.Modules {
		embs := Embeddings(dp, m.Name, opts.AllowPadHeads)
		if len(embs) == 0 {
			return sp, fmt.Errorf("bist: module %s has %w (no register I-paths)", m.Name, ErrNoEmbedding)
		}
		sp.embTotal += int64(len(embs))
		sp.mods = append(sp.mods, modEmb{m.Name, embs})
	}
	referenceOrder(opts.Model, sp.mods)
	regID := map[string]int32{}
	intern := func(name string) int32 {
		if name == "" || interconnect.IsPad(name) {
			return -1
		}
		id, ok := regID[name]
		if !ok {
			id = int32(len(sp.regNames))
			regID[name] = id
			sp.regNames = append(sp.regNames, name)
		}
		return id
	}
	for _, m := range sp.mods {
		rr := make([]embRef, 0, len(m.embs))
		for _, e := range m.embs {
			rr = append(rr, embRef{intern(e.HeadL), intern(e.HeadR), intern(e.Tail)})
		}
		sp.refs = append(sp.refs, rr)
	}
	return sp, nil
}

// regNamesOf returns the register name behind every interned register id
// of sp, read off the sources that name each candidate, and fails the
// test unless ids and names correspond one to one and every -1 head is
// a pad or the missing right head.
func regNamesOf(t *testing.T, name string, sp *searchSpace) []string {
	t.Helper()
	names := make([]string, sp.nregs)
	seen := map[string]int32{}
	check := func(reg, src int32) {
		n := sp.srcNames[src]
		if reg < 0 {
			if n != "" && !interconnect.IsPad(n) {
				t.Fatalf("%s: register %s interned as -1", name, n)
			}
			return
		}
		if names[reg] == "" {
			if prev, ok := seen[n]; ok && prev != reg {
				t.Fatalf("%s: register %s interned as both %d and %d", name, n, prev, reg)
			}
			names[reg], seen[n] = n, reg
		}
		if names[reg] != n {
			t.Fatalf("%s: register id %d names both %s and %s", name, reg, names[reg], n)
		}
	}
	for i, rr := range sp.refs {
		for j, e := range rr {
			s := sp.srcs[i][j]
			check(e.l, s.l)
			check(e.r, s.r)
			check(e.t, s.t)
		}
	}
	return names
}

// differentialDatapaths returns the ordering corpus: the five paper
// designs (testable and traditional register binding, and testable with
// every port list reversed, as a hand-built data path may order them),
// the dfgen presets s/m/l at seeds 1-6 and xl at seeds 1-3, and 300
// sweep designs.
func differentialDatapaths(t testing.TB) map[string]*datapath.Datapath {
	t.Helper()
	out := make(map[string]*datapath.Datapath)
	for _, b := range benchdata.All() {
		out[b.Name+"/testable"], _, _ = buildBench(t, b, false)
		out[b.Name+"/traditional"], _, _ = buildBench(t, b, true)
		dp, _, _ := buildBench(t, b, false)
		for _, m := range dp.Modules {
			slices.Reverse(m.Left)
			slices.Reverse(m.Right)
			slices.Reverse(m.Dests)
		}
		out[b.Name+"/reversed-ports"] = dp
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

// TestCanonicalOrderMatchesReference checks prepareSpace, on one
// Scratch reused across every data path, against referencePrepare, with
// and without pad heads: the same modules in the same order, each
// module's embeddings in the same order, every ref naming the same
// registers, and the same embedding total (Metrics.Embeddings). The
// exact, stochastic and Pareto searches all walk this order, so
// equality here means they visit the same nodes.
func TestCanonicalOrderMatchesReference(t *testing.T) {
	sc := NewScratch()
	for name, dp := range differentialDatapaths(t) {
		for _, pads := range []bool{true, false} {
			name := fmt.Sprintf("%s pads=%v", name, pads)
			opts := DefaultOptions(dp.Width)
			opts.AllowPadHeads = pads
			want, werr := referencePrepare(dp, opts)
			sp, err := prepareSpace(dp, opts, sc)
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%s: error %v, reference %v", name, err, werr)
			}
			if err != nil {
				continue
			}
			if len(sp.mods) != len(want.mods) || sp.embTotal != want.embTotal {
				t.Fatalf("%s: %d modules and %d embeddings, reference %d and %d", name, len(sp.mods), sp.embTotal, len(want.mods), want.embTotal)
			}
			regs := regNamesOf(t, name, &sp)
			regName := func(names []string, id int32) string {
				if id < 0 {
					return ""
				}
				return names[id]
			}
			for i, m := range sp.mods {
				w := want.mods[i]
				if m != w.name || len(sp.refs[i]) != len(w.embs) {
					t.Fatalf("%s: module position %d is %s with %d embeddings, reference %s with %d",
						name, i, m, len(sp.refs[i]), w.name, len(w.embs))
				}
				for j, e := range sp.refs[i] {
					if got := sp.embedding(i, int32(j)); got != w.embs[j] {
						t.Fatalf("%s: %s candidate %d is %v, reference %v", name, m, j, got, w.embs[j])
					}
					we := want.refs[i][j]
					for _, pair := range [][2]int32{{e.l, we.l}, {e.r, we.r}, {e.t, we.t}} {
						if regName(regs, pair[0]) != regName(want.regNames, pair[1]) {
							t.Fatalf("%s: %s candidate %d names register %q, reference %q",
								name, m, j, regName(regs, pair[0]), regName(want.regNames, pair[1]))
						}
					}
				}
			}
		}
	}
}

// TestOrderByCostMatchesInsertionSort drives orderByCost with random
// embedding lists (register and pad heads, unary modules, CBILBO tails,
// many equal costs), interned as prepareSpace interns them, under area
// models where distinct styles can cost the same, against the
// reference insertion sort over the named embeddings.
func TestOrderByCostMatchesInsertionSort(t *testing.T) {
	models := []area.Model{area.Default(8), area.Default(16)}
	flat := area.Default(8) // SA + TPG costs exactly one CBILBO
	flat.RegBit, flat.TPGBit, flat.SABit, flat.BILBOBit, flat.CBILBOBit = 1, 2, 2, 3, 3
	models = append(models, flat)
	heads := []string{"R1", "R2", "R3", "in:a", "in:b"}
	sc := NewScratch()
	sc.resetIntern(len(heads))
	for _, h := range heads {
		sc.internSource(h)
	}
	sp := searchSpace{srcNames: sc.srcNames, mods: []string{"M"}}
	rng := rand.New(rand.NewSource(7))
	var costs []int
	var perm []int32
	for c := 0; c < 500; c++ {
		n := rng.Intn(60)
		embs := make([]Embedding, n)
		refs, srcs := make([]embRef, n), make([]srcRef, n)
		for i := range embs {
			e := Embedding{Module: "M", HeadL: heads[rng.Intn(len(heads))], Tail: heads[rng.Intn(3)]}
			if rng.Intn(4) != 0 {
				e.HeadR = heads[rng.Intn(len(heads))]
			}
			embs[i] = e
			s := srcRef{sc.srcID[e.HeadL], sc.srcID[e.HeadR], sc.srcID[e.Tail]}
			refs[i], srcs[i] = embRef{sc.regOf[s.l], sc.regOf[s.r], sc.regOf[s.t]}, s
		}
		model := models[c%len(models)]
		insertionSortByCost(model, embs)
		costs, perm = newStyleCosts(model).orderByCost(refs, srcs, costs, perm)
		sp.refs, sp.srcs = [][]embRef{refs}, [][]srcRef{srcs}
		for j, want := range embs {
			if got := sp.embedding(0, int32(j)); got != want || refs[j] != (embRef{sc.regOf[srcs[j].l], sc.regOf[srcs[j].r], sc.regOf[srcs[j].t]}) {
				t.Fatalf("case %d: position %d is %v (ref %v), reference %v", c, j, got, refs[j], want)
			}
		}
	}
}
