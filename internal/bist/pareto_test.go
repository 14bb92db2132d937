package bist

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"bistpath/internal/area"
	"bistpath/internal/benchdata"
	"bistpath/internal/datapath"
	"bistpath/internal/interconnect"
)

func optimizeFront(t *testing.T, b *benchdata.Benchmark) ([]*Plan, *Plan) {
	t.Helper()
	dp, _, _ := buildBench(t, b, false)
	opts := DefaultOptions(8)
	front, err := OptimizePareto(context.Background(), dp, opts)
	if err != nil {
		t.Fatalf("%s: OptimizePareto: %v", b.Name, err)
	}
	single, err := Optimize(dp, DefaultOptions(8))
	if err != nil {
		t.Fatalf("%s: Optimize: %v", b.Name, err)
	}
	return front, single
}

func TestParetoFrontBenchmarks(t *testing.T) {
	for _, b := range benchdata.All() {
		front, single := optimizeFront(t, b)
		if len(front) == 0 {
			t.Fatalf("%s: empty front", b.Name)
		}
		for _, p := range front {
			if !p.Exact {
				t.Errorf("%s: front member %v not exact", b.Name, p.Cost)
			}
		}
		// Canonical order: strictly increasing lexicographically (which
		// also implies all vectors are distinct).
		for i := 1; i < len(front); i++ {
			if !front[i-1].Cost.Less(front[i].Cost) {
				t.Errorf("%s: front not in strict lexicographic order: %v then %v",
					b.Name, front[i-1].Cost, front[i].Cost)
			}
		}
		// Mutual non-domination.
		for i, p := range front {
			for j, q := range front {
				if i != j && p.Cost.Dominates(q.Cost) {
					t.Errorf("%s: front member %v dominates member %v", b.Name, p.Cost, q.Cost)
				}
			}
		}
		// The area-minimal member is the single-objective plan: same
		// area and the same embedding choice (the canonical depth-first
		// tie-break is shared between the two searches).
		if front[0].Cost.Area != single.ExtraArea {
			t.Errorf("%s: area-minimal front member area %d, single-objective %d",
				b.Name, front[0].Cost.Area, single.ExtraArea)
		}
		if len(front[0].Embeddings) != len(single.Embeddings) {
			t.Fatalf("%s: embedding count mismatch", b.Name)
		}
		for m, e := range single.Embeddings {
			if front[0].Embeddings[m] != e {
				t.Errorf("%s: module %s: front plan %v, single-objective plan %v",
					b.Name, m, front[0].Embeddings[m], e)
			}
		}
	}
}

func TestParetoCostConsistency(t *testing.T) {
	for _, b := range benchdata.All() {
		dp, _, _ := buildBench(t, b, false)
		front, err := OptimizePareto(context.Background(), dp, DefaultOptions(8))
		if err != nil {
			t.Fatal(err)
		}
		power := PowerWeights(area.Default(8), dp, nil)
		for _, p := range front {
			if err := p.Validate(dp); err != nil {
				t.Errorf("%s: front member invalid: %v", b.Name, err)
			}
			if got := PlanCost(p, power); got != p.Cost {
				t.Errorf("%s: PlanCost %v != stored Cost %v", b.Name, got, p.Cost)
			}
			if p.Cost.Area != p.ExtraArea {
				t.Errorf("%s: Cost.Area %d != ExtraArea %d", b.Name, p.Cost.Area, p.ExtraArea)
			}
			if p.Cost.TestTime != len(p.Sessions) {
				t.Errorf("%s: Cost.TestTime %d != %d sessions", b.Name, p.Cost.TestTime, len(p.Sessions))
			}
		}
	}
}

func TestWeightedBest(t *testing.T) {
	front, _ := optimizeFront(t, benchdata.Paulin())
	if WeightedBest(nil, 1, 1, 1) != nil {
		t.Fatal("WeightedBest(nil) != nil")
	}
	// Pure area weights select the area-minimal (first) member.
	if got := WeightedBest(front, 1, 0, 0); got != front[0] {
		t.Errorf("area-only weights picked %v, want %v", got.Cost, front[0].Cost)
	}
	// A dominant test-time weight selects a member with the minimal
	// session count on the front.
	minTT := front[0].Cost.TestTime
	for _, p := range front {
		if p.Cost.TestTime < minTT {
			minTT = p.Cost.TestTime
		}
	}
	if got := WeightedBest(front, 1, 1_000_000, 0); got.Cost.TestTime != minTT {
		t.Errorf("time-heavy weights picked %v, want %d sessions", got.Cost, minTT)
	}
	// The winner under any non-negative weights must match a manual
	// argmin over the front.
	for _, w := range [][3]int{{1, 1, 1}, {3, 50, 2}, {0, 1, 0}, {0, 0, 1}} {
		got := WeightedBest(front, w[0], w[1], w[2])
		for _, p := range front {
			if p.Cost.Weighted(w[0], w[1], w[2]) < got.Cost.Weighted(w[0], w[1], w[2]) {
				t.Errorf("weights %v: %v beats reported winner %v", w, p.Cost, got.Cost)
			}
		}
	}
}

func TestPowerWeights(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Ex1(), false)
	model := area.Default(8)
	def := PowerWeights(model, dp, nil)
	if len(def) != len(dp.Modules) {
		t.Fatalf("weights for %d modules, want %d", len(def), len(dp.Modules))
	}
	for _, m := range dp.Modules {
		if def[m.Name] != model.ModuleArea(m.Kinds) {
			t.Errorf("module %s default weight %d, want area-proportional %d",
				m.Name, def[m.Name], model.ModuleArea(m.Kinds))
		}
	}
	first := dp.Modules[0].Name
	over := PowerWeights(model, dp, map[string]int{first: 7})
	if over[first] != 7 {
		t.Errorf("override ignored: %d", over[first])
	}
	for _, m := range dp.Modules[1:] {
		if over[m.Name] != def[m.Name] {
			t.Errorf("module %s lost its default under a partial override", m.Name)
		}
	}
}

func TestParetoPowerOverrideChangesObjective(t *testing.T) {
	// With every module weighing the same, peak power is proportional to
	// the largest session, so the front collapses differently than under
	// the default weights; the search must still produce a valid,
	// non-dominated front.
	dp, _, _ := buildBench(t, benchdata.Paulin(), false)
	uniform := make(map[string]int, len(dp.Modules))
	for _, m := range dp.Modules {
		uniform[m.Name] = 1
	}
	opts := DefaultOptions(8)
	opts.Power = uniform
	front, err := OptimizePareto(context.Background(), dp, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range front {
		if err := p.Validate(dp); err != nil {
			t.Fatal(err)
		}
		if got := PlanCost(p, uniform); got != p.Cost {
			t.Errorf("PlanCost %v != Cost %v", got, p.Cost)
		}
		// Peak power under uniform unit weights is the largest session
		// size, bounded by the module count.
		if p.Cost.PeakPower > len(dp.Modules) || p.Cost.PeakPower < 1 {
			t.Errorf("implausible uniform peak power %d", p.Cost.PeakPower)
		}
	}
}

func TestParetoNodeBudgetInexact(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Paulin(), false)
	opts := DefaultOptions(8)
	opts.NodeBudget = 50 // far below the full walk
	front, err := OptimizePareto(context.Background(), dp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("budget-bounded search returned no plans")
	}
	for _, p := range front {
		if p.Exact {
			t.Error("plan claims exactness despite an exhausted budget")
		}
		if err := p.Validate(dp); err != nil {
			t.Error(err)
		}
	}
	for i, p := range front {
		for j, q := range front {
			if i != j && p.Cost.Dominates(q.Cost) {
				t.Errorf("inexact front member %v dominates %v", p.Cost, q.Cost)
			}
		}
	}
}

func TestParetoCancellation(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Paulin(), false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizePareto(ctx, dp, DefaultOptions(8)); err != context.Canceled {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}
}

func TestCostVectorDominates(t *testing.T) {
	a := CostVector{10, 2, 5}
	cases := []struct {
		b    CostVector
		want bool
	}{
		{CostVector{10, 2, 5}, false}, // equal: no domination
		{CostVector{11, 2, 5}, true},
		{CostVector{10, 3, 5}, true},
		{CostVector{10, 2, 6}, true},
		{CostVector{11, 3, 6}, true},
		{CostVector{9, 2, 5}, false},  // better area
		{CostVector{11, 1, 5}, false}, // trade-off
	}
	for _, c := range cases {
		if got := a.Dominates(c.b); got != c.want {
			t.Errorf("%v.Dominates(%v) = %v, want %v", a, c.b, got, c.want)
		}
	}
	if a.Less(a) {
		t.Error("Less not irreflexive")
	}
	if !a.Less(CostVector{10, 2, 6}) || (CostVector{10, 2, 6}).Less(a) {
		t.Error("lexicographic order broken on the last component")
	}
}

// referencePareto is the Pareto walk as it stood before it moved onto
// the exact search's prepared space: its own enumeration and ordering,
// name-keyed duty maps for the area, and a materialized Plan scheduled
// by ScheduleSessions at every leaf. It is the oracle for
// OptimizePareto, which must reproduce it exactly — vectors,
// representative plans, sessions, Exact and the search counters.
func referencePareto(ctx context.Context, dp *datapath.Datapath, opts Options) ([]*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Model.Width == 0 {
		opts.Model = area.Default(dp.Width)
	}
	if opts.NodeBudget == 0 {
		opts.NodeBudget = 2_000_000
	}
	power := PowerWeights(opts.Model, dp, opts.Power)
	mods := make([]modEmb, 0, len(dp.Modules))
	var embTotal int64
	for _, m := range dp.Modules {
		embs := Embeddings(dp, m.Name, opts.AllowPadHeads)
		if len(embs) == 0 {
			return nil, fmt.Errorf("bist: module %s has %w (no register I-paths)", m.Name, ErrNoEmbedding)
		}
		embTotal += int64(len(embs))
		mods = append(mods, modEmb{m.Name, embs})
	}
	if opts.Metrics != nil {
		*opts.Metrics = Metrics{Embeddings: embTotal}
	}
	if len(mods) == 0 {
		p := &Plan{Embeddings: map[string]Embedding{}, Styles: map[string]area.Style{}, Exact: true}
		p.Sessions = ScheduleSessions(p)
		return []*Plan{p}, nil
	}
	referenceOrder(opts.Model, mods)

	e := &referenceEnum{
		ctx: ctx, opts: opts, mods: mods, power: power,
		tpg: map[string]int{}, sa: map[string]int{}, cb: map[string]int{},
		cur: make([]int32, len(mods)), embs: make(map[string]Embedding, len(mods)),
		cornerArea: -1,
	}
	for _, m := range dp.Modules {
		e.ppLB = max(e.ppLB, power[m.Name])
	}
	e.dfs(0)
	if e.cancelled {
		return nil, ctx.Err()
	}
	if opts.Metrics != nil {
		opts.Metrics.Nodes, opts.Metrics.BoundPrunes, opts.Metrics.Incumbents = e.nodes, e.prunes, e.incumbent
	}
	sort.Slice(e.archive, func(i, j int) bool { return e.archive[i].vec.Less(e.archive[j].vec) })
	var front []*Plan
	for _, en := range e.archive {
		embs := make(map[string]Embedding, len(mods))
		for i, m := range mods {
			embs[m.name] = m.embs[en.asg[i]]
		}
		p := PlanFromEmbeddings(opts.Model, embs, !e.inexact)
		p.Cost = PlanCost(p, power)
		if p.Cost != en.vec {
			return nil, fmt.Errorf("bist: pareto plan cost %v diverges from search vector %v", p.Cost, en.vec)
		}
		if err := p.Validate(dp); err != nil {
			return nil, err
		}
		front = append(front, p)
	}
	if len(front) == 0 {
		p, err := OptimizeCtx(ctx, dp, opts)
		if err != nil {
			return nil, err
		}
		p.Exact = false
		p.Cost = PlanCost(p, power)
		front = append(front, p)
	}
	return front, nil
}

// referenceEnum is referencePareto's walk state.
type referenceEnum struct {
	ctx              context.Context
	opts             Options
	mods             []modEmb
	power            map[string]int
	tpg, sa, cb      map[string]int
	areaCost         int
	cur              []int32
	embs             map[string]Embedding
	ppLB, cornerArea int
	archive          []paretoEntry
	nodes, prunes    int64
	incumbent        int64
	inexact          bool
	cancelled        bool
}

func (e *referenceEnum) styleExtra(r string) int {
	m := e.opts.Model
	switch {
	case e.cb[r] > 0:
		return m.StyleExtra(area.CBILBO)
	case e.tpg[r] > 0 && e.sa[r] > 0:
		return m.StyleExtra(area.BILBO)
	case e.tpg[r] > 0:
		return m.StyleExtra(area.TPG)
	case e.sa[r] > 0:
		return m.StyleExtra(area.SA)
	}
	return 0
}

func (e *referenceEnum) bump(emb Embedding, d int) {
	touch := func(h string, isHead bool) {
		before := e.styleExtra(h)
		if isHead {
			e.tpg[h] += d
			if h == emb.Tail {
				e.cb[h] += d
			}
		} else {
			e.sa[h] += d
		}
		e.areaCost += e.styleExtra(h) - before
	}
	for _, h := range []string{emb.HeadL, emb.HeadR} {
		if h != "" && !interconnect.IsPad(h) {
			touch(h, true)
		}
	}
	touch(emb.Tail, false)
}

func (e *referenceEnum) dfs(i int) {
	e.nodes++
	if e.opts.NodeBudget > 0 && e.nodes > int64(e.opts.NodeBudget) {
		e.inexact = true
		return
	}
	if e.nodes&1023 == 0 {
		select {
		case <-e.ctx.Done():
			e.cancelled = true
		default:
		}
		if e.opts.Progress != nil {
			e.opts.Progress(e.nodes)
		}
	}
	if e.cancelled || e.inexact {
		return
	}
	if e.cornerArea >= 0 && e.cornerArea <= e.areaCost {
		e.prunes++
		return
	}
	if i == len(e.mods) {
		e.leaf()
		return
	}
	for j, emb := range e.mods[i].embs {
		e.cur[i] = int32(j)
		e.bump(emb, +1)
		e.dfs(i + 1)
		e.bump(emb, -1)
	}
}

func (e *referenceEnum) leaf() {
	clear(e.embs)
	for i, m := range e.mods {
		e.embs[m.name] = m.embs[e.cur[i]]
	}
	p := Plan{Embeddings: e.embs, Styles: stylesOf(e.embs)}
	sessions := ScheduleSessions(&p)
	v := CostVector{Area: e.areaCost, TestTime: len(sessions)}
	for _, sess := range sessions {
		sum := 0
		for _, m := range sess {
			sum += e.power[m]
		}
		v.PeakPower = max(v.PeakPower, sum)
	}
	for _, en := range e.archive {
		if en.vec == v || en.vec.Dominates(v) {
			return
		}
	}
	kept := e.archive[:0]
	for _, en := range e.archive {
		if !v.Dominates(en.vec) {
			kept = append(kept, en)
		}
	}
	e.archive = append(kept, paretoEntry{vec: v, asg: append([]int32(nil), e.cur...)})
	e.incumbent++
	if v.TestTime == 1 && v.PeakPower == e.ppLB && (e.cornerArea < 0 || v.Area < e.cornerArea) {
		e.cornerArea = v.Area
	}
}

// checkParetoMatchesReference runs referencePareto once and
// OptimizePareto on a fresh Scratch and on shared, and requires
// identical results: the same error, or fronts whose plans are deeply
// equal member for member (vectors, embeddings, styles, sessions,
// Exact) and equal Metrics.
func checkParetoMatchesReference(t *testing.T, name string, dp *datapath.Datapath, opts Options, shared *Scratch) {
	t.Helper()
	var want Metrics
	opts.Metrics = &want
	ref, rerr := referencePareto(context.Background(), dp, opts)
	for _, sc := range []*Scratch{NewScratch(), shared} {
		var got Metrics
		opts.Metrics, opts.Scratch = &got, sc
		front, err := OptimizePareto(context.Background(), dp, opts)
		if fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Fatalf("%s: error %v, reference %v", name, err, rerr)
		}
		if len(front) != len(ref) {
			t.Fatalf("%s: %d front members, reference %d", name, len(front), len(ref))
		}
		for i := range front {
			if !reflect.DeepEqual(front[i], ref[i]) {
				t.Fatalf("%s: member %d\n%+v\nreference\n%+v", name, i, front[i], ref[i])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: metrics %+v, reference %+v", name, got, want)
		}
	}
}

// paretoPowers returns the power overrides the differential tests run
// besides the area-proportional default: every module at weight w, and
// a single module at w.
func paretoPowers(dp *datapath.Datapath, w int) map[string]map[string]int {
	uniform := make(map[string]int, len(dp.Modules))
	for _, m := range dp.Modules {
		uniform[m.Name] = w
	}
	out := map[string]map[string]int{"uniform": uniform}
	if len(dp.Modules) > 0 {
		out["single"] = map[string]int{dp.Modules[len(dp.Modules)/2].Name: w}
	}
	return out
}

// TestParetoMatchesReference holds the Pareto walk to the reference
// walk on the five paper designs (both binding modes, pad heads on and
// off, node budgets from one node to the default, default and
// overridden power weights) and on the RandomDesign sweep shapes, there
// under a 5,000-node budget so that the largest (seed 210 exhausts the
// default two million nodes) compare truncated fronts. Each case runs
// on a fresh and on one shared, reused Scratch.
func TestParetoMatchesReference(t *testing.T) {
	shared := NewScratch()
	for _, b := range benchdata.All() {
		for _, trad := range []bool{false, true} {
			dp, _, _ := buildBench(t, b, trad)
			for _, pads := range []bool{true, false} {
				name := fmt.Sprintf("%s trad=%v pads=%v", b.Name, trad, pads)
				opts := DefaultOptions(8)
				opts.AllowPadHeads = pads
				for _, budget := range []int{0, 1, 7, 100, 5000} {
					opts.NodeBudget = budget
					checkParetoMatchesReference(t, fmt.Sprintf("%s budget=%d", name, budget), dp, opts, shared)
				}
				opts.NodeBudget = 0
				for pname, power := range paretoPowers(dp, 3) {
					opts.Power = power
					checkParetoMatchesReference(t, fmt.Sprintf("%s power=%s", name, pname), dp, opts, shared)
				}
			}
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		dp := buildRandomDP(t, benchdata.SweepConfig(seed))
		for _, pads := range []bool{true, false} {
			opts := DefaultOptions(8)
			opts.AllowPadHeads, opts.NodeBudget = pads, 5000
			checkParetoMatchesReference(t, fmt.Sprintf("sweep-%d pads=%v", seed, pads), dp, opts, shared)
		}
	}
}

// FuzzParetoMatchesReference is the differential fuzz target behind
// TestParetoMatchesReference: a DefaultRandomConfig design from the
// fuzzed seed, under a fuzzed pad-head flag, node budget and power
// override, must come out of OptimizePareto exactly as out of
// referencePareto. One Scratch serves every input, so residue from an
// earlier design would show. flags bit 0 disallows pad heads; bits 1-2
// pick the power override (0 default, 1 every module at weight, 2 one
// module at weight, 3 default). The committed corpus is in
// testdata/fuzz/FuzzParetoMatchesReference.
func FuzzParetoMatchesReference(f *testing.F) {
	sc := NewScratch()
	f.Fuzz(func(t *testing.T, seed int64, flags byte, budget uint16, weight int8) {
		dp := buildRandomDP(t, benchdata.DefaultRandomConfig(seed))
		opts := DefaultOptions(8)
		opts.AllowPadHeads = flags&1 == 0
		opts.NodeBudget = int(budget)
		powers := paretoPowers(dp, int(weight))
		switch flags >> 1 & 3 {
		case 1:
			opts.Power = powers["uniform"]
		case 2:
			opts.Power = powers["single"]
		}
		checkParetoMatchesReference(t, fmt.Sprintf("seed=%d flags=%#x budget=%d weight=%d", seed, flags, budget, weight), dp, opts, sc)
	})
}
