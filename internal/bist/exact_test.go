package bist

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bistpath/internal/area"
	"bistpath/internal/benchdata"
	"bistpath/internal/datapath"
)

// referenceOptimize is the exact search as it stood before it gained a
// lower bound and a greedy seed: the same canonical walk, pruned only
// on the committed cost against a bound that starts infinite (or at a
// warm-start incumbent's cost), with greedy's plan computed only after
// the walk, when the node budget ran out. It is the oracle for
// OptimizeCtx: where it completes, the plans must be identical, and
// where it finishes inside the first poll interval, the Metrics too.
func referenceOptimize(ctx context.Context, dp *datapath.Datapath, opts Options) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Model.Width == 0 {
		opts.Model = area.Default(dp.Width)
	}
	if opts.NodeBudget == 0 {
		opts.NodeBudget = 2_000_000
	}
	sc := opts.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	sp, err := prepareSpace(dp, opts, sc)
	if err != nil {
		return nil, err
	}
	mods := sp.mods

	best := make(map[string]Embedding, len(mods))
	bestCost := -1
	exact := true

	if opts.Metrics != nil {
		*opts.Metrics = Metrics{Embeddings: sp.embTotal}
	}
	a := &sc.arena
	if len(mods) == 0 {
		bestCost = 0
	} else {
		a.size(sp.nregs, len(mods))
		if opts.MinimizeSessions {
			a.prepareSchedule(&sp)
		}
		s := &referenceSearch{dutyEval: newDutyEval(&sp, a), ctx: ctx, opts: opts, sp: sp, bound: math.MaxInt}
		if cost, ok := incumbentBound(dp, opts); ok {
			s.bound = cost
		}
		s.expand(0)
		if s.cancelled {
			return nil, ctx.Err()
		}
		if opts.Metrics != nil {
			opts.Metrics.Nodes = s.nodes
			opts.Metrics.BoundPrunes = s.prunes
			opts.Metrics.Incumbents = s.incumbents
		}
		exact = !s.inexact
		if s.found {
			for i, m := range mods {
				best[m.name] = m.embs[a.bestCur[i]]
			}
			bestCost = s.bound
		}
	}

	if bestCost < 0 || !exact {
		a.size(sp.nregs, len(mods))
		ev := newDutyEval(&sp, a)
		genome := make([]int32, len(mods))
		gc := greedyAssignment(&sp, &ev, genome)
		if bestCost < 0 || gc < bestCost {
			best = sp.embeddingsOf(genome)
			bestCost = gc
		}
	}

	plan := &Plan{
		Embeddings: best,
		Styles:     stylesOf(best),
		ExtraArea:  bestCost,
		Exact:      exact,
	}
	plan.Sessions = ScheduleSessions(plan)
	return plan, plan.Validate(dp)
}

// referenceSearch is referenceOptimize's walk state.
type referenceSearch struct {
	dutyEval
	ctx      context.Context
	opts     Options
	sp       searchSpace
	bound    int
	found    bool
	sessions int

	nodes, prunes, incumbents int64
	inexact                   bool
	cancelled                 bool
}

func (s *referenceSearch) expand(i int) {
	for j, e := range s.sp.refs[i] {
		s.a.cur[i] = int32(j)
		s.apply(e)
		s.dfs(i + 1)
		s.undo(e)
	}
}

func (s *referenceSearch) dfs(i int) {
	s.nodes++
	if s.opts.NodeBudget > 0 && s.nodes > int64(s.opts.NodeBudget) {
		s.inexact = true
		return
	}
	if s.nodes&1023 == 0 {
		select {
		case <-s.ctx.Done():
			s.cancelled = true
		default:
		}
		if s.opts.Progress != nil {
			s.opts.Progress(s.nodes)
		}
	}
	if s.cancelled {
		return
	}
	cost := s.cost
	if cost > s.bound || (cost == s.bound && s.found && !s.opts.MinimizeSessions && i < len(s.sp.refs)) {
		s.prunes++
		return
	}
	if i == len(s.sp.refs) {
		s.leaf(cost)
		return
	}
	s.expand(i)
}

func (s *referenceSearch) leaf(cost int) {
	sessions := 0
	if s.opts.MinimizeSessions {
		sessions, _ = s.a.schedule(&s.sp, s.a.cur, nil)
	}
	if s.found && cost == s.bound && (!s.opts.MinimizeSessions || sessions >= s.sessions) {
		return
	}
	copy(s.a.bestCur, s.a.cur)
	s.bound, s.found, s.sessions = cost, true, sessions
	s.incumbents++
}

// firstPoll is the node count at which the exact search first polls
// and switches its lower bound and greedy seed on; a search that ends
// below it walks exactly as referenceOptimize does.
const firstPoll = 1024

// checkExactMatchesReference runs referenceOptimize under refOpts once
// and OptimizeCtx under opts on each of scratches. Both must fail alike
// or succeed. Where the reference completes, the plans must be deeply
// equal (embeddings, styles, sessions, ExtraArea, Exact); where it runs
// out of budget, OptimizeCtx may do better but never worse. Where the
// reference ends below the first poll, the Metrics must match too. It
// returns the reference's plan and Metrics.
func checkExactMatchesReference(t *testing.T, name string, dp *datapath.Datapath, opts, refOpts Options, scratches ...*Scratch) (*Plan, Metrics) {
	t.Helper()
	var want Metrics
	refOpts.Metrics, refOpts.Scratch = &want, nil
	ref, rerr := referenceOptimize(context.Background(), dp, refOpts)
	for _, sc := range scratches {
		var got Metrics
		opts.Metrics, opts.Scratch = &got, sc
		plan, err := OptimizeCtx(context.Background(), dp, opts)
		if fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Fatalf("%s: error %v, reference %v", name, err, rerr)
		}
		if rerr != nil {
			return nil, want
		}
		switch {
		case ref.Exact || want.Nodes < firstPoll:
			if !reflect.DeepEqual(plan, ref) {
				t.Fatalf("%s: plan\n%s\nreference (%d nodes)\n%s", name, planKey(plan), want.Nodes, planKey(ref))
			}
		case plan.ExtraArea > ref.ExtraArea:
			t.Fatalf("%s: cost %d (exact=%v), reference %d after %d nodes", name, plan.ExtraArea, plan.Exact, ref.ExtraArea, want.Nodes)
		}
		if want.Nodes < firstPoll && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: metrics %+v, reference %+v", name, got, want)
		}
	}
	return ref, want
}

// checkExactCase runs checkExactMatchesReference on a fresh Scratch and
// on shared, then, where the reference completed or ended below the
// first poll, again on shared with the reference's plan as a warm-start
// Incumbent on both sides.
func checkExactCase(t *testing.T, name string, dp *datapath.Datapath, opts Options, shared *Scratch) {
	t.Helper()
	ref, m := checkExactMatchesReference(t, name, dp, opts, opts, NewScratch(), shared)
	if ref != nil && (ref.Exact || m.Nodes < firstPoll) {
		opts.Incumbent = ref
		checkExactMatchesReference(t, name+" incumbent", dp, opts, opts, shared)
	}
}

// TestExactMatchesReference holds the exact search to the reference
// walk. The matrix: the five paper designs (both binding modes), the
// RandomDesign sweep shapes and the dfgen s and m presets, each with pad
// heads on and off, MinimizeSessions on and off, and node budgets from
// one node to the default. It leaves out only the m presets with
// MinimizeSessions at the default budget, where the reference spends its
// whole two million nodes on equal-cost leaves; FuzzExactMatchesReference
// covers that shape at smaller budgets. Then the dfgen l and xl presets
// at the default budget, pad heads on and off, against the reference at
// a 10M-node budget: it proves every one but xl-3 (which it cannot prove
// in 10M nodes either) in at most 3.6M nodes, and the search must
// return the same proved plan inside its default budget. The m presets
// need no such run: the reference proves each of them inside the
// default budget, with pad heads on and off, in the matrix.
func TestExactMatchesReference(t *testing.T) {
	shared := NewScratch()
	designs := paperAndSweepDesigns(t, 300)
	for _, preset := range []string{"s", "m"} {
		for seed := int64(1); seed <= 6; seed++ {
			cfg, _ := benchdata.Preset(preset, seed)
			designs = append(designs, namedDP{fmt.Sprintf("%s-%d", preset, seed), buildRandomDP(t, cfg)})
		}
	}
	for _, d := range designs {
		for _, pads := range []bool{true, false} {
			for _, minSess := range []bool{false, true} {
				for _, budget := range []int{0, 1, 7, 100, 5000} {
					if minSess && budget == 0 && strings.HasPrefix(d.name, "m-") {
						continue
					}
					opts := DefaultOptions(8)
					opts.AllowPadHeads, opts.MinimizeSessions, opts.NodeBudget = pads, minSess, budget
					checkExactCase(t, fmt.Sprintf("%s pads=%v minSess=%v budget=%d", d.name, pads, minSess, budget), d.dp, opts, shared)
				}
			}
		}
	}

	for _, preset := range []string{"l", "xl"} {
		for seed := int64(1); seed <= 6; seed++ {
			cfg, _ := benchdata.Preset(preset, seed)
			dp := buildRandomDP(t, cfg)
			for _, pads := range []bool{true, false} {
				name := fmt.Sprintf("%s-%d pads=%v", preset, seed, pads)
				opts := DefaultOptions(8)
				opts.AllowPadHeads = pads
				refOpts := opts
				if preset != "xl" || seed != 3 {
					refOpts.NodeBudget = 10_000_000
				}
				ref, m := checkExactMatchesReference(t, name, dp, opts, refOpts, shared)
				if refOpts.NodeBudget != 0 && !ref.Exact {
					t.Fatalf("%s: the reference did not complete in %d nodes", name, m.Nodes)
				}
			}
		}
	}
}

// FuzzExactMatchesReference is the differential fuzz target behind
// TestExactMatchesReference: a random design from the fuzzed seed, under
// a fuzzed pad-head flag, MinimizeSessions flag and node budget, must
// come out of OptimizeCtx exactly as out of referenceOptimize wherever
// the reference completes, and never costlier where it does not; with
// the incumbent flag, again with the reference's plan as a warm-start
// Incumbent. One Scratch serves every input, so residue from an earlier
// design would show. flags bit 0 disallows pad heads, bit 1 sets
// MinimizeSessions, bit 2 adds the warm-start run, and bit 3 picks the
// dfgen m shape, whose searches outlive the first poll, instead of the
// DefaultRandomConfig one. The committed corpus is in
// testdata/fuzz/FuzzExactMatchesReference.
func FuzzExactMatchesReference(f *testing.F) {
	sc := NewScratch()
	f.Fuzz(func(t *testing.T, seed int64, flags byte, budget uint16) {
		cfg := benchdata.DefaultRandomConfig(seed)
		if flags&8 != 0 {
			cfg, _ = benchdata.Preset("m", seed)
		}
		dp := buildRandomDP(t, cfg)
		opts := DefaultOptions(8)
		opts.AllowPadHeads = flags&1 == 0
		opts.MinimizeSessions = flags&2 != 0
		opts.NodeBudget = int(budget)
		name := fmt.Sprintf("seed=%d flags=%#x budget=%d", seed, flags, budget)
		if flags&4 != 0 {
			checkExactCase(t, name, dp, opts, sc)
		} else {
			checkExactMatchesReference(t, name, dp, opts, opts, sc)
		}
	})
}

// namedDP is one data path of a differential corpus.
type namedDP struct {
	name string
	dp   *datapath.Datapath
}

// paperAndSweepDesigns returns the five paper designs under both binding
// modes, then the RandomDesign sweep shapes of seeds 1 to sweeps.
func paperAndSweepDesigns(t testing.TB, sweeps int64) []namedDP {
	t.Helper()
	var out []namedDP
	for _, b := range benchdata.All() {
		for _, trad := range []bool{false, true} {
			dp, _, _ := buildBench(t, b, trad)
			out = append(out, namedDP{fmt.Sprintf("%s trad=%v", b.Name, trad), dp})
		}
	}
	for seed := int64(1); seed <= sweeps; seed++ {
		out = append(out, namedDP{fmt.Sprintf("sweep-%d", seed), buildRandomDP(t, benchdata.SweepConfig(seed))})
	}
	return out
}

// TestLowerBoundAdmissible checks search.lowerBound against brute force.
// On the paper designs (both binding modes) and the first 100 sweep
// shapes, with pad heads on and off, three random prefixes are committed
// at every depth whose completions number at most 16,384, and the
// committed cost plus the bound must not exceed the cheapest completion. It also checks the
// tables the bound reads: each position's tails are exactly the distinct
// tails of its embeddings, and each depth's packing holds positions of
// that suffix, in order, with pairwise disjoint tails. Both prunes
// assume style cost is monotone in duties, which area.Default must keep
// at every width.
func TestLowerBoundAdmissible(t *testing.T) {
	for w := 1; w <= 64; w++ {
		m := area.Default(w)
		tpg, sa, bilbo, cb := m.StyleExtra(area.TPG), m.StyleExtra(area.SA), m.StyleExtra(area.BILBO), m.StyleExtra(area.CBILBO)
		if tpg < 0 || sa < 0 || tpg > bilbo || sa > bilbo || bilbo > cb {
			t.Fatalf("width %d: style costs TPG %d, SA %d, BILBO %d, CBILBO %d are not monotone in duties", w, tpg, sa, bilbo, cb)
		}
	}

	const maxCompletions = 1 << 14
	rng := rand.New(rand.NewSource(1))
	sc := NewScratch()
	positive, checked := 0, 0
	for _, d := range paperAndSweepDesigns(t, 100) {
		for _, pads := range []bool{true, false} {
			name := fmt.Sprintf("%s pads=%v", d.name, pads)
			opts := DefaultOptions(8)
			opts.AllowPadHeads = pads
			sp, err := prepareSpace(d.dp, opts, sc)
			if err != nil {
				continue
			}
			n := len(sp.mods)
			a := &sc.arena
			a.size(sp.nregs, n)
			a.prepareBound(&sp)
			checkBoundTables(t, name, &sp, a)
			s := &search{dutyEval: newDutyEval(&sp, a), sp: sp}
			completions := 1
			for i := n; i >= 0 && completions <= maxCompletions; i-- {
				for range 3 {
					for k := range i {
						a.cur[k] = int32(rng.Intn(len(sp.refs[k])))
						s.apply(sp.refs[k][a.cur[k]])
					}
					lb := 0
					if i < n {
						lb = s.lowerBound(i)
					}
					least := cheapestCompletion(&s.dutyEval, sp.refs, i)
					if s.cost+lb > least {
						t.Fatalf("%s depth %d prefix %v: committed %d + bound %d exceeds the cheapest completion %d",
							name, i, a.cur[:i], s.cost, lb, least)
					}
					if lb > 0 {
						positive++
					}
					checked++
					for k := range i {
						s.undo(sp.refs[k][a.cur[k]])
					}
				}
				if i > 0 {
					completions *= len(sp.refs[i-1])
				}
			}
		}
	}
	t.Logf("%d prefixes checked, the bound positive at %d", checked, positive)
	if positive == 0 {
		t.Fatalf("the bound was 0 at all %d checked prefixes; the test would not catch an inadmissible one", checked)
	}
}

// cheapestCompletion enumerates every assignment of positions i..n-1 on
// top of the evaluator's committed duties and returns the least total
// cost.
func cheapestCompletion(ev *dutyEval, refs [][]embRef, i int) int {
	if i == len(refs) {
		return ev.cost
	}
	least := math.MaxInt
	for _, e := range refs[i] {
		ev.apply(e)
		least = min(least, cheapestCompletion(ev, refs, i+1))
		ev.undo(e)
	}
	return least
}

// checkBoundTables checks prepareBound's tables for sp against their
// definitions.
func checkBoundTables(t *testing.T, name string, sp *searchSpace, a *searchArena) {
	t.Helper()
	n := len(sp.refs)
	for i, rr := range sp.refs {
		want := map[int32]bool{}
		for _, e := range rr {
			want[e.t] = true
		}
		got := a.tails[a.tailOff[i]:a.tailOff[i+1]]
		seen := map[int32]bool{}
		for _, r := range got {
			if !want[r] || seen[r] {
				t.Fatalf("%s: position %d tails %v, embeddings' distinct tails %v", name, i, got, want)
			}
			seen[r] = true
		}
		if len(seen) != len(want) {
			t.Fatalf("%s: position %d tails %v, embeddings' distinct tails %v", name, i, got, want)
		}
	}
	for d := 0; d < n; d++ {
		claimed := map[int32]bool{}
		prev := int32(d - 1)
		for _, m := range a.pack[a.packOff[d]:a.packOff[d+1]] {
			if m <= prev || int(m) >= n {
				t.Fatalf("%s: depth %d packs position %d after %d", name, d, m, prev)
			}
			prev = m
			for _, r := range a.tails[a.tailOff[m]:a.tailOff[m+1]] {
				if claimed[r] {
					t.Fatalf("%s: depth %d packing shares tail register %d", name, d, r)
				}
				claimed[r] = true
			}
		}
		if a.packOff[d+1] == a.packOff[d] {
			t.Fatalf("%s: depth %d packs nothing", name, d)
		}
	}
}
