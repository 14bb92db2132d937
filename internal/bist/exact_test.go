package bist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bistpath/internal/area"
	"bistpath/internal/benchdata"
	"bistpath/internal/datapath"
	"bistpath/internal/interconnect"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// referenceOptimize is the exact search as it stood before it gained a
// lower bound and a greedy seed: the same canonical walk, pruned only
// on the committed cost against a bound that starts infinite, with
// greedy's plan computed only after the walk, when the node budget ran
// out. It is the oracle for OptimizeCtx: where it completes, the plans
// must be identical, and where it finishes inside the first poll
// interval, the Metrics too.
func referenceOptimize(ctx context.Context, dp *datapath.Datapath, opts Options) (*Plan, error) {
	return runReference(ctx, dp, opts, false)
}

// referenceBoundedOptimize is the exact search as it stood before it
// cut children in the parent: the walk with the lower bound and the
// greedy seed switched on at the first poll, which applies every child
// to the duty counters, enters it and undoes it, and ranks greedy's
// candidates by applying and undoing each. OptimizeCtx must return its
// plan and Metrics on every search, budget-exhausted ones included.
func referenceBoundedOptimize(ctx context.Context, dp *datapath.Datapath, opts Options) (*Plan, error) {
	return runReference(ctx, dp, opts, true)
}

func runReference(ctx context.Context, dp *datapath.Datapath, opts Options, withBound bool) (*Plan, error) {
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
	if opts.Metrics != nil {
		*opts.Metrics = Metrics{Embeddings: sp.embTotal}
	}
	a := &sc.arena
	a.size(sp.nregs, len(sp.mods))
	genome, bestCost, exact := a.bestCur, 0, true
	if len(sp.mods) > 0 {
		if opts.MinimizeSessions {
			a.prepareSchedule(&sp)
		}
		s := &referenceSearch{dutyEval: newDutyEval(&sp, a), ctx: ctx, opts: opts, sp: sp, bound: math.MaxInt, withBound: withBound, greedyCost: -1}
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
		bestCost = s.bound
		if !s.found || s.inexact {
			if gc := s.seed(); !s.found || gc < bestCost {
				genome, bestCost = a.greedy, gc
			}
		}
	}
	best := sp.embeddingsOf(genome)
	plan := &Plan{
		Embeddings: best,
		Styles:     stylesOf(best),
		ExtraArea:  bestCost,
		Exact:      exact,
	}
	plan.Sessions = ScheduleSessions(plan)
	return plan, plan.Validate(dp)
}

// referenceSearch is the reference walks' state: every child is applied,
// entered and undone. Without withBound it never bounds.
type referenceSearch struct {
	dutyEval
	ctx      context.Context
	opts     Options
	sp       searchSpace
	bound    int
	found    bool
	sessions int

	withBound, bounded bool
	greedyCost         int

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
		s.poll(i)
	}
	if s.cancelled {
		return
	}
	n := len(s.sp.refs)
	least := s.cost
	if s.bounded && i < n && least <= s.bound {
		least += s.lowerBound(i)
	}
	if least > s.bound || (least == s.bound && s.found && !s.opts.MinimizeSessions && i < n) {
		s.prunes++
		return
	}
	if i == n {
		s.leaf(s.cost)
		return
	}
	s.expand(i)
}

func (s *referenceSearch) poll(i int) {
	select {
	case <-s.ctx.Done():
		s.cancelled = true
	default:
	}
	if s.opts.Progress != nil {
		s.opts.Progress(s.nodes)
	}
	if !s.withBound || s.bounded || s.cancelled {
		return
	}
	s.bounded = true
	s.a.prepareBound(&s.sp)
	for k := range i {
		s.undo(s.sp.refs[k][s.a.cur[k]])
	}
	gc := s.seed()
	for k := range i {
		s.apply(s.sp.refs[k][s.a.cur[k]])
	}
	if gc < s.bound {
		s.bound, s.found = gc, false
	}
}

func (s *referenceSearch) seed() int {
	if s.greedyCost < 0 {
		s.a.greedy = grow(s.a.greedy, len(s.sp.mods))
		s.greedyCost = referenceGreedy(&s.sp, &s.dutyEval, s.a.greedy)
		for k, g := range s.a.greedy {
			s.undo(s.sp.refs[k][g])
		}
	}
	return s.greedyCost
}

func (s *referenceSearch) lowerBound(i int) int {
	a := s.a
	lb := 0
	for _, m := range a.pack[a.packOff[i]:a.packOff[i+1]] {
		least := math.MaxInt
		for _, t := range a.tails[a.tailOff[m]:a.tailOff[m+1]] {
			switch {
			case a.sa[t] > 0 || a.cb[t] > 0:
				least = 0
			case a.tpg[t] > 0:
				least = min(least, s.exBILBO-s.exTPG)
			default:
				least = min(least, s.exSA)
			}
			if least == 0 {
				break
			}
		}
		lb += least
	}
	return lb
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

// referenceGreedy is greedyAssignment as it ranked candidates before
// delta: by applying each one, reading the cost and undoing it.
func referenceGreedy(sp *searchSpace, ev *dutyEval, genome []int32) int {
	for i := range sp.mods {
		bi, bc := 0, -1
		for j, e := range sp.refs[i] {
			ev.apply(e)
			if bc < 0 || ev.cost < bc {
				bi, bc = j, ev.cost
			}
			ev.undo(e)
		}
		genome[i] = int32(bi)
		ev.apply(sp.refs[i][bi])
	}
	for i := range sp.mods {
		cur := genome[i]
		ev.undo(sp.refs[i][cur])
		base := ev.cost
		ev.apply(sp.refs[i][cur])
		bi, bc := cur, ev.cost-base
		ev.undo(sp.refs[i][cur])
		for j, e := range sp.refs[i] {
			if int32(j) == cur {
				continue
			}
			ev.apply(e)
			if ev.cost-base < bc {
				bi, bc = int32(j), ev.cost-base
			}
			ev.undo(e)
		}
		genome[i] = bi
		ev.apply(sp.refs[i][bi])
	}
	return ev.cost
}

// firstPoll is the node count at which the exact search first polls
// and switches its lower bound and greedy seed on; a search that ends
// below it walks exactly as referenceOptimize does.
const firstPoll = 1024

// checkExactMatchesReference runs referenceOptimize under refOpts and
// referenceBoundedOptimize under opts once, and OptimizeCtx under opts
// on each of scratches. All must fail alike or succeed. OptimizeCtx must
// return the bounded reference's plan (embeddings, styles, sessions,
// ExtraArea, Exact) and Metrics on every search. Where the unbounded
// reference completes, the plans must be deeply equal too; where it
// runs out of budget, OptimizeCtx may do better but never worse. Where
// it ends below the first poll, the Metrics must match it as well. It
// returns the unbounded reference's plan and Metrics.
func checkExactMatchesReference(t *testing.T, name string, dp *datapath.Datapath, opts, refOpts Options, scratches ...*Scratch) (*Plan, Metrics) {
	t.Helper()
	var want, wantBounded Metrics
	refOpts.Metrics, refOpts.Scratch = &want, nil
	ref, rerr := referenceOptimize(context.Background(), dp, refOpts)
	boundedOpts := opts
	boundedOpts.Metrics, boundedOpts.Scratch = &wantBounded, nil
	bounded, berr := referenceBoundedOptimize(context.Background(), dp, boundedOpts)
	if fmt.Sprint(berr) != fmt.Sprint(rerr) {
		t.Fatalf("%s: bounded reference error %v, reference %v", name, berr, rerr)
	}
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
		if !reflect.DeepEqual(plan, bounded) {
			t.Fatalf("%s: plan\n%s\nbounded reference (%d nodes)\n%s", name, planKey(plan), wantBounded.Nodes, planKey(bounded))
		}
		if !reflect.DeepEqual(got, wantBounded) {
			t.Fatalf("%s: metrics %+v, bounded reference %+v", name, got, wantBounded)
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

// TestExactMatchesReference holds the exact search to the reference
// walks. The matrix: the five paper designs (both binding modes), the
// RandomDesign sweep shapes and the dfgen s and m presets, each with pad
// heads on and off, MinimizeSessions on and off, and node budgets from
// one node to the default, plus budgets around the first poll (1023,
// 1024, 1025 and 2048) on s and m. It leaves out only the m presets with
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
			budgets := []int{0, 1, 7, 100, 5000}
			if strings.HasPrefix(d.name, "s-") || strings.HasPrefix(d.name, "m-") {
				budgets = append(budgets, 1023, 1024, 1025, 2048)
			}
			for _, minSess := range []bool{false, true} {
				for _, budget := range budgets {
					if minSess && budget == 0 && strings.HasPrefix(d.name, "m-") {
						continue
					}
					opts := DefaultOptions(8)
					opts.AllowPadHeads, opts.MinimizeSessions, opts.NodeBudget = pads, minSess, budget
					name := fmt.Sprintf("%s pads=%v minSess=%v budget=%d", d.name, pads, minSess, budget)
					checkExactMatchesReference(t, name, d.dp, opts, opts, NewScratch(), shared)
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
// the reference completes, never costlier where it does not, and
// exactly as out of referenceBoundedOptimize, Metrics included, on
// every input. One Scratch serves every input, so residue from an
// earlier design would show. flags bit 0 disallows pad heads, bit 1 sets MinimizeSessions,
// bit 2 runs the search on a fresh Scratch too, and bit 3 picks the
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
		scratches := []*Scratch{sc}
		if flags&4 != 0 {
			scratches = []*Scratch{NewScratch(), sc}
		}
		checkExactMatchesReference(t, name, dp, opts, opts, scratches...)
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

// FuzzExactRelabelInvariant checks that the exact search's answer does
// not depend on names or construction order. Candidates are interned by
// port position and the canonical order breaks ties by name, so a
// relabeled data path is walked in another order; where both walks
// complete, they must prove the same ExtraArea over the same number of
// candidate embeddings. The design is a random one from the fuzzed seed
// (the dfgen m shape when flags bit 2 is set), bound once. The relabeled
// copy keeps that binding and its operand orientation, but its
// registers and modules are renamed before datapath.Build, in reverse
// order or, when flags bit 3 is set, in an order drawn from perm, and
// its dp.Modules is permuted by perm. flags bit 0 disallows pad heads
// and bit 1 sets MinimizeSessions. The committed corpus is in
// testdata/fuzz/FuzzExactRelabelInvariant.
func FuzzExactRelabelInvariant(f *testing.F) {
	sc := NewScratch()
	f.Fuzz(func(t *testing.T, seed int64, flags byte, perm int64) {
		cfg := benchdata.DefaultRandomConfig(seed)
		if flags&4 != 0 {
			cfg, _ = benchdata.Preset("m", seed)
		}
		g, mb, err := benchdata.RandomWithModules(cfg)
		if err != nil {
			t.Skip(err)
		}
		rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ib, err := interconnect.Bind(g, mb, rb, regassign.NewSharing(g, mb))
		if err != nil {
			t.Fatal(err)
		}
		dp, err := datapath.Build(g, mb, rb, ib, 8)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(perm))
		order := func(n int) []int {
			if flags&8 != 0 {
				return rng.Perm(n)
			}
			out := make([]int, n)
			for i := range out {
				out[i] = n - 1 - i
			}
			return out
		}
		// regassign.FromSets names the registers R1, R2, ... in the
		// order of the sets it is given.
		sets := rb.Sets()
		relabeled := make([][]string, len(sets))
		for i, k := range order(len(sets)) {
			relabeled[i] = sets[k]
		}
		rb2 := regassign.FromSets(relabeled)
		rename := make(map[string]string, len(mb.Modules))
		for i, k := range order(len(mb.Modules)) {
			rename[mb.Modules[k].Name] = fmt.Sprintf("U%d", i)
		}
		opToModule := make(map[string]string)
		for _, op := range g.Ops() {
			opToModule[op.Name] = rename[mb.ModuleOf(op.Name).Name]
		}
		mb2, err := modassign.FromMap(g, opToModule)
		if err != nil {
			t.Fatal(err)
		}
		dp2, err := datapath.Build(g, mb2, rb2, ib, 8)
		if err != nil {
			t.Fatal(err)
		}
		rng.Shuffle(len(dp2.Modules), func(i, j int) { dp2.Modules[i], dp2.Modules[j] = dp2.Modules[j], dp2.Modules[i] })

		opts := DefaultOptions(8)
		opts.AllowPadHeads = flags&1 == 0
		opts.MinimizeSessions = flags&2 != 0
		var m1, m2 Metrics
		opts.Metrics, opts.Scratch = &m1, sc
		p1, err1 := OptimizeCtx(context.Background(), dp, opts)
		opts.Metrics = &m2
		p2, err2 := OptimizeCtx(context.Background(), dp2, opts)
		if errors.Is(err1, ErrNoEmbedding) != errors.Is(err2, ErrNoEmbedding) || (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed=%d flags=%#x: error %v, relabeled %v", seed, flags, err1, err2)
		}
		if err1 != nil {
			return
		}
		if m1.Embeddings != m2.Embeddings {
			t.Fatalf("seed=%d flags=%#x: %d candidate embeddings, relabeled %d", seed, flags, m1.Embeddings, m2.Embeddings)
		}
		if p1.Exact && p2.Exact && p1.ExtraArea != p2.ExtraArea {
			t.Fatalf("seed=%d flags=%#x perm=%d: proved %d GE, relabeled %d GE", seed, flags, perm, p1.ExtraArea, p2.ExtraArea)
		}
	})
}

// TestDeltaMatchesApply holds delta, which the parent's cut and greedy
// read instead of applying a candidate, to the cost change apply makes.
// Random duty states over six registers are built by applying random
// embeddings, so they keep the counters' invariants, and every
// candidate shape is tried on each: pad heads, unary modules, a head
// that is also the tail, and a diagonal module's one register on both
// ports. The models include one where BILBO-TPG exceeds SA.
func TestDeltaMatchesApply(t *testing.T) {
	models := []area.Model{area.Default(8), area.Default(16)}
	steep := area.Default(8) // BILBO-TPG = 3w > SA = w
	steep.RegBit, steep.TPGBit, steep.SABit, steep.BILBOBit, steep.CBILBOBit = 1, 2, 2, 5, 6
	models = append(models, steep)
	const nregs = 6
	rng := rand.New(rand.NewSource(5))
	head := func() int32 { return int32(rng.Intn(nregs+1)) - 1 } // -1: a pad or no right head
	shapes := 0
	for _, model := range models {
		sp := searchSpace{styleCosts: newStyleCosts(model), nregs: nregs}
		var a searchArena
		a.size(nregs, 1)
		ev := newDutyEval(&sp, &a)
		for trial := 0; trial < 2000; trial++ {
			var applied []embRef
			for range rng.Intn(8) {
				e := embRef{head(), head(), int32(rng.Intn(nregs))}
				ev.apply(e)
				applied = append(applied, e)
			}
			for range 8 {
				e := embRef{head(), head(), int32(rng.Intn(nregs))}
				if e.l >= 0 && e.l == e.r && e.l != e.t {
					shapes++
				}
				before := ev.cost
				got := ev.delta(e)
				ev.apply(e)
				if want := ev.cost - before; got != want {
					t.Fatalf("model %+v, duties tpg %v sa %v cb %v: delta(%v) = %d, apply adds %d", model, a.tpg, a.sa, a.cb, e, got, want)
				}
				ev.undo(e)
			}
			for _, e := range applied {
				ev.undo(e)
			}
		}
	}
	if shapes == 0 {
		t.Fatal("no candidate read one register on both ports")
	}
}

// TestChildBoundMatchesLowerBound holds the parent's cut to dfs's: for
// every child of random prefixes on the paper designs (both binding
// modes), the first 100 sweep shapes and dfgen s and m seeds 1-6, with
// pad heads on and off, childBound must equal lowerBound of the child's
// depth after applying the child under area.Default, where no duty
// raises a marginal, and must never exceed it under a model where a
// head's TPG duty does (BILBO-TPG > SA).
func TestChildBoundMatchesLowerBound(t *testing.T) {
	steep := area.Default(8)
	steep.RegBit, steep.TPGBit, steep.SABit, steep.BILBOBit, steep.CBILBOBit = 1, 2, 2, 5, 6
	designs := paperAndSweepDesigns(t, 100)
	for _, preset := range []string{"s", "m"} {
		for seed := int64(1); seed <= 6; seed++ {
			cfg, _ := benchdata.Preset(preset, seed)
			designs = append(designs, namedDP{fmt.Sprintf("%s-%d", preset, seed), buildRandomDP(t, cfg)})
		}
	}
	rng := rand.New(rand.NewSource(9))
	sc := NewScratch()
	lowered, below := 0, 0
	for _, d := range designs {
		for _, pads := range []bool{true, false} {
			for _, model := range []area.Model{area.Default(8), steep} {
				opts := DefaultOptions(8)
				opts.AllowPadHeads, opts.Model = pads, model
				sp, err := prepareSpace(d.dp, opts, sc)
				if err != nil {
					continue
				}
				n := len(sp.mods)
				a := &sc.arena
				a.size(sp.nregs, n)
				a.prepareBound(&sp)
				s := &search{dutyEval: newDutyEval(&sp, a), sp: sp}
				for i := 0; i+1 < n; i++ {
					for k := range i {
						a.cur[k] = int32(rng.Intn(len(sp.refs[k])))
						s.apply(sp.refs[k][a.cur[k]])
					}
					lb0 := s.cacheLeasts(i + 1)
					own := a.owner[(i+1)*sp.nregs : (i+2)*sp.nregs]
					for _, e := range sp.refs[i] {
						got := s.childBound(e, own, lb0)
						s.apply(e)
						want := s.lowerBound(i + 1)
						s.undo(e)
						if got > want || (model == area.Default(8) && got != want) {
							t.Fatalf("%s pads=%v model %+v depth %d prefix %v child %v: childBound %d, lowerBound after apply %d",
								d.name, pads, model, i, a.cur[:i], e, got, want)
						}
						if got < lb0 {
							lowered++
						}
						if got < want {
							below++
						}
					}
					for k := range i {
						s.undo(sp.refs[k][a.cur[k]])
					}
				}
			}
		}
	}
	t.Logf("%d children lowered the bound; the estimate was below the bound %d times under the steep model", lowered, below)
	if lowered == 0 || below == 0 {
		t.Fatal("no child lowered the bound, or the steep model never raised a marginal; the test would not catch an unsound estimate")
	}
}
