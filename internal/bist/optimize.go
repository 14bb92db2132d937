package bist

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"bistpath/internal/area"
	"bistpath/internal/datapath"
	"bistpath/internal/interconnect"
)

// ErrNoEmbedding is returned (wrapped with the module name) when some
// module has no BIST embedding at all — no register I-path reaches its
// ports. Match with errors.Is.
var ErrNoEmbedding = errors.New("no BIST embedding")

// Plan is a complete BIST solution for a data path.
type Plan struct {
	Embeddings map[string]Embedding  // chosen embedding per module
	Styles     map[string]area.Style // style per register (Normal omitted)
	Sessions   [][]string            // modules tested concurrently, per session
	ExtraArea  int                   // gate equivalents added by register upgrades
	Exact      bool                  // true if found by exhaustive branch & bound
	// Cost is the plan's multi-objective cost vector. It is populated by
	// OptimizePareto (and recomputable via PlanCost); the pure-area
	// search leaves it zero, keeping that path untouched.
	Cost CostVector
}

// StyleCount returns how many registers carry each non-normal style.
func (p *Plan) StyleCount() map[area.Style]int {
	out := make(map[area.Style]int)
	for _, s := range p.Styles {
		if s != area.Normal {
			out[s]++
		}
	}
	return out
}

// NumBISTRegisters returns the number of registers modified for test.
func (p *Plan) NumBISTRegisters() int {
	n := 0
	for _, s := range p.Styles {
		if s != area.Normal {
			n++
		}
	}
	return n
}

// Options configures the optimizer.
type Options struct {
	Model         area.Model
	AllowPadHeads bool // pads may source test patterns (Definition 1)
	NodeBudget    int  // branch&bound node cap (0 = default); past it the best plan found returns inexact
	// MinimizeSessions breaks area ties in favor of plans that schedule
	// into fewer test sessions (shorter total test time). Area remains
	// the primary objective — the paper's; this is the natural secondary
	// one ("it is not necessary to test all the combinational modules at
	// the same time", Section II).
	MinimizeSessions bool
	// Workers is read by nothing: every search runs on the calling
	// goroutine.
	//
	// Deprecated: it no longer has any effect.
	Workers int
	// Metrics, when non-nil, is filled with search-effort statistics on
	// return.
	Metrics *Metrics
	// Progress, when non-nil, is called from inside the search, on the
	// calling goroutine, with the cumulative node count once per
	// node-budget poll interval. It must not block.
	Progress func(nodes int64)
	// Scratch, when non-nil, supplies the reusable search arenas and
	// enumeration buffers; successive Optimize (or OptimizePareto)
	// calls sharing one Scratch run essentially allocation-free. One
	// Optimize call at a time per Scratch.
	Scratch *Scratch
	// Power carries per-module active-power weight overrides for the
	// multi-objective search (see PowerWeights); modules absent from the
	// map use the area-proportional default. The pure-area search
	// ignores it.
	Power map[string]int
	// Incumbent, when non-nil, warm-starts the exact branch and bound
	// with a known-feasible plan (incremental re-synthesis hands over
	// the surviving plan of the previous run). Its cost — recomputed
	// against Model from the embeddings, never trusted from the stale
	// plan — seeds the bound before the first node, so subtrees that
	// cannot beat it are pruned immediately. The returned Plan is
	// identical to a cold search's: equal-cost subtrees are cut only
	// once the search has found a solution of its own, so every
	// equal-cost canonical tie-break stays reachable and only the effort
	// metrics (Nodes, BoundPrunes) shrink.
	// An incumbent that fails Plan.Validate against the data path, or
	// that uses a pad head while AllowPadHeads is false, is silently
	// ignored. The stochastic search ignores this field entirely.
	Incumbent *Plan

	// The remaining fields configure OptimizeStochastic only; the exact
	// branch and bound ignores them.

	// Seed seeds the stochastic search's deterministic random source.
	// Identical (data path, Options, Seed) yields an identical Plan
	// (0 = seed 1).
	Seed int64
	// TimeBudget caps the stochastic search's wall time (0 = none).
	// Each generation remains a pure function of the seed, but where a
	// wall-clock budget cuts the run off is timing-dependent, so only
	// generation-bounded runs (TimeBudget 0 or unreached) are
	// reproducible across machines.
	TimeBudget time.Duration
	// MaxGenerations caps the genetic search's generations (0 = default
	// 250).
	MaxGenerations int
	// StallGenerations stops the genetic search early after this many
	// generations without an incumbent improvement (0 = default 40;
	// negative disables the early stop).
	StallGenerations int
	// Population is the genetic search's population size (0 = default,
	// scaled with the module count).
	Population int
	// ExactProbeNodes bounds the node-budgeted exact probe that seeds
	// the stochastic search: a sequential branch and bound runs first
	// under this node budget, and if it completes, its provably optimal
	// plan is returned directly. 0 = default 150000; negative disables
	// the probe (pure GA+SA, used by tests that exercise the stochastic
	// operators themselves).
	ExactProbeNodes int
}

// Metrics reports how hard one OptimizeCtx search worked. Every field is
// a pure function of the data path and Options.
type Metrics struct {
	Nodes       int64 // branch-and-bound nodes expanded
	BoundPrunes int64 // subtrees cut by the incumbent bound (and lower bound)
	Incumbents  int64 // incumbent improvements taken
	Embeddings  int64 // candidate embeddings enumerated across modules

	// Stochastic-search effort (OptimizeStochastic only; all zero for
	// the exact branch and bound). Every field is deterministic for a
	// generation-bounded run.
	Generations int64        // genetic-search generations executed
	Evaluations int64        // candidate cost evaluations (GA + annealing)
	Curve       []CurvePoint // best-so-far cost after each improvement
}

// CurvePoint is one improvement of the stochastic search's incumbent:
// the best cost known after the given generation. Generation 0 is the
// seeded initial population; annealing improvements report the final
// generation.
type CurvePoint struct {
	Generation int64
	Cost       int
}

// DefaultOptions returns the standard configuration for the given width.
func DefaultOptions(width int) Options {
	return Options{Model: area.Default(width), AllowPadHeads: true}
}

// Optimize chooses one embedding per module minimizing the total register
// upgrade area, then schedules test sessions. The search is exact branch
// and bound; when it outlives its first 1,024 nodes it also prunes on a
// lower bound for the unassigned modules and seeds its bound with a
// greedy pass with local improvement. If the node budget runs out first
// it returns the best plan found, never worse than the greedy one, with
// Exact false.
func Optimize(dp *datapath.Datapath, opts Options) (*Plan, error) {
	return OptimizeCtx(context.Background(), dp, opts)
}

// modEmb pairs a module with its candidate embeddings in search order.
type modEmb struct {
	name string
	embs []Embedding
}

// searchSpace is the prepared per-call search state shared by the exact
// branch and bound, the stochastic search and the Pareto walk: modules
// and embeddings in canonical search order (canonicalOrder), registers
// interned to small ids and the compact refs built, with the style
// upgrade costs pre-resolved from the area model so duty counters
// translate to cost without a Model call per touch. Everything here is a
// pure function of the data path and options, never of construction
// order — every search's determinism contract depends on that.
type searchSpace struct {
	mods     []modEmb
	refs     [][]embRef // compact embeddings, parallel to mods
	nregs    int        // interned register count
	embTotal int64      // candidate embeddings across modules

	exTPG, exSA, exBILBO, exCB int
}

// prepareSpace enumerates, orders and interns the embedding search space
// into sc. One prepared space serves one search at a time (it aliases
// the scratch's storage).
func prepareSpace(dp *datapath.Datapath, opts Options, sc *Scratch) (searchSpace, error) {
	sp := searchSpace{
		exTPG:   opts.Model.StyleExtra(area.TPG),
		exSA:    opts.Model.StyleExtra(area.SA),
		exBILBO: opts.Model.StyleExtra(area.BILBO),
		exCB:    opts.Model.StyleExtra(area.CBILBO),
	}
	// Enumerate embeddings into the scratch's per-position slices.
	for len(sc.embStore) < len(dp.Modules) {
		sc.embStore = append(sc.embStore, nil)
	}
	mods := sc.mods[:0]
	for i, m := range dp.Modules {
		embs := AppendEmbeddings(sc.embStore[i][:0], dp, m.Name, opts.AllowPadHeads)
		sc.embStore[i] = embs
		if len(embs) == 0 {
			return sp, fmt.Errorf("bist: module %s has %w (no register I-paths)", m.Name, ErrNoEmbedding)
		}
		sp.embTotal += int64(len(embs))
		mods = append(mods, modEmb{m.Name, embs})
	}
	sc.mods = mods
	sc.costs, sc.perm = canonicalOrder(opts.Model, mods, sc.costs, sc.perm)

	// Intern the registers and build the compact search refs.
	sc.resetIntern()
	for len(sc.refStore) < len(mods) {
		sc.refStore = append(sc.refStore, nil)
	}
	refs := sc.refStore[:len(mods)]
	for i, m := range mods {
		rr := refs[i][:0]
		for _, e := range m.embs {
			rr = append(rr, embRef{sc.internReg(e.HeadL), sc.internReg(e.HeadR), sc.internReg(e.Tail)})
		}
		refs[i] = rr
	}
	sp.mods = mods
	sp.refs = refs
	sp.nregs = len(sc.regNames)
	return sp, nil
}

// canonicalOrder puts a search space into the order every search
// (exact, stochastic, Pareto) walks. Most-constrained modules come
// first, which makes pruning effective, ties broken by name (module
// names are unique, so the order is total). Each module's embeddings
// then go cheapest standalone upgrade cost first, which makes the first
// complete solution strong, keeping enumeration order within a cost
// (orderByCost). Embeddings enumerate in canonical order, so the search
// order, and with it every deterministic tie-break, is a pure function
// of the data path. The cost and permutation buffers come back grown
// for reuse.
func canonicalOrder(model area.Model, mods []modEmb, costs []int, perm []int32) ([]int, []int32) {
	slices.SortFunc(mods, func(a, b modEmb) int {
		if c := cmp.Compare(len(a.embs), len(b.embs)); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	if len(mods) > 0 {
		// Size both buffers once, for the last module, which has the
		// most embeddings.
		n := len(mods[len(mods)-1].embs)
		costs, perm = grow(costs, n), grow(perm, n)
	}
	for _, m := range mods {
		costs, perm = orderByCost(model, m.embs, costs, perm)
	}
	return costs, perm
}

// orderByCost stably reorders embs by ascending standaloneCost in
// place. A standalone cost is SA or CBILBO plus at most two TPGs, so it
// takes at most six distinct values: one pass per value, in ascending
// order, gathers the indices carrying it into perm, and the permutation
// is then applied cycle by cycle, so the ordering is linear in
// len(embs) and copies no second embedding slice.
func orderByCost(model area.Model, embs []Embedding, costs []int, perm []int32) ([]int, []int32) {
	n := len(embs)
	costs = grow(costs, n)
	sorted := true
	for j, e := range embs {
		costs[j] = standaloneCost(model, e)
		sorted = sorted && (j == 0 || costs[j-1] <= costs[j])
	}
	if sorted {
		return costs, perm
	}
	perm = grow(perm, n)
	for w, level := 0, math.MinInt; w < n; {
		next := math.MaxInt
		for _, c := range costs {
			if c > level && c < next {
				next = c
			}
		}
		for j, c := range costs {
			if c == next {
				perm[w] = int32(j)
				w++
			}
		}
		level = next
	}
	// Position i takes the embedding at perm[i]; follow each cycle once,
	// marking visited positions with -1.
	for i := range perm {
		if perm[i] < 0 {
			continue
		}
		first, j := embs[i], i
		for {
			k := int(perm[j])
			perm[j] = -1
			if k == i {
				embs[j] = first
				break
			}
			embs[j] = embs[k]
			j = k
		}
	}
	return costs, perm
}

// embeddingsOf materializes a genome (one embedding index per module
// position) as the embedding map a Plan carries.
func (sp *searchSpace) embeddingsOf(genome []int32) map[string]Embedding {
	out := make(map[string]Embedding, len(sp.mods))
	for i, m := range sp.mods {
		out[m.name] = m.embs[genome[i]]
	}
	return out
}

// search is the exact branch and bound: a canonical depth-first walk
// over the prepared space with one incumbent, whose assignment lives in
// the arena (bestCur).
type search struct {
	dutyEval
	ctx  context.Context
	opts Options
	sp   searchSpace
	// bound is the cost of the best complete solution known: a
	// warm-start incumbent's or greedy's until the search finds one of
	// its own (math.MaxInt when there is none).
	bound    int
	found    bool // the search has its own incumbent
	sessions int  // the incumbent's session count (MinimizeSessions only)
	// bounded is set at the walk's first poll, which builds the
	// lower-bound tables and seeds the bound with greedy's cost.
	bounded    bool
	greedyCost int // greedy's cost once seed has run, else -1

	nodes, prunes, incumbents int64
	inexact                   bool // node budget exhausted
	cancelled                 bool // ctx.Done observed
}

// dutyEval tracks the upgrade cost of a partial embedding assignment
// incrementally over an arena's interned duty counters: applying or
// undoing one embedding touches three int32 counters and folds the cost
// delta into cost. It is the one cost evaluator every search shares —
// the branch and bound and the Pareto walk embed it, and the stochastic
// search's genome evaluations, greedy seeding and annealing moves all
// run through the same apply/undo pair, so a cost bug cannot hide in a
// search-specific reimplementation.
type dutyEval struct {
	a    *searchArena
	cost int
	// Style upgrade costs, pre-resolved from the area model.
	exTPG, exSA, exBILBO, exCB int
}

func newDutyEval(sp *searchSpace, a *searchArena) dutyEval {
	return dutyEval{a: a, exTPG: sp.exTPG, exSA: sp.exSA, exBILBO: sp.exBILBO, exCB: sp.exCB}
}

// styleExtra returns the upgrade cost of register r under its current
// duty counters (the counter form of roles.style).
func (w *dutyEval) styleExtra(r int32) int {
	a := w.a
	switch {
	case a.cb[r] > 0:
		return w.exCB
	case a.tpg[r] > 0 && a.sa[r] > 0:
		return w.exBILBO
	case a.tpg[r] > 0:
		return w.exTPG
	case a.sa[r] > 0:
		return w.exSA
	}
	return 0
}

// bumpHead adds d to head register h's TPG duty (and CBILBO duty when it
// is also the tail t), folding the register's cost change into w.cost.
func (w *dutyEval) bumpHead(h, t, d int32) {
	before := w.styleExtra(h)
	w.a.tpg[h] += d
	if h == t {
		w.a.cb[h] += d
	}
	w.cost += w.styleExtra(h) - before
}

func (w *dutyEval) apply(e embRef) {
	if e.l >= 0 {
		w.bumpHead(e.l, e.t, 1)
	}
	if e.r >= 0 {
		w.bumpHead(e.r, e.t, 1)
	}
	before := w.styleExtra(e.t)
	w.a.sa[e.t]++
	w.cost += w.styleExtra(e.t) - before
}

func (w *dutyEval) undo(e embRef) {
	if e.l >= 0 {
		w.bumpHead(e.l, e.t, -1)
	}
	if e.r >= 0 {
		w.bumpHead(e.r, e.t, -1)
	}
	before := w.styleExtra(e.t)
	w.a.sa[e.t]--
	w.cost += w.styleExtra(e.t) - before
}

// evalGenome returns the total cost of a complete assignment: it applies
// every chosen embedding, reads the cost and undoes them again, leaving
// the evaluator zeroed for the next call.
func (w *dutyEval) evalGenome(refs [][]embRef, genome []int32) int {
	for i, g := range genome {
		w.apply(refs[i][g])
	}
	c := w.cost
	for i, g := range genome {
		w.undo(refs[i][g])
	}
	return c
}

// greedyAssignment fills genome with the greedy-with-one-improvement-pass
// embedding choice and returns its cost: each module in search order
// takes the embedding minimizing the cost of the partial assignment so
// far, then one sweep retries every module against the complete
// assignment. ev must arrive zeroed; it is left holding the chosen
// assignment's duties (callers recycling the arena should undo or zero
// it). Deterministic: pure function of the prepared space.
func greedyAssignment(sp *searchSpace, ev *dutyEval, genome []int32) int {
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
	// One improvement sweep over the complete assignment.
	for i := range sp.mods {
		cur := genome[i]
		ev.undo(sp.refs[i][cur])
		base := ev.cost
		bi, bc := cur, ev.styleDelta(sp.refs[i][cur])
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

// styleDelta returns the cost delta applying e would add right now.
func (w *dutyEval) styleDelta(e embRef) int {
	before := w.cost
	w.apply(e)
	d := w.cost - before
	w.undo(e)
	return d
}

// expand tries every embedding of module position i in canonical order.
func (s *search) expand(i int) {
	for j, e := range s.sp.refs[i] {
		s.a.cur[i] = int32(j)
		s.apply(e)
		s.dfs(i + 1)
		s.undo(e)
	}
}

func (s *search) dfs(i int) {
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
	// Adding modules never lowers cost, so no completion costs less than
	// the committed cost plus lowerBound, and an equal-cost completion
	// cannot beat the search's own earlier solution in depth-first order
	// (unless the session tie-break still needs the leaves enumerated).
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

// poll runs every 1,024 nodes, at depth i: it observes cancellation and
// reports progress, and the first poll switches the bound on. A search
// that finishes inside its first 1,024 nodes, as nearly every one on a
// paper-sized design does, thus never pays for the tables or the seed.
func (s *search) poll(i int) {
	select {
	case <-s.ctx.Done():
		s.cancelled = true
	default:
	}
	if s.opts.Progress != nil {
		s.opts.Progress(s.nodes)
	}
	if s.bounded || s.cancelled {
		return
	}
	s.bounded = true
	s.a.prepareBound(&s.sp)
	// greedyAssignment wants a zeroed evaluator: lift the committed path
	// off the counters while it runs.
	for k := range i {
		s.undo(s.sp.refs[k][s.a.cur[k]])
	}
	gc := s.seed()
	for k := range i {
		s.apply(s.sp.refs[k][s.a.cur[k]])
	}
	// The warm-start rule: greedy's plan is not the search's own, so the
	// equal-cost cut still waits for one, keeping the plan the first
	// optimum in canonical order.
	if gc < s.bound {
		s.bound, s.found = gc, false
	}
}

// seed runs greedyAssignment once per search on the zeroed evaluator,
// into the arena's greedy genome, undoes it and returns its cost: the
// bound at the first poll and the post-walk fallback share the run.
func (s *search) seed() int {
	if s.greedyCost < 0 {
		s.a.greedy = grow(s.a.greedy, len(s.sp.mods))
		s.greedyCost = greedyAssignment(&s.sp, &s.dutyEval, s.a.greedy)
		for k, g := range s.a.greedy {
			s.undo(s.sp.refs[k][g])
		}
	}
	return s.greedyCost
}

// lowerBound returns a lower bound on what completing the positions
// i..n-1 adds to the committed cost. Every module packed at depth i
// puts SA duty on one of its own tails, and the packed modules' tails
// are distinct registers, so each adds at least its cheapest SA
// marginal under the current duties: 0 on a tail that already has SA
// or CBILBO duty, BILBO minus TPG on one with TPG duty only, and an SA
// otherwise. Admissible because style cost is monotone in duties
// (area.Default keeps 0 <= TPG, SA <= BILBO <= CBILBO), which the
// committed-cost prune already assumes.
func (s *search) lowerBound(i int) int {
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

// leaf considers a complete assignment, which costs at most the bound.
// The update is strict-improvement only, so the first solution in
// depth-first order wins ties (after the session count, under
// MinimizeSessions).
func (s *search) leaf(cost int) {
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

// OptimizeCtx is Optimize with cancellation: the search aborts promptly
// with ctx.Err() when the context is cancelled or times out.
func OptimizeCtx(ctx context.Context, dp *datapath.Datapath, opts Options) (*Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
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
		s := &search{dutyEval: newDutyEval(&sp, a), ctx: ctx, opts: opts, sp: sp, bound: math.MaxInt, greedyCost: -1}
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
		bestCost = s.bound
		// A walk without a plan of its own returns greedy's; one the
		// budget cut short returns greedy's where that is cheaper.
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

// incumbentBound revalidates opts.Incumbent against the data path and
// returns its extra-area cost recomputed from the embeddings under
// opts.Model. ok is false when there is no usable incumbent: the field
// is nil or the plan fails Revalidate.
func incumbentBound(dp *datapath.Datapath, opts Options) (cost int, ok bool) {
	inc := opts.Incumbent
	if inc == nil || inc.Revalidate(dp, opts.AllowPadHeads) != nil {
		return 0, false
	}
	return extraArea(opts.Model, stylesOf(inc.Embeddings)), true
}

// Revalidate is the check every plan carried over from an earlier run
// (a result-cache entry, a session's previous plan, a warm-start
// incumbent) must pass before it is trusted on dp: Validate, plus the
// pad-head rule — a plan that sources test patterns from an input pad
// is unusable unless allowPadHeads.
func (p *Plan) Revalidate(dp *datapath.Datapath, allowPadHeads bool) error {
	if err := p.Validate(dp); err != nil {
		return err
	}
	if !allowPadHeads {
		for name, e := range p.Embeddings {
			if interconnect.IsPad(e.HeadL) || (e.HeadR != "" && interconnect.IsPad(e.HeadR)) {
				return fmt.Errorf("bist: %s sources patterns from an input pad", name)
			}
		}
	}
	return nil
}

// PlanFromEmbeddings reconstructs the complete Plan implied by a chosen
// embedding set: register styles, the upgrade area and the session
// schedule are all derived from the embeddings, exactly as Optimize
// derives them from its winning set. It exists for the result cache,
// which persists only the embeddings; callers must still run
// Plan.Validate against the data path before trusting foreign
// embeddings.
func PlanFromEmbeddings(model area.Model, embs map[string]Embedding, exact bool) *Plan {
	styles := stylesOf(embs)
	p := &Plan{
		Embeddings: embs,
		Styles:     styles,
		ExtraArea:  extraArea(model, styles),
		Exact:      exact,
	}
	p.Sessions = ScheduleSessions(p)
	return p
}

// Validate checks that the plan's embeddings exist in the data path, the
// styles match the embeddings' duties, and the sessions are conflict-free
// and cover every module exactly once.
func (p *Plan) Validate(dp *datapath.Datapath) error {
	for name, e := range p.Embeddings {
		m := dp.Module(name)
		if m == nil {
			return fmt.Errorf("bist: embedding for unknown module %s", name)
		}
		if !containsStr(m.Left, e.HeadL) {
			return fmt.Errorf("bist: %s head %s not on left port", name, e.HeadL)
		}
		if e.HeadR != "" && !containsStr(m.Right, e.HeadR) {
			return fmt.Errorf("bist: %s head %s not on right port", name, e.HeadR)
		}
		if !containsStr(m.Dests, e.Tail) {
			return fmt.Errorf("bist: %s tail %s not a destination", name, e.Tail)
		}
		if e.HeadR != "" && e.HeadL == e.HeadR && !dp.ModuleDiagonal(name) {
			return fmt.Errorf("bist: %s uses one source for both ports", name)
		}
	}
	for _, m := range dp.Modules {
		if _, ok := p.Embeddings[m.Name]; !ok {
			return fmt.Errorf("bist: module %s has no embedding in plan", m.Name)
		}
	}
	if want := stylesOf(p.Embeddings); len(want) != len(p.Styles) {
		return fmt.Errorf("bist: style map inconsistent")
	} else {
		for r, s := range want {
			if p.Styles[r] != s {
				return fmt.Errorf("bist: register %s style %v, duties say %v", r, p.Styles[r], s)
			}
		}
	}
	seen := make(map[string]bool)
	for _, sess := range p.Sessions {
		for _, m := range sess {
			if seen[m] {
				return fmt.Errorf("bist: module %s in two sessions", m)
			}
			seen[m] = true
		}
		if err := p.checkSession(sess); err != nil {
			return err
		}
	}
	for name := range p.Embeddings {
		if !seen[name] {
			return fmt.Errorf("bist: module %s unscheduled", name)
		}
	}
	return nil
}

func containsStr(list []string, x string) bool {
	for _, s := range list {
		if s == x {
			return true
		}
	}
	return false
}
