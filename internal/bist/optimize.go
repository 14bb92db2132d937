package bist

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
	NodeBudget    int  // branch&bound node cap before greedy fallback (0 = default)
	// MinimizeSessions breaks area ties in favor of plans that schedule
	// into fewer test sessions (shorter total test time). Area remains
	// the primary objective — the paper's; this is the natural secondary
	// one ("it is not necessary to test all the combinational modules at
	// the same time", Section II).
	MinimizeSessions bool
	// Workers sets the number of goroutines exploring the branch and
	// bound concurrently (first-level embedding choices are partitioned
	// across them). 0 or 1 runs the search on the calling goroutine.
	// Any worker count returns the identical Plan: ties are broken by the
	// canonical depth-first search order, not by arrival order.
	Workers int
	// Metrics, when non-nil, is filled with search-effort statistics on
	// return (the Plan itself stays deterministic either way).
	Metrics *Metrics
	// Progress, when non-nil, is called from inside the search with the
	// cumulative node count, once per node-budget poll interval. It may
	// be invoked concurrently from several worker goroutines and must
	// not block.
	Progress func(nodes int64)
	// Scratch, when non-nil, supplies the reusable search arenas and
	// enumeration buffers; successive Optimize calls sharing one Scratch
	// run essentially allocation-free. One Optimize call at a time per
	// Scratch.
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
	// plan — seeds the shared bound before the first node, so subtrees
	// that cannot beat it are pruned immediately. The returned Plan is
	// identical to a cold search's: the bound is seeded with a sentinel
	// branch index that keeps every equal-cost canonical tie-break
	// reachable, so only the effort metrics (Nodes, BoundPrunes) shrink.
	// An incumbent that fails Plan.Validate against the data path, or
	// that uses a pad head while AllowPadHeads is false, is silently
	// ignored. The stochastic search ignores this field entirely.
	Incumbent *Plan

	// The remaining fields configure OptimizeStochastic only; the exact
	// branch and bound ignores them.

	// Seed seeds the stochastic search's deterministic random source.
	// Identical (data path, Options, Seed) yields an identical Plan at
	// any Workers value (0 = seed 1).
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
// deterministic for a sequential search (Workers <= 1); under parallel
// search Nodes, BoundPrunes and Incumbents depend on how quickly the
// shared bound propagated, while Embeddings and Workers stay fixed.
type Metrics struct {
	Nodes       int64 // branch-and-bound nodes expanded
	BoundPrunes int64 // subtrees cut by the incumbent bound
	Incumbents  int64 // incumbent improvements taken
	Embeddings  int64 // candidate embeddings enumerated across modules
	Workers     int   // effective worker count after clamping

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
// and bound for realistic sizes; beyond the node budget it falls back to
// a greedy pass with local improvement (Exact reports which).
func Optimize(dp *datapath.Datapath, opts Options) (*Plan, error) {
	return OptimizeCtx(context.Background(), dp, opts)
}

// modEmb pairs a module with its candidate embeddings in search order.
type modEmb struct {
	name string
	embs []Embedding
}

// noBound marks an empty incumbent in the packed atomic bound.
const noBound = int64(math.MaxInt64)

// packBound encodes (cost, branch) so that the natural int64 order is the
// lexicographic (cost, branch) order: smaller packed value = lower cost,
// then earlier first-level branch. Costs and branch counts are far below
// 2^31 for any realistic data path.
func packBound(cost, branch int) int64 { return int64(cost)<<32 | int64(branch) }

func unpackBound(p int64) (cost, branch int) { return int(p >> 32), int(p & 0xffffffff) }

// searchSpace is the prepared per-call search state shared by the exact
// branch and bound and the stochastic search: modules and embeddings in
// canonical search order (canonicalOrder), registers
// interned to small ids and the compact refs built, with the style
// upgrade costs pre-resolved from the area model so duty counters
// translate to cost without a Model call per touch. Everything here is a
// pure function of the data path and options, never of construction
// order — both searches' determinism contracts depend on that.
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

// search holds the state shared by all branch-and-bound workers. The only
// mutable shared fields are atomics; every worker keeps its own arena with
// duty counters, partial assignment and incumbent so no search state needs
// locking.
type search struct {
	ctx       context.Context
	opts      Options
	mods      []modEmb
	refs      [][]embRef   // compact embeddings, parallel to mods
	bound     atomic.Int64 // packed (cost, branch) of the best complete solution
	nodes     atomic.Int64 // nodes expanded, across all workers
	inexact   atomic.Bool  // node budget exhausted somewhere
	cancelled atomic.Bool  // ctx.Done observed somewhere
}

// solution is a worker-local incumbent. branch is the index of the
// first-level embedding choice it descends from; merging by ascending
// branch (after cost and, optionally, session count) reproduces the
// sequential depth-first tie-break exactly. The assignment itself lives
// in the owning worker's arena (bestCur).
type solution struct {
	ok       bool
	cost     int
	sessions int
	branch   int
}

// dutyEval tracks the upgrade cost of a partial embedding assignment
// incrementally over an arena's interned duty counters: applying or
// undoing one embedding touches three int32 counters and folds the cost
// delta into cost. It is the one cost evaluator both searches share —
// the branch-and-bound workers embed it, and the stochastic search's
// genome evaluations, greedy seeding and annealing moves all run
// through the same apply/undo pair, so a cost bug cannot hide in a
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

// worker explores whole first-level subtrees. Each subtree is owned by
// exactly one worker, so its incumbent update below is single-threaded.
type worker struct {
	dutyEval
	sh     *search
	branch int
	best   solution
	// Effort counters stay worker-local (plain increments on the search
	// hot path, no shared-cache traffic) and are summed after the join.
	prunes     int64
	incumbents int64
}

// curEmbeddings materializes the worker's current assignment as the
// embedding map the session scheduler consumes (MinimizeSessions leaves
// only).
func (w *worker) curEmbeddings() map[string]Embedding {
	out := make(map[string]Embedding, len(w.sh.mods))
	for i, m := range w.sh.mods {
		out[m.name] = m.embs[w.a.cur[i]]
	}
	return out
}

func (w *worker) dfs(i int) {
	sh := w.sh
	n := sh.nodes.Add(1)
	if sh.opts.NodeBudget > 0 && n > int64(sh.opts.NodeBudget) {
		sh.inexact.Store(true)
		return
	}
	if n&1023 == 0 {
		select {
		case <-sh.ctx.Done():
			sh.cancelled.Store(true)
		default:
		}
		if sh.opts.Progress != nil {
			sh.opts.Progress(n)
		}
	}
	if sh.cancelled.Load() || sh.inexact.Load() {
		return
	}
	cost := w.cost
	if packed := sh.bound.Load(); packed != noBound {
		bc, bb := unpackBound(packed)
		if cost > bc {
			w.prunes++
			return // adding modules never lowers cost
		}
		// An equal-cost completion can only win the deterministic
		// tie-break from a strictly earlier first-level branch (unless
		// the session tie-break still needs the leaves enumerated).
		if cost == bc && !sh.opts.MinimizeSessions && w.branch >= bb && i < len(sh.mods) {
			w.prunes++
			return
		}
	}
	if i == len(sh.mods) {
		w.leaf(cost)
		return
	}
	for j, e := range sh.refs[i] {
		w.a.cur[i] = int32(j)
		w.apply(e)
		w.dfs(i + 1)
		w.undo(e)
	}
}

// leaf considers a complete assignment. Within one worker the update is
// strict-improvement only, so the first solution in depth-first order
// wins ties — the same rule the sequential search applies globally.
func (w *worker) leaf(cost int) {
	if w.sh.opts.MinimizeSessions {
		if w.best.ok && cost > w.best.cost {
			return
		}
		s := sessionsOfEmbeddings(w.curEmbeddings())
		if w.best.ok && cost == w.best.cost && s >= w.best.sessions {
			return
		}
		w.take(cost, s)
		return
	}
	if w.best.ok && cost >= w.best.cost {
		return
	}
	w.take(cost, 0)
}

func (w *worker) take(cost, sessions int) {
	copy(w.a.bestCur, w.a.cur)
	w.best = solution{ok: true, cost: cost, sessions: sessions, branch: w.branch}
	w.incumbents++
	packed := packBound(cost, w.branch)
	for {
		old := w.sh.bound.Load()
		if old <= packed || w.sh.bound.CompareAndSwap(old, packed) {
			return
		}
	}
}

// runBranches claims first-level branches off the shared counter and runs
// the canonical depth-first search under each.
func (w *worker) runBranches(next *atomic.Int64) {
	first := w.sh.refs[0]
	for {
		b := int(next.Add(1) - 1)
		if b >= len(first) || w.sh.cancelled.Load() {
			return
		}
		e := first[b]
		w.branch = b
		w.a.cur[0] = int32(b)
		w.apply(e)
		w.dfs(1)
		w.undo(e)
	}
}

// sessionsOfEmbeddings counts the test sessions a set of embeddings packs
// into (used by the MinimizeSessions tie-break).
func sessionsOfEmbeddings(embs map[string]Embedding) int {
	p := &Plan{Embeddings: embs, Styles: stylesOf(embs)}
	return len(ScheduleSessions(p))
}

// better reports whether a beats b under the deterministic total order:
// lower cost, then (when asked) fewer sessions, then the earlier
// first-level branch of the canonical search order.
func (a solution) better(b solution, minimizeSessions bool) bool {
	switch {
	case !a.ok:
		return false
	case !b.ok:
		return true
	case a.cost != b.cost:
		return a.cost < b.cost
	case minimizeSessions && a.sessions != b.sessions:
		return a.sessions < b.sessions
	}
	return a.branch < b.branch
}

// OptimizeCtx is Optimize with cancellation: the search aborts promptly
// with ctx.Err() when the context is cancelled or times out. The result
// is identical for every Options.Workers value — the incumbent merge uses
// the canonical depth-first order of the search tree, never the
// wall-clock order in which workers find solutions.
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
	mods := sp.mods

	best := make(map[string]Embedding, len(mods))
	bestCost := -1
	exact := true

	if opts.Metrics != nil {
		*opts.Metrics = Metrics{Embeddings: sp.embTotal, Workers: 1}
	}
	if len(mods) == 0 {
		bestCost = 0
	} else {
		sh := &search{ctx: ctx, opts: opts, mods: mods, refs: sp.refs}
		sh.bound.Store(noBound)
		if cost, ok := incumbentBound(dp, opts); ok {
			// The sentinel branch index keeps the equal-cost canonical
			// tie-break prunes exactly as permissive as a cold search's,
			// so the warm start cannot change the winning plan.
			sh.bound.Store(packBound(cost, math.MaxInt32))
		}

		nw := opts.Workers
		if nw < 1 {
			nw = 1
		}
		if nw > len(mods[0].embs) {
			nw = len(mods[0].embs)
		}
		newWorker := func() *worker {
			a := sc.getArena()
			a.size(sp.nregs, len(mods))
			return &worker{sh: sh, dutyEval: newDutyEval(&sp, a)}
		}
		var next atomic.Int64
		locals := make([]*worker, nw)
		if nw == 1 {
			locals[0] = newWorker()
			locals[0].runBranches(&next)
		} else {
			var wg sync.WaitGroup
			for i := range locals {
				w := newWorker()
				locals[i] = w
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.runBranches(&next)
				}()
			}
			wg.Wait()
		}
		returnArenas := func() {
			for _, w := range locals {
				sc.putArena(w.a)
			}
		}
		if sh.cancelled.Load() {
			returnArenas()
			return nil, ctx.Err()
		}
		if opts.Metrics != nil {
			opts.Metrics.Nodes = sh.nodes.Load()
			for _, w := range locals {
				opts.Metrics.BoundPrunes += w.prunes
				opts.Metrics.Incumbents += w.incumbents
			}
			opts.Metrics.Workers = nw
		}
		exact = !sh.inexact.Load()

		var final solution
		var finalCur []int32
		for _, w := range locals {
			if w.best.better(final, opts.MinimizeSessions) {
				final = w.best
				finalCur = w.a.bestCur
			}
		}
		if final.ok {
			for i, m := range mods {
				best[m.name] = m.embs[finalCur[i]]
			}
			bestCost = final.cost
		}
		returnArenas()
	}

	if bestCost < 0 || !exact {
		// Greedy fallback (also used when the budget ran out before any
		// complete solution, which cannot happen with the default budget
		// but is handled for safety).
		a := sc.getArena()
		a.size(sp.nregs, len(mods))
		ev := newDutyEval(&sp, a)
		genome := make([]int32, len(mods))
		gc := greedyAssignment(&sp, &ev, genome)
		sc.putArena(a)
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
