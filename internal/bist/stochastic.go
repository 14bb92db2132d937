package bist

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"bistpath/internal/area"
	"bistpath/internal/datapath"
)

// Stochastic-search defaults (Options fields left zero resolve to these).
const (
	defaultMaxGenerations   = 250
	defaultStallGenerations = 40
	defaultExactProbeNodes  = 150_000
	defaultAnnealIterFactor = 300 // annealing iterations per module
)

// AutoExactBits is the exact-feasibility threshold used by Search=Auto:
// when the embedding search space exceeds 2^AutoExactBits combinations
// (SearchSpaceBits), the branch and bound is unlikely to close the gap
// within its node budget and the stochastic search is selected instead.
// All five DAC'95 paper benchmarks fall well under the threshold.
const AutoExactBits = 32

// SearchSpaceBits returns log2 of the number of complete embedding
// assignments for the data path — the sum of log2(per-module candidate
// counts). It enumerates candidates per module but materializes nothing
// else, so it is cheap relative to either search.
func SearchSpaceBits(dp *datapath.Datapath, allowPadHeads bool) float64 {
	var buf []Embedding
	bits := 0.0
	for _, m := range dp.Modules {
		buf = AppendEmbeddings(buf[:0], dp, m.Name, allowPadHeads)
		if n := len(buf); n > 1 {
			bits += math.Log2(float64(n))
		}
	}
	return bits
}

// ExactFeasible reports whether the exact branch and bound is expected to
// complete within its default node budget: the embedding search space
// stays under 2^AutoExactBits combinations. Search=Auto uses this to pick
// between OptimizeCtx and OptimizeStochasticCtx.
func ExactFeasible(dp *datapath.Datapath, allowPadHeads bool) bool {
	return SearchSpaceBits(dp, allowPadHeads) <= AutoExactBits
}

// OptimizeStochastic is Optimize's stochastic counterpart for data paths
// too large for exhaustive branch and bound: a genetic search over
// register-embedding assignments with a simulated-annealing polish,
// seeded by the greedy heuristic plan and the incumbent of a
// node-budgeted exact probe. See OptimizeStochasticCtx for the
// determinism contract.
func OptimizeStochastic(dp *datapath.Datapath, opts Options) (*Plan, error) {
	return OptimizeStochasticCtx(context.Background(), dp, opts)
}

// OptimizeStochasticCtx runs the stochastic search with cancellation.
//
// Structure: a sequential exact probe first runs the branch and bound
// under Options.ExactProbeNodes; if it completes, its provably optimal
// plan is returned directly (Exact=true). Otherwise a genetic search
// evolves a population of embedding-index genomes — seeded by the probe's
// incumbent, the greedy heuristic assignment and random genomes — via
// tournament selection, uniform crossover and per-gene mutation, then a
// simulated-annealing pass polishes the best genome with single-module
// moves. Every adopted incumbent is revalidated through Plan.Validate and
// cross-checked against the area model before it can become the answer.
//
// Determinism: all randomness flows from one source seeded by
// Options.Seed and the whole search runs on the calling goroutine, so
// identical (data path, Options, Seed) yields an identical Plan and
// identical Metrics. Options.TimeBudget is the one exception: each generation remains a pure
// function of the seed, but where a wall-clock budget cuts the run off is
// timing-dependent, so only generation-bounded runs are reproducible
// across machines.
func OptimizeStochasticCtx(ctx context.Context, dp *datapath.Datapath, opts Options) (*Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Model.Width == 0 {
		opts.Model = area.Default(dp.Width)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	maxGen := opts.MaxGenerations
	if maxGen == 0 {
		maxGen = defaultMaxGenerations
	}
	stallGen := opts.StallGenerations
	if stallGen == 0 {
		stallGen = defaultStallGenerations
	}
	probeNodes := opts.ExactProbeNodes
	if probeNodes == 0 {
		probeNodes = defaultExactProbeNodes
	}
	sc := opts.Scratch
	if sc == nil {
		sc = new(Scratch)
	}

	start := time.Now()
	var deadline time.Time
	if opts.TimeBudget > 0 {
		deadline = start.Add(opts.TimeBudget)
	}
	timedOut := func() bool {
		return !deadline.IsZero() && !time.Now().Before(deadline)
	}

	// Phase 1: node-budgeted exact probe.
	var probeMetrics Metrics
	var seedEmb map[string]Embedding
	if probeNodes > 0 {
		po := opts
		po.NodeBudget = probeNodes
		po.Metrics = &probeMetrics
		po.Scratch = sc
		plan, err := OptimizeCtx(ctx, dp, po)
		if err != nil {
			return nil, err
		}
		if plan.Exact {
			if opts.Metrics != nil {
				*opts.Metrics = probeMetrics
				opts.Metrics.Curve = []CurvePoint{{Generation: 0, Cost: plan.ExtraArea}}
			}
			return plan, nil
		}
		seedEmb = plan.Embeddings
	}

	sp, err := prepareSpace(dp, opts, sc)
	if err != nil {
		return nil, err
	}
	nm := len(sp.mods)
	if nm == 0 {
		plan := &Plan{
			Embeddings: map[string]Embedding{},
			Styles:     map[string]area.Style{},
			Exact:      true,
		}
		plan.Sessions = ScheduleSessions(plan)
		if opts.Metrics != nil {
			*opts.Metrics = Metrics{}
		}
		return plan, plan.Validate(dp)
	}

	pupSize := opts.Population
	if pupSize <= 0 {
		pupSize = min(max(6*nm, 32), 192)
	}
	if pupSize < 4 {
		pupSize = 4
	}

	// One cost evaluator over the scratch's arena, which the probe has
	// finished with.
	sc.arena.size(sp.nregs, nm)
	ev := newDutyEval(&sp, &sc.arena)

	st := &stochState{sp: &sp, dp: dp, opts: opts, bestCost: -1, bestSessions: -1}
	rng := rand.New(rand.NewSource(seed))

	// Phase 2: seeded initial population.
	pop := make([][]int32, pupSize)
	next := make([][]int32, pupSize)
	fit := make([]int, pupSize)
	nextFit := make([]int, pupSize)
	for i := range pop {
		pop[i] = make([]int32, nm)
		next[i] = make([]int32, nm)
	}
	greedyCost := greedyAssignment(&sp, &ev, pop[0])
	for i, g := range pop[0] {
		ev.undo(sp.refs[i][g])
	}
	fit[0] = greedyCost
	from := 1
	if seedEmb != nil && sp.genomeOf(seedEmb, pop[1]) {
		fit[1] = ev.evalGenome(sp.refs, pop[1])
		from = 2
	}
	for i := from; i < pupSize; i++ {
		for j := range pop[i] {
			pop[i][j] = int32(rng.Intn(len(sp.refs[j])))
		}
		fit[i] = ev.evalGenome(sp.refs, pop[i])
	}
	st.evals += int64(pupSize)
	for i := range pop {
		if _, err := st.improve(pop[i], fit[i]); err != nil {
			return nil, err
		}
	}

	tournament := func() []int32 {
		bi := rng.Intn(pupSize)
		for k := 1; k < 3; k++ {
			c := rng.Intn(pupSize)
			if fit[c] < fit[bi] || (fit[c] == fit[bi] && c < bi) {
				bi = c
			}
		}
		return pop[bi]
	}

	pm := 1.5 / float64(nm)
	if pm > 0.5 {
		pm = 0.5
	}

	// Phase 3: genetic search. All rng draws happen in a fixed order.
	lastImprove := int64(0)
	cancelled := false
	for gen := int64(1); gen <= int64(maxGen); gen++ {
		if err := ctx.Err(); err != nil {
			cancelled = true
			break
		}
		if timedOut() {
			break
		}
		if stallGen > 0 && gen-lastImprove > int64(stallGen) {
			break
		}
		// Elitism: the global incumbent and the best of the current
		// population survive unchanged.
		copy(next[0], st.best)
		bi := 0
		for i := 1; i < pupSize; i++ {
			if fit[i] < fit[bi] {
				bi = i
			}
		}
		copy(next[1], pop[bi])
		for i := 2; i < pupSize; i++ {
			pa, pb := tournament(), tournament()
			child := next[i]
			if rng.Float64() < 0.9 {
				for j := range child {
					if rng.Intn(2) == 0 {
						child[j] = pa[j]
					} else {
						child[j] = pb[j]
					}
				}
			} else {
				copy(child, pa)
			}
			for j := range child {
				if len(sp.refs[j]) > 1 && rng.Float64() < pm {
					child[j] = int32(rng.Intn(len(sp.refs[j])))
				}
			}
		}
		for i, g := range next {
			nextFit[i] = ev.evalGenome(sp.refs, g)
		}
		st.evals += int64(pupSize)
		st.gen = gen
		for i := range next {
			took, err := st.improve(next[i], nextFit[i])
			if err != nil {
				return nil, err
			}
			if took {
				lastImprove = gen
			}
		}
		pop, next = next, pop
		fit, nextFit = nextFit, fit
		if opts.Progress != nil {
			opts.Progress(probeMetrics.Nodes + st.evals)
		}
	}

	// Phase 4: simulated-annealing polish of the best genome —
	// single-module moves with incremental cost deltas, geometric
	// cooling. Incumbent updates here are strict improvements only.
	if !cancelled && !timedOut() {
		cur := append([]int32(nil), st.best...)
		for i, g := range cur {
			ev.apply(sp.refs[i][g])
		}
		curCost := ev.cost
		iters := min(max(defaultAnnealIterFactor*nm, 2000), 150_000)
		t0 := math.Max(2, 0.05*float64(curCost+1))
		cooling := math.Pow(0.05/t0, 1/float64(iters))
		temp := t0
		for it := 0; it < iters; it++ {
			if it&1023 == 0 {
				if ctx.Err() != nil {
					cancelled = true
					break
				}
				if timedOut() {
					break
				}
			}
			i := rng.Intn(nm)
			if n := len(sp.refs[i]); n > 1 {
				j := int32(rng.Intn(n - 1))
				if j >= cur[i] {
					j++
				}
				old := cur[i]
				ev.undo(sp.refs[i][old])
				ev.apply(sp.refs[i][j])
				st.evals++
				d := ev.cost - curCost
				if d <= 0 || rng.Float64() < math.Exp(-float64(d)/temp) {
					cur[i] = j
					curCost = ev.cost
					if curCost < st.bestCost {
						if _, err := st.improve(cur, curCost); err != nil {
							return nil, err
						}
					}
				} else {
					ev.undo(sp.refs[i][j])
					ev.apply(sp.refs[i][old])
				}
			}
			temp *= cooling
		}
		for i, g := range cur {
			ev.undo(sp.refs[i][g])
		}
	}
	if cancelled {
		return nil, ctx.Err()
	}
	if opts.Progress != nil {
		opts.Progress(probeMetrics.Nodes + st.evals)
	}

	if opts.Metrics != nil {
		*opts.Metrics = Metrics{
			Nodes:       probeMetrics.Nodes,
			BoundPrunes: probeMetrics.BoundPrunes,
			Incumbents:  probeMetrics.Incumbents + st.incumbents,
			Embeddings:  sp.embTotal,
			Generations: st.gen,
			Evaluations: st.evals,
			Curve:       st.curve,
		}
	}

	plan := PlanFromEmbeddings(opts.Model, sp.embeddingsOf(st.best), false)
	if plan.ExtraArea != st.bestCost {
		return nil, fmt.Errorf("bist: stochastic cost evaluator disagrees with area model (%d vs %d)", st.bestCost, plan.ExtraArea)
	}
	return plan, plan.Validate(dp)
}

// genomeOf fills genome with the embedding indices matching embs (one per
// module position) and reports whether every module resolved. Used to map
// the exact probe's incumbent plan back into the genetic search's genome
// space.
func (sp *searchSpace) genomeOf(embs map[string]Embedding, genome []int32) bool {
	for i, m := range sp.mods {
		e, ok := embs[m.name]
		if !ok {
			return false
		}
		found := int32(-1)
		for j, cand := range m.embs {
			if cand == e {
				found = int32(j)
				break
			}
		}
		if found < 0 {
			return false
		}
		genome[i] = found
	}
	return true
}

// stochState tracks the stochastic search's incumbent and effort. The
// incumbent order is canonical — (cost, [sessions,] lexicographic
// genome) — so the winner is a pure function of the candidates seen, not
// of scan order details.
type stochState struct {
	sp   *searchSpace
	dp   *datapath.Datapath
	opts Options

	best         []int32
	bestCost     int
	bestSessions int // -1 = not yet computed
	curve        []CurvePoint
	incumbents   int64
	evals        int64
	gen          int64
}

// improve considers (g, cost) against the incumbent and adopts it when it
// wins the canonical order. Adopted candidates are materialized as a full
// Plan, cross-checked against the area model and revalidated against the
// data path — a stochastic search must never be able to return an
// assignment the exact search's invariants would reject.
func (st *stochState) improve(g []int32, cost int) (bool, error) {
	switch {
	case st.bestCost < 0 || cost < st.bestCost:
		// Strict improvement.
	case cost > st.bestCost:
		return false, nil
	default: // cost tie
		if int32Equal(g, st.best) {
			return false, nil
		}
		if st.opts.MinimizeSessions {
			s := sessionsOfEmbeddings(st.sp.embeddingsOf(g))
			bs := st.sessionsOfBest()
			if s > bs || (s == bs && !int32Less(g, st.best)) {
				return false, nil
			}
		} else if !int32Less(g, st.best) {
			return false, nil
		}
	}
	p := PlanFromEmbeddings(st.opts.Model, st.sp.embeddingsOf(g), false)
	if p.ExtraArea != cost {
		return false, fmt.Errorf("bist: stochastic cost evaluator disagrees with area model (%d vs %d)", cost, p.ExtraArea)
	}
	if err := p.Validate(st.dp); err != nil {
		return false, fmt.Errorf("bist: stochastic candidate failed validation: %w", err)
	}
	st.best = append(st.best[:0], g...)
	st.bestCost = cost
	st.bestSessions = len(p.Sessions)
	st.curve = append(st.curve, CurvePoint{Generation: st.gen, Cost: cost})
	st.incumbents++
	return true, nil
}

func (st *stochState) sessionsOfBest() int {
	if st.bestSessions < 0 {
		st.bestSessions = sessionsOfEmbeddings(st.sp.embeddingsOf(st.best))
	}
	return st.bestSessions
}

func int32Equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// int32Less is the lexicographic order on genomes, the final tie-break of
// the incumbent order.
func int32Less(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
