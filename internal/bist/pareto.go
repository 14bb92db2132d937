package bist

import (
	"context"
	"fmt"
	"sort"

	"bistpath/internal/area"
	"bistpath/internal/datapath"
)

// CostVector is the multi-objective cost of one complete BIST plan:
// the register upgrade area (the paper's sole objective), the test time
// proxied by the session schedule length, and the peak per-session
// active power under the plan's schedule. All three components are
// minimized; vectors are compared by Pareto dominance.
type CostVector struct {
	Area      int // register upgrade area in gate equivalents
	TestTime  int // test sessions in the schedule (each session = one test run)
	PeakPower int // maximum per-session sum of module power weights
}

// Dominates reports whether c is at least as good as o in every
// component and strictly better in at least one — the standard Pareto
// dominance relation for minimization.
func (c CostVector) Dominates(o CostVector) bool {
	if c.Area > o.Area || c.TestTime > o.TestTime || c.PeakPower > o.PeakPower {
		return false
	}
	return c != o
}

// Less orders vectors lexicographically by (Area, TestTime, PeakPower).
// It is a total order used only for canonical presentation of a front;
// dominance, not Less, decides membership.
func (c CostVector) Less(o CostVector) bool {
	if c.Area != o.Area {
		return c.Area < o.Area
	}
	if c.TestTime != o.TestTime {
		return c.TestTime < o.TestTime
	}
	return c.PeakPower < o.PeakPower
}

func (c CostVector) String() string {
	return fmt.Sprintf("area=%d sessions=%d peak-power=%d", c.Area, c.TestTime, c.PeakPower)
}

// Weighted collapses the vector under non-negative scalar weights.
func (c CostVector) Weighted(wArea, wTime, wPower int) int {
	return wArea*c.Area + wTime*c.TestTime + wPower*c.PeakPower
}

// PowerWeights resolves the per-module active-power weights the
// multi-objective search charges a module for being under test. Modules
// present in override use that weight verbatim; every other module gets
// the documented default, an area-proportional estimate: the module's
// combinational gate area under the model. The rationale is that
// pseudo-random BIST patterns toggle a module's full logic cone every
// cycle, so switching activity — and hence average test-mode power — is
// roughly proportional to gate count. Weights are plain ints, so the
// whole objective stays exactly deterministic.
func PowerWeights(model area.Model, dp *datapath.Datapath, override map[string]int) map[string]int {
	out := make(map[string]int, len(dp.Modules))
	for _, m := range dp.Modules {
		if w, ok := override[m.Name]; ok {
			out[m.Name] = w
			continue
		}
		out[m.Name] = model.ModuleArea(m.Kinds)
	}
	return out
}

// PlanCost evaluates a completed plan's cost vector under the given
// power weights: ExtraArea, the session count, and the peak per-session
// power sum. Modules missing from power weigh zero.
func PlanCost(p *Plan, power map[string]int) CostVector {
	v := CostVector{Area: p.ExtraArea, TestTime: len(p.Sessions)}
	for _, sess := range p.Sessions {
		sum := 0
		for _, m := range sess {
			sum += power[m]
		}
		if sum > v.PeakPower {
			v.PeakPower = sum
		}
	}
	return v
}

// WeightedBest returns the front member minimizing the weighted scalar
// objective. Ties keep the earliest member; with the front in canonical
// lexicographic order that makes the winner deterministic: minimal
// weighted sum, then lexicographically smallest (Area, TestTime,
// PeakPower) vector. For non-negative weights the scalar optimum over
// all feasible plans is always attained on the non-dominated front, so
// enumerating the front once serves every weight profile. A nil or
// empty front returns nil.
func WeightedBest(front []*Plan, wArea, wTime, wPower int) *Plan {
	var best *Plan
	bestScore := 0
	for _, p := range front {
		s := p.Cost.Weighted(wArea, wTime, wPower)
		if best == nil || s < bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

// paretoEntry is one archive member during enumeration: its vector and
// the embedding-index assignment (in search-order module positions) of
// the first leaf in canonical depth-first order that produced it.
type paretoEntry struct {
	vec CostVector
	asg []int32
}

// paretoWalk is the enumeration state. It walks the exact search's
// prepared space in its canonical depth-first order — most-constrained
// modules first, each module's embeddings in stable ascending
// standalone-cost order — so the representative plan kept for each
// distinct vector is a pure function of the data path, and the
// area-minimal front member reproduces the single-objective search's
// deterministic tie-break. Area comes from the shared duty evaluator;
// each leaf's session count and peak power from the arena's scheduler.
type paretoWalk struct {
	dutyEval
	ctx  context.Context
	opts Options
	sp   searchSpace

	// ppLB is the peak-power lower bound: every module sits in some
	// session, so any schedule's peak is at least the largest single
	// module weight. cornerArea is the smallest area among archive
	// members that already sit at the (TestTime=1, PeakPower=ppLB) ideal
	// corner, or -1; any partial assignment whose area has reached it can
	// only complete into dominated or duplicate vectors.
	ppLB       int
	cornerArea int

	archive   []paretoEntry
	nodes     int64
	prunes    int64
	incumbent int64
	inexact   bool
	cancelled bool
}

func (e *paretoWalk) dfs(i int) {
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
	if e.cancelled {
		return
	}
	// Ideal-corner dominance prune: adding modules never lowers the
	// area, every completion schedules at least one session, and its
	// peak power is at least ppLB. A corner member with area <= the
	// partial area therefore dominates (or equals, and then canonically
	// precedes) every leaf below this node. See DESIGN.md §9.
	if e.cornerArea >= 0 && e.cornerArea <= e.cost {
		e.prunes++
		return
	}
	if i == len(e.sp.refs) {
		n, peak := e.a.schedule(&e.sp, e.a.cur, e.a.power)
		e.offer(CostVector{Area: e.cost, TestTime: n, PeakPower: peak})
		return
	}
	for j, r := range e.sp.refs[i] {
		e.a.cur[i] = int32(j)
		e.apply(r)
		e.dfs(i + 1)
		e.undo(r)
	}
}

// offer inserts a leaf vector into the archive unless it is dominated
// or duplicates an existing vector (the earlier — canonical depth-first
// first — representative wins), and evicts members the newcomer
// dominates.
func (e *paretoWalk) offer(v CostVector) {
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
	e.archive = append(kept, paretoEntry{vec: v, asg: append([]int32(nil), e.a.cur...)})
	e.incumbent++
	if v.TestTime == 1 && v.PeakPower == e.ppLB {
		if e.cornerArea < 0 || v.Area < e.cornerArea {
			e.cornerArea = v.Area
		}
	}
}

// OptimizePareto enumerates the non-dominated set of complete BIST
// plans under the three-component cost vector (upgrade area, session
// count, peak per-session power) and returns one representative plan
// per non-dominated vector, sorted lexicographically by (Area,
// TestTime, PeakPower). Each returned plan carries its vector in
// Plan.Cost and a schedule from ScheduleSessions.
//
// The search is a sequential exhaustive walk over OptimizeCtx's
// prepared space, in its canonical order, with dominance pruning at
// the ideal corner (see paretoWalk); within each distinct vector the
// first leaf in that order is the representative, so the result is a
// pure function of the data path and options — in particular, the
// area-minimal front member is the plan the single-objective search
// returns. If Options.NodeBudget is exhausted the walk stops and every
// returned plan reports Exact=false; the partial front is still
// mutually non-dominated but may miss vectors. Options.Scratch is used
// as by OptimizeCtx.
func OptimizePareto(ctx context.Context, dp *datapath.Datapath, opts Options) ([]*Plan, error) {
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
	if len(sp.mods) == 0 {
		p := &Plan{Embeddings: map[string]Embedding{}, Styles: map[string]area.Style{}, Exact: true}
		p.Sessions = ScheduleSessions(p)
		return []*Plan{p}, nil
	}
	power := PowerWeights(opts.Model, dp, opts.Power)

	a := &sc.arena
	a.size(sp.nregs, len(sp.mods))
	a.prepareSchedule(&sp)
	e := &paretoWalk{
		dutyEval:   newDutyEval(&sp, a),
		ctx:        ctx,
		opts:       opts,
		sp:         sp,
		cornerArea: -1,
	}
	for i, m := range sp.mods {
		a.power[i] = power[m]
		e.ppLB = max(e.ppLB, a.power[i])
	}
	e.dfs(0)
	if e.cancelled {
		return nil, ctx.Err()
	}
	if opts.Metrics != nil {
		opts.Metrics.Nodes = e.nodes
		opts.Metrics.BoundPrunes = e.prunes
		opts.Metrics.Incumbents = e.incumbent
	}

	sort.Slice(e.archive, func(i, j int) bool { return e.archive[i].vec.Less(e.archive[j].vec) })
	front := make([]*Plan, 0, len(e.archive))
	for _, en := range e.archive {
		p := PlanFromEmbeddings(opts.Model, sp.embeddingsOf(en.asg), !e.inexact)
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
		// The budget expired before the first leaf: fall back to the
		// area search's plan so callers still get a usable (inexact)
		// singleton front.
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
