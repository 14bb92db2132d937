package bist

import (
	"context"
	"fmt"
	"sort"

	"bistpath/internal/area"
	"bistpath/internal/datapath"
	"bistpath/internal/interconnect"
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

// paretoEnum is the sequential enumeration state. The search walks the
// exact canonical depth-first order of the area-only branch and bound —
// most-constrained modules first, each module's embeddings in stable
// ascending standalone-cost order — so the representative plan kept for
// each distinct vector is a pure function of the data path, and the
// area-minimal front member reproduces the single-objective search's
// deterministic tie-break.
type paretoEnum struct {
	ctx   context.Context
	opts  Options
	mods  []modEmb
	power map[string]int

	// Incremental register-duty counters and upgrade area, exactly the
	// exact search's counter scheme but keyed by name (this walk has no
	// need for interning).
	tpg, sa, cb map[string]int
	areaCost    int
	cur         []int32
	embs        map[string]Embedding // leaf-evaluation scratch

	// ppLB is the global peak-power lower bound: every module sits in
	// some session, so any schedule's peak is at least the largest single
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

func (e *paretoEnum) styleExtra(r string) int {
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

// bump adjusts one register's duty counters by d, folding the register's
// upgrade-cost change into the running area.
func (e *paretoEnum) bump(emb Embedding, d int) {
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
		if h == "" || interconnect.IsPad(h) {
			continue
		}
		touch(h, true)
	}
	touch(emb.Tail, false)
}

func (e *paretoEnum) dfs(i int) {
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
	// Ideal-corner dominance prune: adding modules never lowers the
	// area, every completion schedules at least one session, and its
	// peak power is at least ppLB. A corner member with area <= the
	// partial area therefore dominates (or equals, and then canonically
	// precedes) every leaf below this node. See DESIGN.md §9.
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

// leaf evaluates the complete assignment's vector and offers it to the
// archive.
func (e *paretoEnum) leaf() {
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
		if sum > v.PeakPower {
			v.PeakPower = sum
		}
	}
	e.offer(v)
}

// offer inserts a leaf vector into the archive unless it is dominated
// or duplicates an existing vector (the earlier — canonical depth-first
// first — representative wins), and evicts members the newcomer
// dominates.
func (e *paretoEnum) offer(v CostVector) {
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
// The search is a sequential exhaustive walk in the exact canonical
// order of OptimizeCtx's branch and bound, with dominance pruning at
// the ideal corner (see paretoEnum); within each distinct vector the
// first leaf in that order is the representative, so the result is a
// pure function of the data path and options — in particular, the
// area-minimal front member is the plan the single-objective search
// returns. If Options.NodeBudget is exhausted the walk stops and every
// returned plan reports Exact=false; the partial front is still
// mutually non-dominated but may miss vectors.
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

	// The canonical search order OptimizeCtx walks.
	canonicalOrder(opts.Model, mods, nil, nil)

	e := &paretoEnum{
		ctx:        ctx,
		opts:       opts,
		mods:       mods,
		power:      power,
		tpg:        make(map[string]int),
		sa:         make(map[string]int),
		cb:         make(map[string]int),
		cur:        make([]int32, len(mods)),
		embs:       make(map[string]Embedding, len(mods)),
		cornerArea: -1,
	}
	for _, m := range dp.Modules {
		if w := power[m.Name]; w > e.ppLB {
			e.ppLB = w
		}
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
