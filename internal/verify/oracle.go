package verify

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"bistpath/internal/area"
	"bistpath/internal/bist"
	"bistpath/internal/datapath"
	"bistpath/internal/dfg"
	"bistpath/internal/interconnect"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// moduleEmbeddings enumerates every legal BIST embedding of one module
// directly from the netlist: any wired left/right source pair (distinct
// unless the module is diagonal; pads only when allowed) feeding any
// destination register. It deliberately re-derives what
// bist.Embeddings computes, so the two enumerations check each other.
func moduleEmbeddings(dp *datapath.Datapath, m *datapath.Module, allowPads bool) []bist.Embedding {
	usable := func(srcs []string) []string {
		var out []string
		for _, s := range srcs {
			if interconnect.IsPad(s) && !allowPads {
				continue
			}
			out = append(out, s)
		}
		return out
	}
	ls := usable(m.Left)
	var out []bist.Embedding
	if len(m.Right) == 0 {
		for _, l := range ls {
			for _, t := range m.Dests {
				out = append(out, bist.Embedding{Module: m.Name, HeadL: l, Tail: t})
			}
		}
		return out
	}
	diagonal := moduleDiagonal(dp, m.Name)
	for _, l := range ls {
		for _, r := range usable(m.Right) {
			if l == r && !diagonal {
				continue
			}
			for _, t := range m.Dests {
				out = append(out, bist.Embedding{Module: m.Name, HeadL: l, HeadR: r, Tail: t})
			}
		}
	}
	return out
}

// dutyCost tracks register duties and the total upgrade cost
// incrementally while the embedding oracle walks its cartesian product.
type dutyCost struct {
	model area.Model
	tpg   map[string]int
	sa    map[string]int
	cb    map[string]int
	cost  int
}

func newDutyCost(m area.Model) *dutyCost {
	return &dutyCost{model: m, tpg: map[string]int{}, sa: map[string]int{}, cb: map[string]int{}}
}

func (d *dutyCost) styleExtra(reg string) int {
	switch {
	case d.cb[reg] > 0:
		return d.model.StyleExtra(area.CBILBO)
	case d.tpg[reg] > 0 && d.sa[reg] > 0:
		return d.model.StyleExtra(area.BILBO)
	case d.tpg[reg] > 0:
		return d.model.StyleExtra(area.TPG)
	case d.sa[reg] > 0:
		return d.model.StyleExtra(area.SA)
	}
	return 0
}

func (d *dutyCost) add(e bist.Embedding, dir int) {
	touched := map[string]bool{}
	before := map[string]int{}
	note := func(reg string) {
		if !touched[reg] {
			touched[reg] = true
			before[reg] = d.styleExtra(reg)
		}
	}
	for _, h := range []string{e.HeadL, e.HeadR} {
		if h == "" || interconnect.IsPad(h) {
			continue
		}
		note(h)
		d.tpg[h] += dir
		if h == e.Tail {
			d.cb[h] += dir
		}
	}
	note(e.Tail)
	d.sa[e.Tail] += dir
	for reg := range touched {
		d.cost += d.styleExtra(reg) - before[reg]
	}
}

// EmbeddingOracleResult reports the exhaustive embedding enumeration.
type EmbeddingOracleResult struct {
	MinCost  int   // minimum upgrade area over all combinations
	Combos   int64 // size of the cartesian product (saturated at 2*cap)
	Feasible bool  // false when a module has no embedding or the product exceeds cap
}

// EmbeddingOracle exhaustively enumerates every combination of
// per-module BIST embeddings and returns the minimum register upgrade
// area — the ground truth the branch-and-bound optimizer must match.
// If the cartesian product exceeds maxCombos the oracle declines to run.
func EmbeddingOracle(dp *datapath.Datapath, model area.Model, allowPads bool, maxCombos int64) EmbeddingOracleResult {
	if model.Width == 0 {
		model = area.Default(dp.Width)
	}
	lists := make([][]bist.Embedding, 0, len(dp.Modules))
	combos := int64(1)
	for _, m := range dp.Modules {
		embs := moduleEmbeddings(dp, m, allowPads)
		if len(embs) == 0 {
			return EmbeddingOracleResult{}
		}
		lists = append(lists, embs)
		if combos <= 2*maxCombos { // saturate: the exact count no longer matters
			combos *= int64(len(embs))
		}
	}
	res := EmbeddingOracleResult{Combos: combos}
	if maxCombos > 0 && combos > maxCombos {
		return res
	}
	res.Feasible = true
	d := newDutyCost(model)
	res.MinCost = -1
	var walk func(i int)
	walk = func(i int) {
		if res.MinCost >= 0 && d.cost >= res.MinCost {
			return // duties only ever add cost deeper down
		}
		if i == len(lists) {
			res.MinCost = d.cost
			return
		}
		for _, e := range lists[i] {
			d.add(e, +1)
			walk(i + 1)
			d.add(e, -1)
		}
	}
	walk(0)
	if res.MinCost < 0 { // no modules at all
		res.MinCost = 0
	}
	return res
}

// planFingerprint canonically serializes a plan's observable content so
// two searches can be compared for exact equality.
func planFingerprint(p *bist.Plan) string {
	var sb strings.Builder
	mods := make([]string, 0, len(p.Embeddings))
	for m := range p.Embeddings {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	for _, m := range mods {
		e := p.Embeddings[m]
		fmt.Fprintf(&sb, "emb %s L=%s R=%s T=%s\n", m, e.HeadL, e.HeadR, e.Tail)
	}
	regs := make([]string, 0, len(p.Styles))
	for r := range p.Styles {
		regs = append(regs, r)
	}
	sort.Strings(regs)
	for _, r := range regs {
		fmt.Fprintf(&sb, "style %s %v\n", r, p.Styles[r])
	}
	fmt.Fprintf(&sb, "cost %d exact %v\n", p.ExtraArea, p.Exact)
	for i, s := range p.Sessions {
		fmt.Fprintf(&sb, "session %d: %s\n", i, strings.Join(s, ","))
	}
	return sb.String()
}

// RerunMatch runs search once and reports a violation when its plan
// differs from the given plan in any observable way. It is the check
// that a plan served from the cache or spliced by a session equals what
// a fresh search returns.
func RerunMatch(ctx context.Context, dp *datapath.Datapath, search func(context.Context, *datapath.Datapath) (*bist.Plan, error), plan *bist.Plan) ([]string, error) {
	p, err := search(ctx, dp)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return []string{fmt.Sprintf("rerun: search failed: %v", err)}, nil
	}
	if base, got := planFingerprint(plan), planFingerprint(p); got != base {
		return []string{fmt.Sprintf("rerun: a fresh search diverges from the plan under test:\n--- plan ---\n%s--- rerun ---\n%s", base, got)}, nil
	}
	return nil, nil
}

// BindingOracleResult reports the exhaustive register-binding sweep.
type BindingOracleResult struct {
	Ran       bool // false when enumeration failed
	Registers int  // register count the space was enumerated at
	Bindings  int  // same-register-count bindings enumerated
	Feasible  int  // bindings that survived the full downstream pipeline
	Best      int  // lowest plan cost over feasible bindings
	Worst     int  // highest plan cost over feasible bindings
	Complete  bool // enumeration covered the whole space
}

// BindingOracle enumerates every register binding with the same
// register count as the data path under test (the minimum count when
// dp is nil), pushes each through the interconnect, netlist and BIST
// pipeline, and reports the best and worst achievable plan cost. A
// heuristic binding is always graded against its own register count,
// so non-minimal bindings — e.g. one where Lemma-2 avoidance opened an
// extra register — are graded against the enumerated k-register
// optimum instead of being declined. The plan under test must land
// inside the reported range; beating Best would prove the cost model
// inconsistent.
func BindingOracle(ctx context.Context, g *dfg.Graph, mb *modassign.Binding, dp *datapath.Datapath, opts Options) (BindingOracleResult, error) {
	var res BindingOracleResult
	k, err := g.MinRegisters()
	if err != nil {
		return res, nil
	}
	if dp != nil {
		k = len(dp.Regs)
	}
	res.Registers = k
	parts, complete, err := regassign.EnumerateBindings(g, k, opts.BindingLimit)
	if err != nil {
		return res, nil
	}
	res.Ran = true
	res.Bindings = len(parts)
	res.Complete = complete
	sh := regassign.NewSharing(g, mb)
	for _, part := range parts {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		rb, err := regassign.BindingFromPartition(g, part)
		if err != nil {
			continue
		}
		ib, err := interconnect.Bind(g, mb, rb, sh)
		if err != nil {
			continue
		}
		cand, err := datapath.Build(g, mb, rb, ib, opts.Model.Width)
		if err != nil {
			continue
		}
		plan, err := bist.OptimizeCtx(ctx, cand, bist.Options{
			Model:            opts.Model,
			AllowPadHeads:    opts.AllowPadTPG,
			MinimizeSessions: opts.MinimizeSessions,
		})
		if err != nil {
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			continue // e.g. a binding leaving some module with no embedding
		}
		if res.Feasible == 0 || plan.ExtraArea < res.Best {
			res.Best = plan.ExtraArea
		}
		if res.Feasible == 0 || plan.ExtraArea > res.Worst {
			res.Worst = plan.ExtraArea
		}
		res.Feasible++
	}
	return res, nil
}
