// Package verify is the differential-verification layer of the
// reproduction: an independent set of oracles and invariant checks that
// every synthesized plan must pass. The heuristics it guards — the
// PVES/ΔSD register binder with its Case-1/2 overrides, the Lemma-2
// CBILBO detection and the BIST branch and bound —
// are exactly the code paths where a subtle bug yields a plausible but
// wrong plan that no golden test notices.
//
// Three layers of defense, in increasing cost:
//
//  1. Invariants — structural validation of a complete allocation:
//     the register binding is a proper coloring of the lifetime
//     conflict graph, every operation executes on a kind-compatible
//     module with interconnect paths for all of its transfers (checked
//     by replaying the control program against register occupancy),
//     every module has a wired BIST embedding, register styles and the
//     plan cost are re-derived from scratch, CBILBO designations agree
//     with both brute-force embedding enumeration and Lemma 2, and the
//     test sessions cover every module exactly once without TPG/SA role
//     conflicts.
//
//  2. Brute-force oracles — exhaustive enumeration of the search spaces
//     the heuristics explore: every combination of per-module BIST
//     embeddings (the optimizer's plan must match the enumerated
//     minimum exactly, and a fresh run of the strategy that produced it
//     must reproduce it identically), and every minimum-register
//     binding pushed through the
//     full downstream pipeline (the heuristic binder must never beat
//     the enumerated optimum, which would indicate a broken cost, and
//     must stay within the enumerated cost range).
//
//  3. Functional cross-check — the bound data path is simulated on
//     random input vectors and every primary output compared against
//     direct dfg.Eval, exercising module, register and interconnect
//     bindings end to end.
//
// All re-derivations here are written independently of the packages they
// check (no calls into the binder's sharing machinery, the optimizer's
// incremental role state, or the session scheduler), so a bug on either
// side surfaces as a reported violation instead of cancelling out.
package verify

import (
	"context"
	"fmt"
	"strings"

	"bistpath/internal/area"
	"bistpath/internal/bist"
	"bistpath/internal/datapath"
	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
)

// Options configures a verification run. Zero values select the
// defaults noted on each field.
type Options struct {
	// Model is the area model the plan was optimized under (default:
	// area.Default for the data path's width).
	Model area.Model
	// AllowPadTPG mirrors the synthesis configuration: input pads may
	// act as embedding heads.
	AllowPadTPG bool
	// MinimizeSessions mirrors the synthesis configuration's session
	// tie-break; the binding oracle searches each binding with it.
	MinimizeSessions bool
	// Vectors is the number of random input vectors for the functional
	// cross-check (default 100; negative disables).
	Vectors int
	// Seed seeds the functional cross-check's vector generator.
	Seed int64
	// Search re-runs the search that produced the plan under test; the
	// re-run oracle requires the identical plan back. Nil skips the
	// oracle.
	Search func(ctx context.Context, dp *datapath.Datapath) (*bist.Plan, error)
	// EmbeddingCap bounds the exhaustive embedding oracle: if the
	// cartesian product of per-module embedding counts exceeds it, the
	// oracle is skipped and reported infeasible (default 4<<20).
	EmbeddingCap int64
	// BindingLimit bounds the exhaustive register-binding oracle: the
	// enumeration of minimum-register bindings stops (and the oracle is
	// reported incomplete) beyond this many partitions (default 20000;
	// negative disables the oracle).
	BindingLimit int
	// SkipOracles runs only the invariants and the functional
	// cross-check — the fast path for large randomized sweeps.
	SkipOracles bool
}

func (o Options) withDefaults(width int) Options {
	if o.Model.Width == 0 {
		o.Model = area.Default(width)
	}
	if o.Vectors == 0 {
		o.Vectors = 100
	}
	if o.EmbeddingCap == 0 {
		o.EmbeddingCap = 4 << 20
	}
	if o.BindingLimit == 0 {
		o.BindingLimit = 20000
	}
	return o
}

// Report is the outcome of one verification run. Violations is empty iff
// every executed check passed; the remaining fields record how much
// evidence each layer gathered.
type Report struct {
	Design     string   `json:"design"`
	Violations []string `json:"violations"`

	// Functional cross-check.
	Vectors int `json:"vectors"`

	// Embedding oracle.
	PlanCost        int   `json:"plan_cost"`
	PlanExact       bool  `json:"plan_exact"`
	EmbeddingCombos int64 `json:"embedding_combos"`
	EmbeddingMin    int   `json:"embedding_min"`
	EmbeddingRan    bool  `json:"embedding_oracle_ran"`

	// Re-run conformance.
	RerunRan bool `json:"rerun_oracle_ran"`

	// Register-binding oracle.
	BindingRan       bool `json:"binding_oracle_ran"`
	BindingRegisters int  `json:"binding_registers,omitempty"`
	BindingCount     int  `json:"binding_count"`
	BindingFeasible  int  `json:"binding_feasible"`
	BindingBest      int  `json:"binding_best"`
	BindingWorst     int  `json:"binding_worst"`
	BindingComplete  bool `json:"binding_complete"`
}

// OK reports whether every executed check passed.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the report is clean, or an error summarizing the
// violations.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("verify %s: %d violation(s):\n  %s",
		r.Design, len(r.Violations), strings.Join(r.Violations, "\n  "))
}

// Summary renders the report as an indented human-readable block.
func (r *Report) Summary() string {
	var sb strings.Builder
	status := "PASS"
	if !r.OK() {
		status = "FAIL"
	}
	fmt.Fprintf(&sb, "verify %s: %s\n", r.Design, status)
	if r.Vectors > 0 {
		fmt.Fprintf(&sb, "  functional: %d vectors match dfg.Eval\n", r.Vectors)
	}
	if r.EmbeddingRan {
		fmt.Fprintf(&sb, "  embedding oracle: plan cost %d vs exhaustive minimum %d (%d combinations)\n",
			r.PlanCost, r.EmbeddingMin, r.EmbeddingCombos)
	} else if r.EmbeddingCombos > 0 {
		fmt.Fprintf(&sb, "  embedding oracle: skipped (%d combinations exceed cap)\n", r.EmbeddingCombos)
	}
	if r.RerunRan {
		sb.WriteString("  re-run oracle: a fresh search reproduces the plan\n")
	}
	if r.BindingRan {
		complete := ""
		if !r.BindingComplete {
			complete = ", enumeration truncated"
		}
		fmt.Fprintf(&sb, "  binding oracle: %d/%d %d-register bindings feasible; best %d <= plan %d <= worst %d%s\n",
			r.BindingFeasible, r.BindingCount, r.BindingRegisters, r.BindingBest, r.PlanCost, r.BindingWorst, complete)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "  VIOLATION: %s\n", v)
	}
	return sb.String()
}

// Run executes every verification layer enabled by opts against a
// completed allocation. mb may be nil when no module binding is
// available (the Lemma-2 cross-check and the binding oracle are then
// skipped). The returned error reports infrastructure failures only
// (context cancellation, simulator setup); verification failures are
// collected in Report.Violations.
func Run(ctx context.Context, g *dfg.Graph, mb *modassign.Binding, dp *datapath.Datapath, plan *bist.Plan, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults(dp.Width)
	rep := &Report{Design: dp.Name, PlanCost: plan.ExtraArea, PlanExact: plan.Exact}

	rep.Violations = append(rep.Violations, Invariants(g, mb, dp, plan, opts.Model, opts.AllowPadTPG)...)

	if opts.Vectors > 0 {
		n, err := Functional(dp, opts.Vectors, opts.Seed)
		rep.Vectors = n
		if err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("functional: %v", err))
		}
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if opts.SkipOracles {
		return rep, nil
	}

	emb := EmbeddingOracle(dp, opts.Model, opts.AllowPadTPG, opts.EmbeddingCap)
	rep.EmbeddingCombos = emb.Combos
	rep.EmbeddingRan = emb.Feasible
	if emb.Feasible {
		rep.EmbeddingMin = emb.MinCost
		switch {
		case plan.Exact && plan.ExtraArea != emb.MinCost:
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"embedding oracle: exact plan cost %d != exhaustive minimum %d over %d combinations",
				plan.ExtraArea, emb.MinCost, emb.Combos))
		case !plan.Exact && plan.ExtraArea < emb.MinCost:
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"embedding oracle: inexact plan cost %d beats exhaustive minimum %d (impossible cost)",
				plan.ExtraArea, emb.MinCost))
		}
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}

	if opts.Search != nil {
		vs, err := RerunMatch(ctx, dp, opts.Search, plan)
		if err != nil {
			return rep, err
		}
		rep.Violations = append(rep.Violations, vs...)
		rep.RerunRan = true
	}

	if opts.BindingLimit >= 0 && mb != nil {
		bo, err := BindingOracle(ctx, g, mb, dp, opts)
		if err != nil {
			return rep, err
		}
		if bo.Ran {
			rep.BindingRan = true
			rep.BindingRegisters = bo.Registers
			rep.BindingCount = bo.Bindings
			rep.BindingFeasible = bo.Feasible
			rep.BindingBest = bo.Best
			rep.BindingWorst = bo.Worst
			rep.BindingComplete = bo.Complete
			// The oracle enumerated every binding with the plan's own
			// register count (minimal or not), so its cost must lie in
			// the enumerated range; beating the complete optimum means
			// a broken cost computation somewhere.
			if bo.Complete && bo.Feasible > 0 {
				if plan.ExtraArea < bo.Best {
					rep.Violations = append(rep.Violations, fmt.Sprintf(
						"binding oracle: plan cost %d beats the exhaustive optimum %d over %d bindings",
						plan.ExtraArea, bo.Best, bo.Feasible))
				}
				// The upper bound only binds exact plans: the oracle costs
				// each binding with the exact search, so an inexact
				// (budget-exhausted) plan may legitimately exceed the
				// worst enumerated exact cost.
				if plan.Exact && plan.ExtraArea > bo.Worst {
					rep.Violations = append(rep.Violations, fmt.Sprintf(
						"binding oracle: plan cost %d exceeds the worst enumerated binding %d",
						plan.ExtraArea, bo.Worst))
				}
			}
		}
	}
	return rep, nil
}
