package bistpath

import (
	"context"
	"fmt"
	"strings"

	"bistpath/internal/area"
	"bistpath/internal/benchdata"
	"bistpath/internal/bist"
	"bistpath/internal/datapath"
	"bistpath/internal/verify"
)

// VerifyOptions configures Result.Verify. The zero value selects the
// defaults noted on each field.
type VerifyOptions struct {
	// Vectors is the number of random input vectors simulated against
	// direct DFG evaluation (default 100; negative disables).
	Vectors int
	// Seed seeds the vector generator; the stream is a pure function of
	// it, so failures replay exactly (default 1).
	Seed int64
	// EmbeddingCap bounds the exhaustive embedding oracle; above it the
	// oracle is skipped (default 4<<20 combinations).
	EmbeddingCap int64
	// BindingLimit bounds the exhaustive register-binding oracle
	// (default 20000 bindings; negative disables it).
	BindingLimit int
	// SkipOracles runs only the invariants and the functional
	// cross-check — the fast path for large sweeps.
	SkipOracles bool
}

// VerifyReport is the outcome of one verification run; see the field
// comments on the internal verify.Report for the exact semantics.
// Violations is empty iff every executed check passed.
type VerifyReport struct {
	Design     string   `json:"design"`
	Violations []string `json:"violations"`
	Vectors    int      `json:"vectors"`

	PlanCost        int   `json:"plan_cost"`
	PlanExact       bool  `json:"plan_exact"`
	EmbeddingCombos int64 `json:"embedding_combos"`
	EmbeddingMin    int   `json:"embedding_min"`
	EmbeddingRan    bool  `json:"embedding_oracle_ran"`

	RerunRan bool `json:"rerun_oracle_ran"`

	BindingRan      bool `json:"binding_oracle_ran"`
	BindingCount    int  `json:"binding_count"`
	BindingFeasible int  `json:"binding_feasible"`
	BindingBest     int  `json:"binding_best"`
	BindingWorst    int  `json:"binding_worst"`
	BindingComplete bool `json:"binding_complete"`

	inner *verify.Report
}

// OK reports whether every executed check passed.
func (r *VerifyReport) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the report is clean, or an error summarizing
// the violations.
func (r *VerifyReport) Err() error { return r.inner.Err() }

// Summary renders the report as an indented human-readable block.
func (r *VerifyReport) Summary() string { return r.inner.Summary() }

// Verify runs the differential verification harness against this
// result: structural plan invariants, a functional cross-check of the
// synthesized data path against direct DFG evaluation, and — unless
// opts.SkipOracles is set — brute-force oracles (exhaustive embedding
// enumeration, a re-run of the search that must reproduce the plan,
// exhaustive minimum-register binding sweep). The returned error reports infrastructure failures
// only (context cancellation); verification failures are collected in
// VerifyReport.Violations.
//
// The harness re-derives every property independently of the synthesis
// pipeline, so a clean report is evidence the heuristics behaved, not
// an echo of their own bookkeeping.
func (r *Result) Verify(ctx context.Context, opts VerifyOptions) (*VerifyReport, error) {
	vo := verify.Options{
		Model:            area.Default(r.Width),
		AllowPadTPG:      r.cfg.AllowPadTPG,
		MinimizeSessions: r.cfg.MinimizeSessions,
		Vectors:          opts.Vectors,
		Seed:             opts.Seed,
		EmbeddingCap:     opts.EmbeddingCap,
		BindingLimit:     opts.BindingLimit,
		SkipOracles:      opts.SkipOracles,
	}
	if vo.Seed == 0 {
		vo.Seed = 1
	}
	// The re-run oracle repeats the search that produced the plan.
	bo := bist.Options{Model: vo.Model, AllowPadHeads: r.cfg.AllowPadTPG, MinimizeSessions: r.cfg.MinimizeSessions}
	vo.Search = func(ctx context.Context, dp *datapath.Datapath) (*bist.Plan, error) {
		return bist.OptimizeCtx(ctx, dp, bo)
	}
	rep, err := verify.Run(ctx, r.dp.Graph(), r.mb, r.dp, r.plan, vo)
	if rep == nil {
		return nil, err
	}
	out := &VerifyReport{
		Design:          rep.Design,
		Violations:      rep.Violations,
		Vectors:         rep.Vectors,
		PlanCost:        rep.PlanCost,
		PlanExact:       rep.PlanExact,
		EmbeddingCombos: rep.EmbeddingCombos,
		EmbeddingMin:    rep.EmbeddingMin,
		EmbeddingRan:    rep.EmbeddingRan,
		RerunRan:        rep.RerunRan,
		BindingRan:      rep.BindingRan,
		BindingCount:    rep.BindingCount,
		BindingFeasible: rep.BindingFeasible,
		BindingBest:     rep.BindingBest,
		BindingWorst:    rep.BindingWorst,
		BindingComplete: rep.BindingComplete,
		inner:           rep,
	}
	return out, err
}

// ParetoVerifyReport is the outcome of Result.VerifyPareto. Violations
// is empty iff every executed check passed.
type ParetoVerifyReport struct {
	Design     string   `json:"design"`
	Violations []string `json:"violations"`
	FrontSize  int      `json:"front_size"`

	// OracleRan reports whether the exhaustive enumeration ran; when it
	// did, OracleCombos is the combination count it walked and
	// OracleFront the size of the ground-truth non-dominated set.
	OracleRan    bool  `json:"oracle_ran"`
	OracleCombos int64 `json:"oracle_combos"`
	OracleFront  int   `json:"oracle_front"`
}

// OK reports whether every executed check passed.
func (r *ParetoVerifyReport) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the report is clean, or an error summarizing the
// violations.
func (r *ParetoVerifyReport) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("bistpath: pareto verification of %s found %d violations:\n  %s",
		r.Design, len(r.Violations), strings.Join(r.Violations, "\n  "))
}

// VerifyPareto runs the multi-objective verification harness against a
// ParetoFront result: every front member must pass the full structural
// invariants and carry the cost vector the harness independently
// recomputes (styles from raw duties, a re-implemented session
// scheduler, peak power from the weight map), the front must be mutually
// non-dominated in canonical order — and, when the embedding space fits
// under opts.EmbeddingCap and every member is Exact, an exhaustive
// enumeration must reproduce the front's vector set exactly.
//
// Results without a front (any other objective, or a cache-served copy)
// fail with ErrNoPareto; other errors report infrastructure failures
// (context cancellation). Verification failures are collected in
// ParetoVerifyReport.Violations.
func (r *Result) VerifyPareto(ctx context.Context, opts VerifyOptions) (*ParetoVerifyReport, error) {
	if len(r.paretoPlans) == 0 {
		return nil, fmt.Errorf("%w (objective %s)", ErrNoPareto, r.cfg.Objective)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	model := area.Default(r.Width)
	power := bist.PowerWeights(model, r.dp, r.cfg.Power)
	rep := &ParetoVerifyReport{Design: r.Name, FrontSize: len(r.paretoPlans)}
	rep.Violations = verify.CheckFront(r.dp.Graph(), r.mb, r.dp, r.paretoPlans, power, model, r.cfg.AllowPadTPG)

	// The published Pareto points must mirror the underlying plans.
	if len(r.Pareto) != len(r.paretoPlans) {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("pareto: result publishes %d points for %d plans", len(r.Pareto), len(r.paretoPlans)))
	} else {
		for i, pt := range r.Pareto {
			if bist.CostVector(pt.Cost) != r.paretoPlans[i].Cost {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("pareto: point %d publishes %v, plan has %v", i, pt.Cost, r.paretoPlans[i].Cost))
			}
		}
	}

	exact := true
	for _, p := range r.paretoPlans {
		if !p.Exact {
			exact = false
			break
		}
	}
	comboCap := opts.EmbeddingCap
	if comboCap == 0 {
		comboCap = 1 << 16 // each oracle leaf schedules sessions, so the default cap is tighter than Verify's
	}
	if exact && comboCap > 0 {
		oracle, err := verify.ParetoOracle(ctx, r.dp, model, power, r.cfg.AllowPadTPG, comboCap)
		if err != nil {
			return nil, err
		}
		if oracle.Feasible {
			rep.OracleRan = true
			rep.OracleCombos = oracle.Combos
			rep.OracleFront = len(oracle.Front)
			rep.Violations = append(rep.Violations, verify.CheckFrontAgainstOracle(r.paretoPlans, oracle)...)
		}
	}
	return rep, ctx.Err()
}

// RandomDesign generates a deterministic random scheduled DFG and
// module assignment for conformance sweeps. The seed fully determines
// the design shape (steps, parallelism, operator mix) via
// benchdata.SweepConfig, so sweeps are reproducible by seed range
// alone. The second return value is the op→module map accepted by
// SynthesizeCtx.
func RandomDesign(seed int64) (*DFG, map[string]string, error) {
	g, mb, err := benchdata.RandomWithModules(benchdata.SweepConfig(seed))
	if err != nil {
		return nil, nil, err
	}
	mods := make(map[string]string)
	for _, m := range mb.Modules {
		for _, op := range m.Ops {
			mods[op] = m.Name
		}
	}
	return &DFG{g: g}, mods, nil
}
