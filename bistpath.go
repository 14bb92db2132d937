// Package bistpath synthesizes register-transfer-level data paths with
// low built-in self-test (BIST) area overhead. It reproduces the data
// path allocation algorithms of Parulkar, Gupta and Breuer, "Data Path
// Allocation for Synthesizing RTL Designs with Low BIST Area Overhead"
// (DAC 1995).
//
// Given a scheduled data flow graph and a module assignment, Synthesize
// binds variables to registers maximizing the sharing of test registers
// between functional modules (sharing-degree-guided conflict-graph
// coloring) while avoiding assignments that force concurrent BILBO
// (CBILBO) registers (the paper's Lemma 2), binds the interconnect with
// testability-weighted minimum connectivity, and then derives a minimal
// area BIST solution (pattern generators, signature analyzers, BILBOs and
// CBILBOs plus a test session schedule) for the resulting data path.
package bistpath

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"bistpath/internal/area"
	"bistpath/internal/bist"
	"bistpath/internal/datapath"
	"bistpath/internal/dfg"
	"bistpath/internal/interconnect"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
	"bistpath/internal/report"
	"bistpath/internal/verify"
)

// Mode selects the register binding policy.
type Mode int

// Binding policies.
const (
	// Testable runs the paper's BIST-aware binder (the default).
	Testable Mode = iota
	// TraditionalHLS runs the area-only baseline binder the paper
	// compares against in Table I.
	TraditionalHLS
)

func (m Mode) String() string {
	if m == TraditionalHLS {
		return "traditional"
	}
	return "testable"
}

// Objective selects what the BIST search minimizes.
type Objective int

// BIST search objectives.
const (
	// MinArea minimizes register upgrade area alone — the paper's
	// objective and the default. This path is byte-identical to
	// releases without multi-objective support.
	MinArea Objective = iota
	// WeightedSum minimizes the scalar Config.Weights · {Area, TestTime,
	// PeakPower}. The winning plan always lies on the Pareto front; ties
	// break toward the lexicographically smallest cost vector.
	WeightedSum
	// ParetoFront enumerates the full non-dominated set of plans over
	// {Area, TestTime, PeakPower}. The Result is assembled from the
	// area-minimal front member (identical to the MinArea plan) and the
	// whole front is published in Result.Pareto.
	ParetoFront
)

func (o Objective) String() string {
	switch o {
	case WeightedSum:
		return "weighted"
	case ParetoFront:
		return "pareto"
	}
	return "area"
}

// ParseObjective converts the textual objective names used by the
// command-line tools ("area", "weighted", "pareto") back to an
// Objective.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "area", "":
		return MinArea, nil
	case "weighted":
		return WeightedSum, nil
	case "pareto":
		return ParetoFront, nil
	}
	return MinArea, fmt.Errorf("%w: unknown objective %q (want area, weighted or pareto)", ErrBadObjective, s)
}

// Search once selected the BIST search strategy of a MinArea run.
//
// Deprecated: nothing reads it; every MinArea run is the exact branch
// and bound. perfbench/layers.go:131–132 still names it.
type Search int

// The retired strategies, kept as names only.
const (
	// SearchAuto runs the exact search, as an unset Config.Search does.
	//
	// Deprecated: nothing reads it. perfbench/library.go:253 still sets
	// it.
	SearchAuto Search = 1 + iota
	// SearchStochastic runs the exact search, as an unset Config.Search
	// does.
	//
	// Deprecated: nothing reads it. perfbench/layers.go:131 still names
	// it.
	SearchStochastic
)

// Weights are the non-negative coefficients of the WeightedSum
// objective. The zero value is normalized to the balanced {1, 1, 1}.
type Weights struct {
	Area      int `json:"area"`
	TestTime  int `json:"test_time"`
	PeakPower int `json:"peak_power"`
}

// CostVector is the multi-objective cost of one BIST plan: register
// upgrade area (gate equivalents), test time (sessions in the
// schedule) and peak per-session active power (sum of the scheduled
// modules' power weights). All components are minimized.
type CostVector struct {
	Area      int `json:"area"`
	TestTime  int `json:"test_time"`
	PeakPower int `json:"peak_power"`
}

// Dominates reports Pareto dominance for minimization: c at least as
// good everywhere and strictly better somewhere.
func (c CostVector) Dominates(o CostVector) bool {
	return bist.CostVector(c).Dominates(bist.CostVector(o))
}

func (c CostVector) String() string { return bist.CostVector(c).String() }

// ParetoPoint is one non-dominated plan on a Pareto front, summarized
// for reporting: its cost vector, the resulting total BIST area and
// overhead, the register style mix and the test session schedule.
type ParetoPoint struct {
	Cost        CostVector     `json:"cost"`
	BISTArea    int            `json:"bist_area"`
	OverheadPct float64        `json:"overhead_pct"`
	StyleCounts map[string]int `json:"style_counts"`
	Sessions    [][]string     `json:"sessions"`
}

// Config controls a synthesis run. Use DefaultConfig and override fields.
type Config struct {
	// Width is the datapath bit width (default 8).
	Width int
	// Mode selects the register binder.
	Mode Mode
	// AllowPadTPG permits port-fed primary inputs to source test
	// patterns directly (I-paths may start at primary inputs,
	// Definition 1 of the paper).
	AllowPadTPG bool
	// MinimizeSessions breaks BIST-area ties in favor of plans with
	// fewer test sessions (shorter test time).
	MinimizeSessions bool
	// Trace records a per-variable explanation of the register binder's
	// decisions in Result.BindingTrace (testable mode only).
	Trace bool
	// The four mechanism toggles of the testable binder; all true
	// reproduces the paper, individual false values support ablations.
	Sharing              bool
	CaseOverrides        bool
	AvoidCBILBO          bool
	WeightedInterconnect bool
	// Workers is read by nothing: the BIST search runs on the
	// synthesizing goroutine. Parallelism is across designs
	// (SynthesizeAll, Pool).
	//
	// Deprecated: it no longer has any effect.
	Workers int
	// Objective selects what the BIST search minimizes: MinArea (the
	// paper's objective, the default), WeightedSum or ParetoFront. The
	// MinArea path is completely unchanged by the other objectives —
	// same search, same Result bytes, same cache keys.
	Objective Objective
	// Weights are the WeightedSum coefficients; the zero value means
	// the balanced {1, 1, 1}. Ignored by the other objectives.
	Weights Weights
	// Power overrides per-module active-power weights for the
	// multi-objective objectives; modules absent from the map default
	// to an area-proportional weight (the module's gate area under the
	// area model — see the README's power model notes). Ignored by
	// MinArea.
	Power map[string]int
	// Search is read by nothing: every MinArea run is the exact branch
	// and bound, so a config that sets it gets the unset config's Result
	// and cache key.
	//
	// Deprecated: it has no effect. perfbench/library.go:253 still sets
	// it.
	Search Search
	// Seed is read by nothing: the search is deterministic without one.
	//
	// Deprecated: it has no effect. perfbench/library.go:254 still sets
	// it.
	Seed int64
	// MaxGenerations is read by nothing: there is no genetic search.
	//
	// Deprecated: it has no effect. perfbench/layers.go:134 still reads
	// it.
	MaxGenerations int
	// Observer, when non-nil, receives structured phase and progress
	// events while the run executes (see Observer's documentation for
	// the concurrency contract). Nil costs nothing.
	Observer Observer
	// Cache, when non-nil, memoizes synthesis results keyed by the
	// canonical fingerprint of the semantic inputs (see Cache). A hit
	// returns a Result whose JSON() is byte-identical to the run that
	// populated the entry; concurrent identical runs coalesce onto one
	// synthesis. Like Observer, the field itself never affects what is
	// computed — only how fast.
	Cache *Cache
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Width:                8,
		Mode:                 Testable,
		AllowPadTPG:          true,
		Sharing:              true,
		CaseOverrides:        true,
		AvoidCBILBO:          true,
		WeightedInterconnect: true,
	}
}

// RegisterInfo describes one allocated register in a result.
type RegisterInfo struct {
	Name          string   `json:"name"`
	Vars          []string `json:"vars"`
	Style         string   `json:"style"` // "REG", "TPG", "SA", "TPG/SA", "CBILBO"
	SharingDegree int      `json:"sharing_degree"`
}

// ModuleInfo describes one functional module in a result.
type ModuleInfo struct {
	Name      string   `json:"name"`
	Class     string   `json:"class"`
	Ops       []string `json:"ops"`
	Embedding string   `json:"embedding"` // chosen BIST embedding, human readable
	// ForcedCBILBO reports whether every BIST embedding of this module
	// requires a CBILBO register (Lemma 2 ground truth on the netlist).
	ForcedCBILBO bool `json:"forced_cbilbo"`
}

// Result is a completed synthesis run.
type Result struct {
	Name      string
	Mode      Mode
	Width     int
	Registers []RegisterInfo
	Modules   []ModuleInfo

	MuxCount       int // number of multiplexers in the data path
	MuxExtraInputs int // total mux inputs beyond one per mux

	BaseArea    int     // gate equivalents before BIST insertion
	BISTArea    int     // gate equivalents after register upgrades
	OverheadPct float64 // 100*(BISTArea-BaseArea)/BaseArea

	Sessions    [][]string     // test session schedule (module names)
	StyleCounts map[string]int // non-normal styles -> register count
	// BindingTrace explains each register-binding decision (Config.Trace).
	BindingTrace []string

	// Cost is the plan's multi-objective cost vector, populated for the
	// WeightedSum and ParetoFront objectives (nil under MinArea, keeping
	// that path's Result untouched field for field).
	Cost *CostVector
	// Pareto is the non-dominated plan set of a ParetoFront run, in
	// canonical lexicographic (Area, TestTime, PeakPower) order; its
	// first member is the plan the Result itself was assembled from.
	// Nil for the other objectives.
	Pareto []ParetoPoint

	// Stats records per-phase wall times and search/binder effort
	// counters for this run. It is the one timing-dependent part of a
	// Result: ReportText never includes it, so reports stay
	// byte-identical across runs and worker counts.
	Stats Stats

	dp          *datapath.Datapath
	plan        *bist.Plan
	mb          *modassign.Binding
	cfg         Config
	paretoPlans []*bist.Plan // full plans behind Pareto, for VerifyPareto
}

// NumBISTRegisters returns how many registers were modified for test.
func (r *Result) NumBISTRegisters() int { return r.plan.NumBISTRegisters() }

// PlanExact reports whether the BIST plan is provably area-optimal: the
// exact branch and bound completed its enumeration. A search that ran
// out of node budget returns its best plan so far, never worse than the
// greedy seed, and reports false.
func (r *Result) PlanExact() bool { return r.plan.Exact }

// NumRegisters returns the total register count.
func (r *Result) NumRegisters() int { return len(r.Registers) }

// NetlistText returns the data path netlist and control program.
func (r *Result) NetlistText() string { return r.dp.Text() }

// DatapathDot returns a Graphviz rendering of the data path.
func (r *Result) DatapathDot() string {
	var sb strings.Builder
	r.dp.WriteDot(&sb)
	return sb.String()
}

// Simulate runs the bound data path on concrete inputs and returns the
// primary output values.
func (r *Result) Simulate(inputs map[string]uint64) (map[string]uint64, error) {
	return r.dp.Simulate(inputs)
}

// SelfCheck simulates the data path on `trials` random input vectors and
// verifies every primary output against direct DFG evaluation (the
// random-vector check of Verify, verify.Functional).
func (r *Result) SelfCheck(trials int, seed int64) error {
	_, err := verify.Functional(r.dp, trials, seed)
	return err
}

// StyleSummary renders the BIST resource mix in the Table II style, e.g.
// "1 CBILBO, 2 TPG, 1 SA".
func (r *Result) StyleSummary() string { return styleSummary(r.StyleCounts) }

// StyleSummary renders the point's register style mix in the Table II
// style, exactly as Result.StyleSummary does for the whole result.
func (p ParetoPoint) StyleSummary() string { return styleSummary(p.StyleCounts) }

func styleSummary(counts map[string]int) string {
	order := []string{"CBILBO", "TPG/SA", "TPG", "SA"}
	var parts []string
	for _, s := range order {
		if n := counts[s]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, s))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

// validateObjective rejects malformed multi-objective configuration:
// an unknown Objective value, negative weights (WeightedBest's
// front-restriction argument needs non-negativity) or negative power
// weights (the peak-power lower bound used for dominance pruning
// assumes session sums never fall below a single member's weight).
func validateObjective(cfg Config) error {
	if cfg.Objective < MinArea || cfg.Objective > ParetoFront {
		return fmt.Errorf("%w: unknown objective value %d", ErrBadObjective, int(cfg.Objective))
	}
	if cfg.Weights.Area < 0 || cfg.Weights.TestTime < 0 || cfg.Weights.PeakPower < 0 {
		return fmt.Errorf("%w: negative weights %+v", ErrBadObjective, cfg.Weights)
	}
	if len(cfg.Power) > 0 {
		names := make([]string, 0, len(cfg.Power))
		for n := range cfg.Power {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if cfg.Power[n] < 0 {
				return fmt.Errorf("%w: negative power weight %d for module %s", ErrBadObjective, cfg.Power[n], n)
			}
		}
	}
	return nil
}

// attachPareto publishes a ParetoFront run's plan set on the Result:
// the reporting summaries in Pareto and the full plans for
// VerifyPareto.
func attachPareto(res *Result, front []*bist.Plan) {
	res.paretoPlans = front
	res.Pareto = make([]ParetoPoint, 0, len(front))
	for _, p := range front {
		counts := make(map[string]int)
		for s, n := range p.StyleCount() {
			counts[s.String()] = n
		}
		bistArea := res.BaseArea + p.Cost.Area
		res.Pareto = append(res.Pareto, ParetoPoint{
			Cost:        CostVector(p.Cost),
			BISTArea:    bistArea,
			OverheadPct: area.Overhead(res.BaseArea, bistArea),
			StyleCounts: counts,
			Sessions:    sortSessions(p.Sessions),
		})
	}
}

// normalized returns cfg with its documented defaults applied: width 8
// and, under WeightedSum, the balanced weights in place of the zero
// vector. The front doors (Synthesizer.synthesizeDFG, NewSessionConfig)
// apply it once, so the cache key, the pipeline and a session's pinned
// config all see the same values.
func (cfg Config) normalized() Config {
	if cfg.Width == 0 {
		cfg.Width = 8
	}
	if cfg.Objective == WeightedSum && cfg.Weights == (Weights{}) {
		cfg.Weights = Weights{Area: 1, TestTime: 1, PeakPower: 1}
	}
	return cfg
}

// reusablePlan reports whether a run's plan is a deterministic pure
// function of its data-path structure and Config, so a later run over
// the same inputs may take it instead of searching (a result-cache
// entry, a session splice). Pareto runs are excluded: an entry holds a
// single plan, not a plan set.
func reusablePlan(cfg Config) bool {
	return cfg.Objective != ParetoFront
}

// artifacts are what a later pipeline run over the same design may
// splice in place of its BIST search: a Session's previous Result, or a
// result-cache disk entry. The plan is spliced iff the structure matches
// — the rebuilt data path has dp's structure (sameStructure), or dp is
// nil for a disk entry, whose cache key vouches for the structure — and
// the plan passes bist.Plan.Revalidate against the rebuilt data path.
type artifacts struct {
	plan *bist.Plan
	dp   *datapath.Datapath
}

// sameStructure reports whether two data paths agree on everything the
// BIST search space is a pure function of: per module (in Modules
// order) the name, kinds, left/right port sources, destinations and the
// diagonal flag, and per register the name and sources. The schedule
// (Steps) is deliberately not compared — embeddings do not depend on
// it, which is exactly why a conflict-preserving reschedule can splice
// the previous plan. Config inputs of the search (width, AllowPadTPG,
// MinimizeSessions, ...) are not compared either: the Session pins its
// Config at creation, so they cannot drift between the runs compared.
func sameStructure(a, b *datapath.Datapath) bool {
	if len(a.Modules) != len(b.Modules) || len(a.Regs) != len(b.Regs) {
		return false
	}
	for i, m := range a.Modules {
		n := b.Modules[i]
		if m.Name != n.Name || !slices.Equal(m.Kinds, n.Kinds) ||
			!slices.Equal(m.Left, n.Left) || !slices.Equal(m.Right, n.Right) ||
			!slices.Equal(m.Dests, n.Dests) || a.ModuleDiagonal(m.Name) != b.ModuleDiagonal(n.Name) {
			return false
		}
	}
	for i, r := range a.Regs {
		if r.Name != b.Regs[i].Name || !slices.Equal(r.Sources, b.Regs[i].Sources) {
			return false
		}
	}
	return true
}

// synthesizePipeline runs the synthesis pipeline on a normalized cfg.
// The context is polled at phase boundaries and inside the BIST branch
// and bound, so a cancelled run returns ctx.Err() promptly. Each phase
// is timed into Result.Stats and reported to cfg.Observer, reused or
// not; non-context failures come back as *SynthesisError attributed to
// the phase that produced them. A nil sc simply allocates fresh state
// (the Results are identical either way). mb comes from
// DFG.moduleBinding on g's schedule, which has already rejected an
// unscheduled op.
//
// prior, when non-nil, offers the plan of an earlier run. Every phase up
// to the data path runs; the BIST search then splices the prior plan on
// a structural match once it revalidates, and searches otherwise. Reuse
// never changes the Result's content — only Stats.ReusedPhases and the
// effort counters, which record the work this pass actually did, betray
// it.
func synthesizePipeline(ctx context.Context, g *dfg.Graph, mb *modassign.Binding, cfg Config,
	sc *synthScratch, prior *artifacts) (res *Result, retErr error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer func() {
		if retErr != nil {
			expSynthErrs.Add(1)
		}
	}()

	var st Stats
	t0 := time.Now()
	obs := cfg.Observer
	// phase runs one pipeline stage with timing and observer events; it
	// wraps errors with phase attribution (context errors pass through).
	phase := func(p Phase, elapsed *time.Duration, f func() error) error {
		if obs != nil {
			obs(Event{Design: g.Name, Kind: PhaseStart, Phase: p})
		}
		start := time.Now()
		err := f()
		*elapsed = time.Since(start)
		if obs != nil {
			obs(Event{Design: g.Name, Kind: PhaseEnd, Phase: p, Elapsed: *elapsed})
		}
		return phaseError(g.Name, p, err)
	}

	if err := phase(PhaseValidate, &st.Validate, func() error {
		if err := validateObjective(cfg); err != nil {
			return err
		}
		if err := g.Validate(); err != nil {
			return err
		}
		return mb.Validate(g)
	}); err != nil {
		return nil, err
	}

	var rb *regassign.Binding
	var trace []regassign.Decision
	var rm regassign.Metrics
	if err := phase(PhaseRegisterBind, &st.RegisterBind, func() error {
		ropts := regassign.Options{
			SharingDegree:    cfg.Sharing,
			CaseOverrides:    cfg.CaseOverrides,
			AvoidCBILBO:      cfg.AvoidCBILBO,
			InterconnectTies: cfg.WeightedInterconnect,
			Metrics:          &rm,
		}
		if sc != nil {
			ropts.Scratch = sc.bind
		}
		var err error
		switch {
		case cfg.Mode == TraditionalHLS:
			rb, err = regassign.Traditional(g)
		case cfg.Trace:
			rb, trace, err = regassign.BindTraced(g, mb, ropts)
		default:
			rb, err = regassign.Bind(g, mb, ropts)
		}
		return err
	}); err != nil {
		return nil, err
	}
	st.Lemma2Checks = rm.Lemma2Checks
	st.CaseOverrides = rm.CaseOverrides

	// The binder built the sharing index in its scratch; traditional mode
	// and a run without scratch build it here. It is only read during
	// the run, never kept on the Result.
	var sh *regassign.Sharing
	if cfg.Mode != TraditionalHLS && sc != nil {
		sh = sc.bind.Sharing()
	} else {
		sh = regassign.NewSharing(g, mb)
	}
	var shw *regassign.Sharing
	if cfg.WeightedInterconnect {
		shw = sh
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var ib *interconnect.Binding
	if err := phase(PhaseInterconnect, &st.Interconnect, func() error {
		var err error
		ib, err = interconnect.Bind(g, mb, rb, shw)
		return err
	}); err != nil {
		return nil, err
	}

	var dp *datapath.Datapath
	if err := phase(PhaseDatapath, &st.Datapath, func() error {
		var err error
		dp, err = datapath.Build(g, mb, rb, ib, cfg.Width)
		return err
	}); err != nil {
		return nil, err
	}

	var plan *bist.Plan
	var front []*bist.Plan
	var bm bist.Metrics
	if err := phase(PhaseBISTSearch, &st.BISTSearch, func() error {
		// Splice: a reusable plan is a pure function of the data-path
		// structure, so under a structural match the prior plan IS the
		// search result — once rebuilt from its embeddings and
		// revalidated against the fresh data path.
		if prior != nil && reusablePlan(cfg) && (prior.dp == nil || sameStructure(prior.dp, dp)) {
			p := bist.PlanFromEmbeddings(area.Default(cfg.Width), prior.plan.Embeddings, prior.plan.Exact)
			if p.Revalidate(dp, cfg.AllowPadTPG) == nil {
				plan = p
				st.ReusedPhases = append(st.ReusedPhases, PhaseBISTSearch.String())
				return nil
			}
		}
		st.SearchWorkers = 1 // the search runs on this goroutine
		bopts := bist.Options{
			Model:            area.Default(cfg.Width),
			AllowPadHeads:    cfg.AllowPadTPG,
			MinimizeSessions: cfg.MinimizeSessions,
			Metrics:          &bm,
			Power:            cfg.Power,
		}
		if sc != nil {
			bopts.Scratch = sc.bist
		}
		if obs != nil {
			bopts.Progress = func(nodes int64) {
				obs(Event{Design: g.Name, Kind: SearchProgress, Phase: PhaseBISTSearch, SearchNodes: nodes})
			}
		}
		if cfg.Objective == MinArea {
			var err error
			plan, err = bist.OptimizeCtx(ctx, dp, bopts)
			return err
		}
		// Multi-objective: enumerate the non-dominated plan set once;
		// the weighted optimum is always on it, so both objectives
		// share the enumeration.
		fr, err := bist.OptimizePareto(ctx, dp, bopts)
		if err != nil {
			return err
		}
		if cfg.Objective == WeightedSum {
			plan = bist.WeightedBest(fr, cfg.Weights.Area, cfg.Weights.TestTime, cfg.Weights.PeakPower)
		} else {
			plan = fr[0]
			front = fr
		}
		return nil
	}); err != nil {
		return nil, err
	}
	st.SearchNodes = bm.Nodes
	st.BoundPrunes = bm.BoundPrunes
	st.IncumbentUpdates = bm.Incumbents
	st.EmbeddingsEnumerated = bm.Embeddings

	res, err := assemble(g, mb, rb, dp, plan, sh, cfg)
	if err != nil {
		return nil, err
	}
	if front != nil {
		attachPareto(res, front)
	}
	for _, d := range trace {
		res.BindingTrace = append(res.BindingTrace, d.Note)
	}
	st.Total = time.Since(t0)
	res.Stats = st
	recordRun(&st)
	return res, nil
}

// assemble builds the public Result from the completed allocation.
func assemble(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding,
	dp *datapath.Datapath, plan *bist.Plan, sh *regassign.Sharing, cfg Config) (*Result, error) {

	model := area.Default(cfg.Width)
	res := &Result{
		Name:        g.Name,
		Mode:        cfg.Mode,
		Width:       cfg.Width,
		Registers:   make([]RegisterInfo, 0, len(rb.Registers)),
		Modules:     make([]ModuleInfo, 0, len(mb.Modules)),
		StyleCounts: make(map[string]int),
		dp:          dp,
		plan:        plan,
		mb:          mb,
		cfg:         cfg,
	}
	for _, r := range rb.Registers {
		style := area.Normal
		if s, ok := plan.Styles[r.Name]; ok {
			style = s
		}
		res.Registers = append(res.Registers, RegisterInfo{
			Name:          r.Name,
			Vars:          append([]string(nil), r.Vars...),
			Style:         style.String(),
			SharingDegree: sh.SDReg(r.Vars),
		})
	}
	for _, m := range mb.Modules {
		res.Modules = append(res.Modules, ModuleInfo{
			Name:         m.Name,
			Class:        m.Class.Name,
			Ops:          append([]string(nil), m.Ops...),
			Embedding:    plan.Embeddings[m.Name].String(),
			ForcedCBILBO: bist.ForcedCBILBOByEnumeration(dp, m.Name, cfg.AllowPadTPG),
		})
	}
	res.MuxCount, res.MuxExtraInputs = dp.MuxStats()

	base := 0
	for _, m := range dp.Modules {
		base += model.ModuleArea(m.Kinds)
	}
	base += len(dp.Regs) * model.RegisterArea(area.Normal)
	for _, m := range dp.Modules {
		base += model.MuxArea(len(m.Left)) + model.MuxArea(len(m.Right))
	}
	for _, r := range dp.Regs {
		base += model.MuxArea(len(r.Sources))
	}
	res.BaseArea = base
	res.BISTArea = base + plan.ExtraArea
	res.OverheadPct = area.Overhead(base, res.BISTArea)

	for _, s := range plan.Styles {
		if s != area.Normal {
			res.StyleCounts[s.String()]++
		}
	}
	res.Sessions = sortSessions(plan.Sessions)
	if cfg.Objective != MinArea {
		// The cost vector is derived from the plan, not the search, so
		// cache replays of weighted runs reproduce it exactly.
		pc := bist.PlanCost(plan, bist.PowerWeights(model, dp, cfg.Power))
		cv := CostVector(pc)
		res.Cost = &cv
	}
	return res, nil
}

// sortSessions deep-copies a session schedule and orders it canonically
// by first module name. The copy matters: the input aliases the
// optimizer's Plan, which the Result keeps for later queries and must
// not be mutated. Empty sessions (possible for module-free plans) sort
// first instead of panicking.
func sortSessions(sessions [][]string) [][]string {
	out := make([][]string, len(sessions))
	for i, s := range sessions {
		out[i] = append([]string(nil), s...)
	}
	slices.SortFunc(out, func(a, b []string) int {
		if len(a) == 0 || len(b) == 0 {
			return cmp.Compare(len(a), len(b)) // empty sessions first
		}
		return strings.Compare(a[0], b[0])
	})
	return out
}

// TestCycles estimates the BIST test time in clock cycles for the given
// per-mode pattern budget: one seed scan-in of the register chain per
// session plus one clock per pattern per module operation mode.
func (r *Result) TestCycles(patterns int) int {
	modes := 0
	for _, m := range r.dp.Modules {
		modes += len(m.Kinds)
	}
	seedIn := len(r.dp.Regs) * r.Width
	return len(r.plan.Sessions)*seedIn + modes*patterns
}

// OccupancyChart renders an ASCII chart of register occupancy and module
// activity per control step (which variable each register holds, which
// operation each module executes).
func (r *Result) OccupancyChart() (string, error) {
	return report.Gantt(r.dp)
}

// ReportText renders the full synthesis result as a deterministic
// plain-text report: same Result, same bytes. It is the canonical form
// for regression comparisons (the determinism tests assert that repeated
// and batched runs produce byte-identical reports) and the cmd tools'
// display format.
func (r *Result) ReportText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "design %s (%s mode, width %d)\n", r.Name, r.Mode, r.Width)
	fmt.Fprintf(&sb, "  registers: %d   muxes: %d (+%d inputs)   base area: %d   BIST area: %d   overhead: %.2f%%\n",
		r.NumRegisters(), r.MuxCount, r.MuxExtraInputs, r.BaseArea, r.BISTArea, r.OverheadPct)
	fmt.Fprintf(&sb, "  BIST resources: %s\n", r.StyleSummary())
	for _, reg := range r.Registers {
		fmt.Fprintf(&sb, "    %-4s %-7s SD=%d  {%s}\n", reg.Name, reg.Style, reg.SharingDegree, strings.Join(reg.Vars, ","))
	}
	for _, m := range r.Modules {
		forced := ""
		if m.ForcedCBILBO {
			forced = "  [forced CBILBO]"
		}
		fmt.Fprintf(&sb, "    %-4s %-4s ops={%s}  %s%s\n", m.Name, m.Class, strings.Join(m.Ops, ","), m.Embedding, forced)
	}
	fmt.Fprintf(&sb, "  test sessions: %d\n", len(r.Sessions))
	for i, s := range r.Sessions {
		fmt.Fprintf(&sb, "    session %d: %s\n", i+1, strings.Join(s, ", "))
	}
	// Multi-objective runs append their cost vector and, for ParetoFront,
	// the trade-off table. MinArea results never reach these lines, so
	// their reports stay byte-identical to earlier releases.
	if r.Cost != nil {
		fmt.Fprintf(&sb, "  objective: %s", r.cfg.Objective)
		if r.cfg.Objective == WeightedSum {
			w := r.cfg.Weights
			fmt.Fprintf(&sb, " (area=%d time=%d power=%d)", w.Area, w.TestTime, w.PeakPower)
		}
		fmt.Fprintf(&sb, "   cost: %s\n", r.Cost)
		if len(r.Pareto) > 0 {
			fmt.Fprintf(&sb, "  pareto front: %d non-dominated plans\n", len(r.Pareto))
			for _, pt := range r.Pareto {
				fmt.Fprintf(&sb, "    %-36s overhead=%6.2f%%  %s\n", pt.Cost, pt.OverheadPct, pt.StyleSummary())
			}
		}
	}
	return sb.String()
}
