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
	"context"
	"fmt"
	"math/rand"
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

// Search selects the BIST search strategy for the MinArea objective.
type Search int

// BIST search strategies.
const (
	// SearchExact always runs the exhaustive branch and bound — the
	// default, and the paper's algorithm. Past the node budget it
	// degrades to the greedy heuristic (Result.PlanExact reports which);
	// it never consults the stochastic fields of Config.
	SearchExact Search = iota
	// SearchAuto picks per design: exact when the embedding search space
	// fits under the exact-feasibility threshold (2^bist.AutoExactBits
	// combinations), stochastic otherwise. All five paper benchmarks
	// resolve to exact.
	SearchAuto
	// SearchStochastic always runs the seeded stochastic search: a
	// node-budgeted exact probe, then a genetic search over embedding
	// assignments with a simulated-annealing polish. Deterministic for a
	// fixed (DFG, Config, Seed), as long as Config.TimeBudget does not
	// truncate the run. MinArea only.
	SearchStochastic
)

func (s Search) String() string {
	switch s {
	case SearchAuto:
		return "auto"
	case SearchStochastic:
		return "stochastic"
	}
	return "exact"
}

// ParseSearch converts the textual strategy names used by the
// command-line tools ("exact", "auto", "stochastic") back to a Search.
func ParseSearch(s string) (Search, error) {
	switch s {
	case "exact", "":
		return SearchExact, nil
	case "auto":
		return SearchAuto, nil
	case "stochastic":
		return SearchStochastic, nil
	}
	return SearchExact, fmt.Errorf("%w: unknown search %q (want exact, auto or stochastic)", ErrBadSearch, s)
}

// Weights are the non-negative coefficients of the WeightedSum
// objective. The zero value is normalized to the balanced {1, 1, 1}.
type Weights struct {
	Area      int
	TestTime  int
	PeakPower int
}

// CostVector is the multi-objective cost of one BIST plan: register
// upgrade area (gate equivalents), test time (sessions in the
// schedule) and peak per-session active power (sum of the scheduled
// modules' power weights). All components are minimized.
type CostVector struct {
	Area      int
	TestTime  int
	PeakPower int
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
	Cost        CostVector
	BISTArea    int
	OverheadPct float64
	StyleCounts map[string]int
	Sessions    [][]string
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
	// Search selects the BIST search strategy under the MinArea
	// objective: SearchExact (the default — byte-identical behavior to
	// releases without stochastic search), SearchAuto or
	// SearchStochastic. The multi-objective objectives always enumerate
	// exhaustively; combining them with SearchStochastic is rejected in
	// the validate phase.
	Search Search
	// Seed seeds the stochastic search's random source (0 = seed 1).
	// Identical (DFG, Config, Seed) yields an identical Result. Ignored
	// by SearchExact.
	Seed int64
	// TimeBudget caps the stochastic search's wall time (0 = none).
	// Where a wall-clock budget truncates the run is timing-dependent,
	// so budget-limited stochastic runs are not reproducible across
	// machines and bypass Config.Cache. Ignored by SearchExact.
	TimeBudget time.Duration
	// MaxGenerations caps the stochastic search's genetic generations
	// (0 = the search's default). Ignored by SearchExact.
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
	Name          string
	Vars          []string
	Style         string // "REG", "TPG", "SA", "TPG/SA", "CBILBO"
	SharingDegree int
}

// ModuleInfo describes one functional module in a result.
type ModuleInfo struct {
	Name      string
	Class     string
	Ops       []string
	Embedding string // chosen BIST embedding, human readable
	// ForcedCBILBO reports whether every BIST embedding of this module
	// requires a CBILBO register (Lemma 2 ground truth on the netlist).
	ForcedCBILBO bool
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
// exact branch and bound (or the stochastic search's exact probe)
// completed its enumeration. Stochastic plans past the probe, and exact
// runs that fell back to the greedy heuristic beyond the node budget,
// report false.
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
// verifies every primary output against direct DFG evaluation.
func (r *Result) SelfCheck(trials int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	g := r.dp.Graph()
	for i := 0; i < trials; i++ {
		in := make(map[string]uint64)
		for _, name := range g.Inputs() {
			in[name] = uint64(rng.Int63())
		}
		if err := r.dp.CheckAgainstDFG(in); err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
	}
	return nil
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

// validateSearch rejects malformed search configuration: an unknown
// Config.Search value, a stochastic search paired with a multi-objective
// objective (the Pareto enumeration is inherently exhaustive), or
// negative budgets.
func validateSearch(cfg Config) error {
	if cfg.Search < SearchExact || cfg.Search > SearchStochastic {
		return fmt.Errorf("%w: unknown search value %d", ErrBadSearch, int(cfg.Search))
	}
	if cfg.Search == SearchStochastic && cfg.Objective != MinArea {
		return fmt.Errorf("%w: stochastic search supports the area objective only (objective %s)", ErrBadSearch, cfg.Objective)
	}
	if cfg.TimeBudget < 0 {
		return fmt.Errorf("%w: negative time budget %v", ErrBadSearch, cfg.TimeBudget)
	}
	if cfg.MaxGenerations < 0 {
		return fmt.Errorf("%w: negative generation cap %d", ErrBadSearch, cfg.MaxGenerations)
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
// entry, a session splice). Pareto runs are excluded — an entry holds a
// single plan, not a plan set — and so are budget-truncated stochastic
// runs: where the wall clock cuts the search off is not reproducible,
// so memoizing one arbitrary outcome would be a lie.
func reusablePlan(cfg Config) bool {
	return cfg.Objective != ParetoFront &&
		(cfg.Search == SearchExact || cfg.TimeBudget == 0)
}

// artifacts are the reusable products of one pipeline run, offered as the
// prior of a later run over the same design: a Session's previous
// Resynthesize, or a result-cache disk entry (a plan only). The pipeline
// trusts none of it blindly; each phase revalidates its part against the
// live inputs or recomputes.
type artifacts struct {
	// Register bind: reused iff bindFP equals the binder fingerprint of
	// the live inputs. rb is nil for a disk entry.
	bindFP [32]byte
	rb     *regassign.Binding
	trace  []regassign.Decision

	// The interconnect binding, for the Session's reschedule fast path
	// (conflict-preserving step edits rebuild only the control program
	// around the previous netlist; see Session.Resynthesize).
	ib *interconnect.Binding

	// BIST search: the plan is spliced in place of the search iff the
	// structure matches — dpFP equals the rebuilt data path's
	// fingerprint, or keyed marks a disk entry found under the live
	// inputs' cache key — and it passes bist.Plan.Revalidate. forced
	// holds the forced-CBILBO classifications, a pure function of the
	// same structure.
	dpFP           string
	keyed          bool
	plan           *bist.Plan
	searchStrategy string
	forced         map[string]bool
}

// dpStructuralFP digests the data-path structure the BIST search space
// is a pure function of: per module (in dp.Modules order) the name,
// kinds, left/right port sources, destinations and the diagonal flag.
// The schedule (dp.Steps) is deliberately absent — embeddings do not
// depend on it, which is exactly why a conflict-preserving reschedule
// can splice the previous plan. Config inputs of the search (width,
// AllowPadTPG, MinimizeSessions, Seed, ...) are not folded in either:
// the Session pins its Config at creation, so they cannot drift between
// the runs being compared.
func dpStructuralFP(dp *datapath.Datapath) string {
	var sb strings.Builder
	for _, m := range dp.Modules {
		fmt.Fprintf(&sb, "%s %v L%v R%v D%v diag%t\n",
			m.Name, m.Kinds, m.Left, m.Right, m.Dests, dp.ModuleDiagonal(m.Name))
	}
	fmt.Fprintf(&sb, "regs %d\n", len(dp.Regs))
	for _, r := range dp.Regs {
		fmt.Fprintf(&sb, "reg %s S%v\n", r.Name, r.Sources)
	}
	return sb.String()
}

// synthesizePipeline runs the synthesis pipeline on a normalized cfg.
// The context is polled at phase boundaries and inside the BIST branch
// and bound, so a cancelled run returns ctx.Err() promptly. Each phase
// is timed into Result.Stats and reported to cfg.Observer, reused or
// not; non-context failures come back as *SynthesisError attributed to
// the phase that produced them. A nil sc simply allocates fresh state
// (the Results are identical either way).
//
// prior, when non-nil, offers the artifacts of an earlier run, and each
// phase applies one revalidate-or-recompute step to its part: the
// register binding is reused on a binder-fingerprint match; the plan is
// spliced on a structural match once it revalidates, and otherwise
// warm-starts the MinArea search as its incumbent bound. Reuse never
// changes the Result's content — only Stats.ReusedPhases and the effort
// counters, which record the work this pass actually did, betray it.
// capture asks for this run's artifacts (a Session's next prior); cold
// runs leave it false and compute no fingerprints.
func synthesizePipeline(ctx context.Context, g *dfg.Graph, mb *modassign.Binding, cfg Config,
	sc *synthScratch, prior *artifacts, capture bool) (res *Result, art *artifacts, retErr error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
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
		if err := validateSearch(cfg); err != nil {
			return err
		}
		if err := g.Validate(); err != nil {
			return err
		}
		for _, o := range g.Ops() {
			if o.Step == 0 {
				return fmt.Errorf("%w: op %q", ErrUnscheduled, o.Name)
			}
		}
		return mb.Validate(g)
	}); err != nil {
		return nil, nil, err
	}

	var rb *regassign.Binding
	var trace []regassign.Decision
	var rm regassign.Metrics
	var bindFP [32]byte
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
		// A binder-fingerprint match with the prior run proves the binder
		// would make the identical decisions, so its binding and decision
		// trace are reused. (This also covers TraditionalHLS: its chordal
		// coloring depends only on the conflict rows the fingerprint
		// digests.)
		if capture || (prior != nil && prior.rb != nil) {
			fp, err := regassign.Fingerprint(g, mb, ropts)
			if err != nil {
				return err
			}
			bindFP = fp
			if prior != nil && prior.rb != nil && fp == prior.bindFP {
				rb, trace = prior.rb, prior.trace
				st.ReusedPhases = append(st.ReusedPhases, PhaseRegisterBind.String())
				return nil
			}
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
		return nil, nil, err
	}
	st.Lemma2Checks = rm.Lemma2Checks
	st.CaseOverrides = rm.CaseOverrides

	sh := regassign.NewSharing(g, mb)
	var shw *regassign.Sharing
	if cfg.WeightedInterconnect {
		shw = sh
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var ib *interconnect.Binding
	if err := phase(PhaseInterconnect, &st.Interconnect, func() error {
		var err error
		ib, err = interconnect.Bind(g, mb, rb, shw)
		return err
	}); err != nil {
		return nil, nil, err
	}

	var dp *datapath.Datapath
	if err := phase(PhaseDatapath, &st.Datapath, func() error {
		var err error
		dp, err = datapath.Build(g, mb, rb, ib, cfg.Width)
		return err
	}); err != nil {
		return nil, nil, err
	}

	var plan *bist.Plan
	var front []*bist.Plan
	var bm bist.Metrics
	var dpFP string
	if capture || (prior != nil && prior.dpFP != "") {
		dpFP = dpStructuralFP(dp)
	}
	sameStructure := prior != nil && (prior.keyed || (prior.dpFP != "" && dpFP == prior.dpFP))
	if err := phase(PhaseBISTSearch, &st.BISTSearch, func() error {
		// Splice: a reusable plan is a pure function of the data-path
		// structure, so under a structural match the prior plan IS the
		// search result — once rebuilt from its embeddings and
		// revalidated against the fresh data path.
		if sameStructure && prior.plan != nil && reusablePlan(cfg) {
			p := bist.PlanFromEmbeddings(area.Default(cfg.Width), prior.plan.Embeddings, prior.plan.Exact)
			if p.Revalidate(dp, cfg.AllowPadTPG) == nil {
				plan = p
				st.SearchStrategy = prior.searchStrategy
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
		if prior != nil && prior.plan != nil && cfg.Objective == MinArea {
			// Warm start: a full search is due, but the prior plan, if it
			// still revalidates, seeds the exact branch and bound's
			// incumbent bound (the optimizer ignores it otherwise). The
			// plan returned is provably the one a cold search finds; only
			// the effort counters shrink.
			bopts.Incumbent = prior.plan
		}
		if cfg.Objective == MinArea {
			strategy := cfg.Search
			if strategy == SearchAuto {
				if bist.ExactFeasible(dp, cfg.AllowPadTPG) {
					strategy = SearchExact
				} else {
					strategy = SearchStochastic
				}
			}
			var err error
			if strategy == SearchStochastic {
				bopts.Seed = cfg.Seed
				bopts.TimeBudget = cfg.TimeBudget
				bopts.MaxGenerations = cfg.MaxGenerations
				st.SearchStrategy = "stochastic"
				plan, err = bist.OptimizeStochasticCtx(ctx, dp, bopts)
				return err
			}
			if cfg.Search != SearchExact {
				// Auto resolved to exact: record the resolution. A plain
				// SearchExact config leaves the field empty so existing
				// Results stay byte-identical.
				st.SearchStrategy = "exact"
			}
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
		return nil, nil, err
	}
	st.SearchNodes = bm.Nodes
	st.BoundPrunes = bm.BoundPrunes
	st.IncumbentUpdates = bm.Incumbents
	st.EmbeddingsEnumerated = bm.Embeddings
	st.Generations = bm.Generations
	st.Evaluations = bm.Evaluations
	for _, cp := range bm.Curve {
		st.BestCurve = append(st.BestCurve, SearchCurvePoint{Generation: cp.Generation, Cost: cp.Cost})
	}

	// Forced-CBILBO classification is a pure function of the data-path
	// structure, so a structural match reuses the prior run's map;
	// capturing runs otherwise compute it once here for the next round
	// (other runs let assemble derive it per module, allocation-free).
	var forced map[string]bool
	if sameStructure && prior.forced != nil {
		forced = prior.forced
	} else if capture {
		forced = make(map[string]bool, len(mb.Modules))
		for _, m := range mb.Modules {
			forced[m.Name] = bist.ForcedCBILBOByEnumeration(dp, m.Name, cfg.AllowPadTPG)
		}
	}

	res, err := assemble(g, mb, rb, dp, plan, sh, cfg, forced)
	if err != nil {
		return nil, nil, err
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
	if capture {
		art = &artifacts{
			bindFP: bindFP, rb: rb, trace: trace, ib: ib,
			dpFP: dpFP, plan: plan, searchStrategy: st.SearchStrategy, forced: forced,
		}
	}
	return res, art, nil
}

// assemble builds the public Result from the completed allocation.
// forced, when non-nil, supplies precomputed forced-CBILBO
// classifications per module (an incremental run's reuse path); nil
// computes each by enumeration.
func assemble(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding,
	dp *datapath.Datapath, plan *bist.Plan, sh *regassign.Sharing, cfg Config,
	forced map[string]bool) (*Result, error) {

	model := area.Default(cfg.Width)
	res := &Result{
		Name:        g.Name,
		Mode:        cfg.Mode,
		Width:       cfg.Width,
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
		f, ok := false, false
		if forced != nil {
			f, ok = forced[m.Name]
		}
		if !ok {
			f = bist.ForcedCBILBOByEnumeration(dp, m.Name, cfg.AllowPadTPG)
		}
		res.Modules = append(res.Modules, ModuleInfo{
			Name:         m.Name,
			Class:        m.Class.Name,
			Ops:          append([]string(nil), m.Ops...),
			Embedding:    plan.Embeddings[m.Name].String(),
			ForcedCBILBO: f,
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
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case len(a) == 0:
			return len(b) != 0
		case len(b) == 0:
			return false
		}
		return a[0] < b[0]
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
