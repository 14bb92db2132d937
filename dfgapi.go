package bistpath

import (
	"context"
	"fmt"
	"sort"

	"bistpath/internal/benchdata"
	"bistpath/internal/dfg"
	"bistpath/internal/lang"
	"bistpath/internal/modassign"
	"bistpath/internal/opt"
	"bistpath/internal/sched"
)

// DFG is a behavioral description: operations connected by variables,
// optionally scheduled into control steps. Build one with NewDFG and the
// Add* methods, or parse the textual format with ParseDFG.
type DFG struct {
	g *dfg.Graph
}

// NewDFG returns an empty data flow graph.
func NewDFG(name string) *DFG { return &DFG{g: dfg.New(name)} }

// AddInput declares primary input variables.
func (d *DFG) AddInput(names ...string) error { return d.g.AddInput(names...) }

// MarkPortInput marks primary inputs as port-fed (wired to module ports,
// never register-allocated) — use for constants and parameters.
func (d *DFG) MarkPortInput(names ...string) error { return d.g.MarkPortInput(names...) }

// MarkOutput marks variables as primary outputs.
func (d *DFG) MarkOutput(names ...string) error { return d.g.MarkOutput(names...) }

// AddOp adds an operation computing result from one or two operand
// variables at the given control step (step 0 = unscheduled; call
// AutoSchedule before synthesizing). Kind is one of
// + - * / & | ^ < >.
func (d *DFG) AddOp(name, kind string, step int, result string, args ...string) error {
	return d.g.AddOp(name, dfg.Kind(kind), step, result, args...)
}

// ParseDFG reads the textual DFG format:
//
//	dfg <name>
//	input a b
//	op add1 + a b -> d @1
//	output d
func ParseDFG(text string) (*DFG, error) {
	g, err := dfg.ParseString(text)
	if err != nil {
		return nil, err
	}
	return &DFG{g: g}, nil
}

// Text renders the graph in the format accepted by ParseDFG.
func (d *DFG) Text() string { return d.g.Text() }

// Validate checks structural and schedule consistency.
func (d *DFG) Validate() error { return d.g.Validate() }

// Name returns the graph name.
func (d *DFG) Name() string { return d.g.Name }

// NumSteps returns the schedule length.
func (d *DFG) NumSteps() int { return d.g.NumSteps() }

// MinRegisters returns the minimum register count any binding needs.
func (d *DFG) MinRegisters() (int, error) { return d.g.MinRegisters() }

// Eval evaluates the DFG on concrete inputs with width-bit arithmetic.
func (d *DFG) Eval(inputs map[string]uint64, width int) (map[string]uint64, error) {
	return d.g.Eval(inputs, width)
}

// AutoSchedule assigns control steps with resource-constrained list
// scheduling. limits bounds concurrent ops per kind (e.g. {"*": 2});
// missing kinds are unlimited.
func (d *DFG) AutoSchedule(limits map[string]int) error {
	lim := make(sched.Limits, len(limits))
	for k, n := range limits {
		lim[dfg.Kind(k)] = n
	}
	steps, err := sched.ListSchedule(d.g, lim)
	if err != nil {
		return err
	}
	return sched.Apply(d.g, steps)
}

// AutoScheduleForce assigns control steps with force-directed scheduling
// (Paulin & Knight): the schedule fits the latency bound while
// minimizing peak per-kind concurrency, i.e. the number of functional
// modules a subsequent binding needs.
func (d *DFG) AutoScheduleForce(latency int) error {
	steps, err := sched.ForceDirected(d.g, latency)
	if err != nil {
		return err
	}
	return sched.Apply(d.g, steps)
}

// SynthesizeCtx is the single core entry point of the synthesis API:
// every other Synthesize* method is a thin wrapper around it. It runs
// the full allocation flow — validation, register binding, interconnect
// binding, data path construction and the BIST search — and returns the
// completed Result.
//
// opToModule maps operation names to module names (ops sharing a module
// name share the functional unit; every op must be mapped). A nil map
// selects automatic area-driven module binding over one functional-unit
// class per operation kind.
//
// The flow polls ctx at phase boundaries and inside the BIST branch and
// bound, returning ctx.Err() promptly when the context is cancelled or
// times out; any other failure is a *SynthesisError attributed to the
// pipeline phase that produced it. The Result is deterministic: the same
// DFG, module map and Config produce byte-identical ReportText, with all
// timing-dependent measurements isolated in Result.Stats.
//
// SynthesizeCtx executes on the package-default Synthesizer, reusing
// its scratch arenas across calls; create an explicit handle with New
// to control the arenas' lifetime or share a default Config and Cache.
func (d *DFG) SynthesizeCtx(ctx context.Context, opToModule map[string]string, cfg Config) (*Result, error) {
	return defaultSynthesizer.synthesizeDFG(ctx, d, opToModule, cfg)
}

// moduleBinding resolves an explicit op→module map (nil = automatic
// area-driven binding) into a module binding.
func (d *DFG) moduleBinding(opToModule map[string]string) (*modassign.Binding, error) {
	if opToModule != nil {
		return modassign.FromMap(d.g, opToModule)
	}
	kinds := make(map[dfg.Kind]bool)
	for _, op := range d.g.Ops() {
		kinds[op.Kind] = true
	}
	var ks []dfg.Kind
	for k := range kinds {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	classes := make([]modassign.Class, len(ks))
	for i, k := range ks {
		classes[i] = modassign.UnitClass(k)
	}
	return modassign.Bind(d.g, classes)
}

// SynthesizeParetoCtx is SynthesizeCtx with cfg.Objective forced to
// ParetoFront: the BIST search enumerates every feasible plan and the
// Result carries the full non-dominated set over (extra area, test
// sessions, peak test power) in Result.Pareto, with the area-minimal
// front member reported as the primary plan. Pareto runs always search
// (the cache stores single plans, so it is bypassed).
func (d *DFG) SynthesizeParetoCtx(ctx context.Context, opToModule map[string]string, cfg Config) (*Result, error) {
	cfg.Objective = ParetoFront
	return d.SynthesizeCtx(ctx, opToModule, cfg)
}

// BenchmarkNames lists the built-in DAC'95 evaluation benchmarks.
func BenchmarkNames() []string {
	var out []string
	for _, b := range benchdata.All() {
		out = append(out, b.Name)
	}
	return out
}

// Benchmark returns a built-in benchmark DFG and its paper module
// assignment: one of ex1, ex2, tseng1, tseng2, paulin.
func Benchmark(name string) (*DFG, map[string]string, error) {
	b := benchdata.ByName(name)
	if b == nil {
		return nil, nil, fmt.Errorf("%w %q (have %v)", ErrUnknownBenchmark, name, BenchmarkNames())
	}
	mods := make(map[string]string, len(b.OpModule))
	for k, v := range b.OpModule {
		mods[k] = v
	}
	return &DFG{g: b.Graph}, mods, nil
}

// Compile builds a DFG from a behavioral description of assignment
// statements over +, -, *, /, &, |, ^, <, > with standard precedence and
// parentheses, e.g.
//
//	x1 = x + dx
//	u1 = u - 3*x*u*dx - 3*y*dx
//
// Identifiers read before assignment become primary inputs, integer
// literals become port-fed constants (k<value>), and assigned names that
// are never read become primary outputs. With cse true, repeated
// subexpressions are computed once. The result is unscheduled; call
// AutoSchedule or AutoScheduleForce before synthesizing.
func Compile(name, program string, cse bool) (*DFG, error) {
	g, err := lang.Compile(name, program, lang.Options{NoCSE: !cse})
	if err != nil {
		return nil, err
	}
	return &DFG{g: g}, nil
}

// Optimize applies behavioral-level cleanups before scheduling:
// algebraic identity simplification against literal constants (x*1, x+0,
// x&0, ...) followed by dead-code elimination. It returns the number of
// operations removed.
func (d *DFG) Optimize() (int, error) {
	g, n, err := opt.Simplify(d.g)
	if err != nil {
		return 0, err
	}
	d.g = g
	return n, nil
}

// Balance rebalances chains of associative operations into trees,
// shortening the critical path (and hence the minimum schedule latency).
// The graph becomes unscheduled; re-run AutoSchedule afterwards. It
// returns the number of chains restructured.
func (d *DFG) Balance() (int, error) {
	g, n, err := opt.Balance(d.g)
	if err != nil {
		return 0, err
	}
	d.g = g
	return n, nil
}
