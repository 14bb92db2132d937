package regassign

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"bistpath/internal/dfg"
	"bistpath/internal/graph"
	"bistpath/internal/modassign"
)

// Register is one allocated register and the variables bound to it.
type Register struct {
	Name string
	Vars []string // sorted
}

// Binding is a complete variable→register map (a partition of the
// variables into non-conflicting sets).
type Binding struct {
	Registers []*Register
	byVar     map[string]string
}

// RegisterOf returns the name of the register holding v ("" if unbound).
func (b *Binding) RegisterOf(v string) string { return b.byVar[v] }

// Register returns the named register, or nil.
func (b *Binding) Register(name string) *Register {
	for _, r := range b.Registers {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Sets returns the variable sets of the registers, in register order.
func (b *Binding) Sets() [][]string {
	out := make([][]string, len(b.Registers))
	for i, r := range b.Registers {
		out[i] = append([]string(nil), r.Vars...)
	}
	return out
}

// NumRegisters returns the register count.
func (b *Binding) NumRegisters() int { return len(b.Registers) }

func (b *Binding) String() string {
	var sb strings.Builder
	for i, r := range b.Registers {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s={%s}", r.Name, strings.Join(r.Vars, ","))
	}
	return sb.String()
}

// Validate checks that the binding is a partition of the graph's
// variables and that no register holds two conflicting variables.
func (b *Binding) Validate(g *dfg.Graph) error {
	lts, err := g.Lifetimes()
	if err != nil {
		return err
	}
	return b.validate(g, lts)
}

// validate is Validate over the graph's lifetimes: two variables
// conflict exactly when their lifetimes overlap. Port inputs have no
// lifetime, so they conflict with nothing here and fail the port check
// below instead.
func (b *Binding) validate(g *dfg.Graph, lts map[string]dfg.Lifetime) error {
	seen := make(map[string]bool)
	for _, r := range b.Registers {
		for i, u := range r.Vars {
			if g.Var(u) == nil {
				return fmt.Errorf("regassign: register %s holds unknown variable %q", r.Name, u)
			}
			if seen[u] {
				return fmt.Errorf("regassign: variable %q bound twice", u)
			}
			seen[u] = true
			if b.byVar[u] != r.Name {
				return fmt.Errorf("regassign: index inconsistent for %q", u)
			}
			lu := lts[u]
			for _, v := range r.Vars[i+1:] {
				if v != u && lu.Overlaps(lts[v]) {
					return fmt.Errorf("regassign: register %s holds conflicting variables %q and %q", r.Name, u, v)
				}
			}
		}
	}
	for _, v := range g.Vars() {
		if v.IsPort {
			if seen[v.Name] {
				return fmt.Errorf("regassign: port input %q must not be register-bound", v.Name)
			}
			continue
		}
		if !seen[v.Name] {
			return fmt.Errorf("regassign: variable %q unbound", v.Name)
		}
	}
	return nil
}

// FromSets builds a Binding from ordered variable sets, naming the
// registers R1, R2, ... in order. Callers (e.g. the baseline allocators)
// must Validate the result against the graph.
func FromSets(sets [][]string) *Binding {
	b := &Binding{byVar: make(map[string]string)}
	for i, set := range sets {
		r := &Register{Name: fmt.Sprintf("R%d", i+1), Vars: append([]string(nil), set...)}
		sort.Strings(r.Vars)
		b.Registers = append(b.Registers, r)
		for _, v := range r.Vars {
			b.byVar[v] = r.Name
		}
	}
	return b
}

// Options toggle the individual mechanisms of the paper's binder; all
// true reproduces the full algorithm, individual flags support the
// ablation experiments.
type Options struct {
	SharingDegree    bool // SD/MCS-ordered PVES and ΔSD-guided coloring (Section III.A)
	CaseOverrides    bool // Case 1 / Case 2 diversion to consolidating registers
	AvoidCBILBO      bool // Lemma 2 forced-CBILBO avoidance (Section III.B)
	InterconnectTies bool // break remaining ties by estimated mux cost (Section IV)
	// Metrics, when non-nil, counts the binder's testability-guided
	// decisions as it colors (the binding itself is unaffected).
	Metrics *Metrics
	// Scratch, when non-nil, supplies the reusable binder arenas
	// (interning tables, bitset graphs, candidate buffers); successive
	// Bind calls sharing one Scratch run essentially allocation-free.
	// A Scratch must not be used from two goroutines at once.
	Scratch *Scratch
}

// Metrics counts the work the binder's testability mechanisms did. The
// binder is deterministic, so the counts are a pure function of the
// graph, module binding and option toggles.
type Metrics struct {
	Lemma2Checks  int64 // Lemma-2 evaluations of (partial) assignments
	CaseOverrides int64 // Case 1/2 diversions that changed the primary choice
}

// DefaultOptions enables every mechanism (the paper's configuration).
func DefaultOptions() Options {
	return Options{SharingDegree: true, CaseOverrides: true, AvoidCBILBO: true, InterconnectTies: true}
}

// Traditional binds variables to the minimum number of registers with no
// testability consideration: optimal chordal coloring of the conflict
// graph in reverse perfect-elimination order (the "traditional HLS"
// baseline of Table I). It runs on the binder's indexed state: PVES with
// the identity rank breaks ties lexicographically, as graph.PVES(nil)
// does, and first-fit over the registers in reverse scheme order picks
// the lowest free color, as GreedyColor does, so the binding equals
// OptimalChordalColor's color classes.
func Traditional(g *dfg.Graph) (*Binding, error) {
	var bs binderState
	if err := bs.initVars(g); err != nil {
		return nil, err
	}
	nv := len(bs.names)
	for v := 0; v < nv; v++ {
		bs.rank[v], bs.ordered[v] = int32(v), int32(v)
	}
	if err := bs.pves(); err != nil {
		return nil, err
	}
	for i := nv - 1; i >= 0; i-- {
		v := bs.scheme[i]
		cv := bs.conf.Row(int(v))
		r := 0
		for r < bs.numRegs && bs.regBits.Row(r).Intersects(cv) {
			r++
		}
		if r == bs.numRegs {
			bs.numRegs++
		}
		bs.hold(r, v)
	}
	b := FromSets(bs.sets())
	return b, b.validate(g, bs.lts)
}

// Bind runs the paper's register binder for the given module binding.
func Bind(g *dfg.Graph, mb *modassign.Binding, opts Options) (*Binding, error) {
	return bindInternal(g, mb, opts, nil)
}

// bindInternal is Bind with an optional decision trace collector. All
// per-variable work runs on the indexed binderState (binderstate.go):
// variables, modules and interconnect endpoints are interned once, and
// the coloring loop queries only bitset rows and maintained counts, so
// a warm Scratch makes the whole bind essentially allocation-free.
func bindInternal(g *dfg.Graph, mb *modassign.Binding, opts Options, trace *[]Decision) (*Binding, error) {
	var local binderState
	bs := &local
	if opts.Scratch != nil {
		bs = &opts.Scratch.bs
	}
	if err := bs.initVars(g); err != nil {
		return nil, err
	}
	bs.initModules(g, mb)
	bs.lemma2 = opts.AvoidCBILBO
	var minRegs int
	minRegs, bs.dens = dfg.CliqueSizes(bs.life, bs.mcs, bs.dens)

	// 1. PVES selection (Section III.A.1): eliminate low-SD, low-MCS
	// variables first so that high-SD variables are colored first (in
	// reverse order) while flexibility is maximal. Variable ids are in
	// name order, so the id tie-break is the lexicographic one.
	nv := len(bs.names)
	ordered := bs.ordered
	for i := range ordered {
		ordered[i] = int32(i)
	}
	if opts.SharingDegree {
		slices.SortFunc(ordered, func(a, b int32) int {
			if c := cmp.Compare(bs.sdv[a], bs.sdv[b]); c != 0 {
				return c
			}
			if c := cmp.Compare(bs.mcs[a], bs.mcs[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	for i, v := range ordered {
		bs.rank[v] = int32(i)
	}
	if err := bs.pves(); err != nil {
		return nil, fmt.Errorf("regassign: conflict graph of %q is not an interval graph: %v", g.Name, err)
	}

	// 2. Color in reverse PVES order (Section III.A.2).
	for i := nv - 1; i >= 0; i-- {
		v := bs.scheme[i]
		d := Decision{Index: nv - i, Var: bs.names[v], SD: int(bs.sdv[v])}
		cands := bs.candidateRegs(v)
		if trace != nil {
			d.Candidates = append([]int(nil), cands...)
		}
		if len(cands) == 0 {
			d.NewRegister = true
			d.Chosen = bs.numRegs
			if trace != nil {
				describe(&d, nil)
				*trace = append(*trace, d)
			}
			bs.openRegister(v)
			continue
		}
		choice := chooseRegister(bs, cands, v, minRegs, opts, &d)
		if d.Diverted && opts.Metrics != nil {
			opts.Metrics.CaseOverrides++
		}
		if choice < 0 {
			// Every candidate would force a CBILBO (Lemma 2) and the
			// register budget is not yet exhausted: open a fresh register.
			// A singleton register can never itself be forced, and the
			// design needs at least minRegs registers regardless.
			d.NewRegister = true
			d.Chosen = bs.numRegs
			if trace != nil {
				describe(&d, nil)
				*trace = append(*trace, d)
			}
			bs.openRegister(v)
			continue
		}
		d.Chosen = choice
		d.DeltaSD = bs.deltaSD(choice, v)
		if trace != nil {
			describe(&d, bs.varNames(choice))
			*trace = append(*trace, d)
		}
		bs.assign(choice, v)
	}
	b := FromSets(bs.sets())
	return b, b.validate(g, bs.lts)
}

// chooseRegister implements the coloring decision for one vertex:
// primary ΔSD ranking, Case 1 / Case 2 diversion, and Lemma-2 CBILBO
// avoidance. It returns -1 when every candidate would force a CBILBO and
// allocating a fresh register stays within the minimum register budget.
func chooseRegister(bs *binderState, cands []int, v int32, minRegs int, opts Options, d *Decision) int {
	// Primary ranking: maximize ΔSD, then SD(R), then minimize estimated
	// interconnect cost, then lowest index (the left-edge default).
	ranked := bs.keys[:0]
	for _, r := range cands {
		sd := bs.sdReg(r)
		ranked = append(ranked, rankKey{r: r, delta: bs.sdRegWith(r, v) - sd, sd: sd, ic: bs.icScore(r, v)})
	}
	bs.keys = ranked
	if opts.SharingDegree {
		ties := opts.InterconnectTies
		slices.SortFunc(ranked, func(a, b rankKey) int {
			if c := cmp.Compare(b.delta, a.delta); c != 0 {
				return c
			}
			if c := cmp.Compare(b.sd, a.sd); c != 0 {
				return c
			}
			if c := cmp.Compare(a.ic, b.ic); ties && c != 0 {
				return c
			}
			return cmp.Compare(a.r, b.r)
		})
	}

	// Case 1 / Case 2 diversion (Section III.A.2): prefer a register that
	// already shares the module's output set (Case 1) or one of the two
	// registers already covering its input set (Case 2), when that
	// register's established sharing degree exceeds what the primary
	// choice would reach.
	if opts.SharingDegree && opts.CaseOverrides && bs.divert(ranked, v) {
		d.Diverted = true
	}

	// Lemma-2 avoidance (Section III.B): take the best-ranked candidate
	// that does not increase the number of forced-CBILBO modules; if all
	// do, allow the assignment (paper: avoided only when possible without
	// an extra register). The tally counts the evaluation of the current
	// assignment (the maintained count) plus one per trial.
	if opts.AvoidCBILBO {
		checks := int64(1)
		choice := -1
		for _, k := range ranked {
			checks++
			if bs.forcedWith(k.r, v) <= bs.nForced {
				choice = k.r
				break
			}
			d.Lemma2Skips++
		}
		if opts.Metrics != nil {
			opts.Metrics.Lemma2Checks += checks
		}
		if choice >= 0 {
			return choice
		}
		if bs.numRegs < minRegs {
			return -1 // open a fresh register: free within the budget
		}
	}
	return ranked[0].r
}

func conflictGraph(g *dfg.Graph) (*graph.Undirected, error) {
	conf, err := g.Conflicts()
	if err != nil {
		return nil, err
	}
	cg := graph.NewUndirected()
	for _, v := range g.AllocVars() {
		cg.AddVertex(v)
	}
	for u, nbrs := range conf {
		for v := range nbrs {
			cg.AddEdge(u, v)
		}
	}
	return cg, nil
}

// ConflictGraph exposes the variable conflict graph (used by reporting
// and the Fig. 4 regeneration).
func ConflictGraph(g *dfg.Graph) (*graph.Undirected, error) { return conflictGraph(g) }
