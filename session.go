package bistpath

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"bistpath/internal/cache"
	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
)

// Session is an incremental re-synthesis handle: a private copy of one
// design that can be edited in place and re-synthesized, with the
// pipeline reusing whatever the edit provably did not invalidate. The
// mutators (SetStep, ReplaceOp, RemapModule, RetimePort) apply the edit
// immediately and record it as a typed Delta; Resynthesize then offers
// the previous run's artifacts to the pipeline, which carries forward
// whatever still revalidates:
//
//   - the canonical cache key is unchanged → the previous Result is
//     replayed outright;
//   - the register binder's fingerprint still matches (e.g. a
//     reschedule that preserves every lifetime overlap) → the
//     register-bind phase is skipped and the previous binding reused;
//   - the rebuilt data path is structurally identical → the previous
//     BIST plan is revalidated and spliced in place of the search;
//   - otherwise the previous plan warm-starts the branch and bound as
//     the incumbent bound, pruning the search without changing its
//     result.
//
// Reuse never changes what a Result contains: an incremental Result is
// identical to a from-scratch synthesis of the edited design — same
// ReportText, same JSON up to the wall-time stats — with the savings
// visible only in Stats.ReusedPhases, Stats.IncrementalSpeedup and the
// search-effort counters. Sessions bypass Config.Cache: the session's
// own previous run is a strictly better memo than the shared cache.
//
// A Session pins its Config at creation and owns a private clone of
// the DFG, so later edits to the original DFG (or to the Config the
// Synthesizer was built with) do not leak in. A Session is safe for
// concurrent use, though edits and Resynthesize serialize on one lock;
// Close releases it independently of the parent Synthesizer.
type Session struct {
	synth      *Synthesizer
	cfg        Config            // pinned at creation, cache stripped
	g          *dfg.Graph        // private clone, mutated by the editors
	opToModule map[string]string // private copy; nil = automatic binding

	mu     sync.Mutex
	closed bool
	deltas []Delta       // edits since the last successful Resynthesize
	prev   *sessionState // last successful run, nil before the first
}

// sessionState is the survivable residue of one successful Resynthesize:
// the cache key of the inputs it ran on, the reusable phase artifacts
// it captured, a private clone of its Result, and the wall
// time of the most recent run that reused nothing (the baseline
// IncrementalSpeedup is measured against). The module binding and the
// lifetime-overlap matrix back the reschedule fast path, which must
// decide "did this step edit preserve every overlap?" without paying
// for serialization or hashing.
type sessionState struct {
	key       cache.Key // zero after a fast-path run (see fastReschedule)
	arts      *artifacts
	result    *Result
	coldTotal time.Duration

	mb        *modassign.Binding
	allocVars []string
	overlaps  []bool // allocVars×allocVars lifetime-overlap matrix
}

// overlapMatrix computes the pairwise lifetime-overlap relation over
// the allocatable variables — the only way the schedule reaches the
// register binder. Two schedules with equal matrices (and unchanged
// graph structure) bind identically.
func overlapMatrix(g *dfg.Graph) ([]string, []bool, error) {
	lts, err := g.Lifetimes()
	if err != nil {
		return nil, nil, err
	}
	vars := g.AllocVars()
	n := len(vars)
	ls := make([]dfg.Lifetime, n)
	for i, v := range vars {
		ls[i] = lts[v]
	}
	m := make([]bool, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ls[i].Overlaps(ls[j]) {
				m[i*n+j] = true
				m[j*n+i] = true
			}
		}
	}
	return vars, m, nil
}

// sameModuleBindingAfterSteps reports whether binding the session's
// edited graph reproduces prev op for op: the same modules, each
// running the same ops in the same order. Steps reach the module
// binding even when no other edit did: it orders each module's ops by
// (step, name), which the interconnect orientation tie-break depends
// on; the automatic binder packs modules by step; and a module runs at
// most one op per step.
func (ss *Session) sameModuleBindingAfterSteps(prev *modassign.Binding) bool {
	if ss.opToModule == nil {
		mb, err := (&DFG{g: ss.g}).moduleBinding(nil)
		if err != nil || len(mb.Modules) != len(prev.Modules) {
			return false
		}
		for i, m := range mb.Modules {
			if m.Name != prev.Modules[i].Name || !slices.Equal(m.Ops, prev.Modules[i].Ops) {
				return false
			}
		}
		return true
	}
	// An explicit map keeps every op on its module, so the binding is
	// reproduced, and valid, iff the steps still rise strictly along
	// each module's previous op order.
	for _, m := range prev.Modules {
		for i := 1; i < len(m.Ops); i++ {
			if ss.g.Op(m.Ops[i-1]).Step >= ss.g.Op(m.Ops[i]).Step {
				return false
			}
		}
	}
	return true
}

// NewSession opens an incremental re-synthesis session on d with the
// handle's default configuration. opToModule has DFG.SynthesizeCtx
// semantics (nil = automatic module binding); both the DFG and the map
// are copied, so the caller's originals stay untouched.
func (s *Synthesizer) NewSession(d *DFG, opToModule map[string]string) (*Session, error) {
	return s.NewSessionConfig(d, opToModule, s.cfg)
}

// NewSessionConfig is NewSession with an explicit configuration, which
// the session pins for its whole lifetime. cfg.Cache is ignored:
// sessions replay their own previous run instead.
func (s *Synthesizer) NewSessionConfig(d *DFG, opToModule map[string]string, cfg Config) (*Session, error) {
	if d == nil || d.g == nil {
		return nil, ErrNoDFG
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrSynthesizerClosed
	}
	// Normalize once so the cache keys computed across the session's
	// lifetime agree with what the pipeline actually runs.
	cfg = cfg.normalized()
	cfg.Cache = nil
	var m map[string]string
	if opToModule != nil {
		m = make(map[string]string, len(opToModule))
		for k, v := range opToModule {
			m[k] = v
		}
	}
	return &Session{synth: s, cfg: cfg, g: d.g.Clone(), opToModule: m}, nil
}

// Design returns the name of the design under edit.
func (ss *Session) Design() string { return ss.g.Name }

// Text renders the session's current (edited) graph in the textual DFG
// format. Note the port-fed marks set by RetimePort are a synthesis
// attribute the textual format does not carry.
func (ss *Session) Text() string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.g.Text()
}

// Deltas returns the edits applied since the last successful
// Resynthesize (in application order, as typed records). A successful
// Resynthesize consumes them; a failed one leaves them pending.
func (ss *Session) Deltas() []Delta {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]Delta(nil), ss.deltas...)
}

// Close marks the session closed; subsequent edits and Resynthesize
// calls fail with ErrSessionClosed. Close is idempotent and does not
// affect the parent Synthesizer.
func (ss *Session) Close() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.closed = true
	ss.prev = nil
	return nil
}

// edit validates-and-applies one mutator under the session lock.
func (ss *Session) edit(d Delta, apply func() error) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return ErrSessionClosed
	}
	if err := apply(); err != nil {
		return err
	}
	ss.deltas = append(ss.deltas, d)
	return nil
}

// SetStep reschedules op to the given control step (>= 1). The edit is
// validated structurally here; schedule consistency (operands produced
// before use) is checked by the next Resynthesize's validate phase,
// so a multi-edit script may pass through inconsistent intermediates.
func (ss *Session) SetStep(op string, step int) error {
	return ss.edit(Delta{Kind: DeltaSetStep, Op: op, Step: step}, func() error {
		o := ss.g.Op(op)
		if o == nil {
			return fmt.Errorf("bistpath: session %s: unknown op %q", ss.g.Name, op)
		}
		if step < 1 {
			return fmt.Errorf("bistpath: session %s: op %q: control step %d out of range", ss.g.Name, op, step)
		}
		o.Step = step
		return nil
	})
}

// ReplaceOp swaps op's operator kind (one of + - * / & | ^ < >) in
// place, keeping its operands, result and control step. Whether the
// op's bound module can still host the new kind is checked by the next
// Resynthesize's validate phase.
func (ss *Session) ReplaceOp(op, kind string) error {
	return ss.edit(Delta{Kind: DeltaReplaceOp, Op: op, OpKind: kind}, func() error {
		o := ss.g.Op(op)
		if o == nil {
			return fmt.Errorf("bistpath: session %s: unknown op %q", ss.g.Name, op)
		}
		if !dfg.Kind(kind).Valid() {
			return fmt.Errorf("bistpath: session %s: op %q: invalid kind %q", ss.g.Name, op, kind)
		}
		o.Kind = dfg.Kind(kind)
		return nil
	})
}

// RemapModule moves op to the named functional module in the session's
// explicit op→module map. It fails on a session created with automatic
// module binding (nil opToModule): the automatic binder re-derives the
// whole map from the op kinds, so there is no entry to edit.
func (ss *Session) RemapModule(op, module string) error {
	return ss.edit(Delta{Kind: DeltaRemapModule, Op: op, Module: module}, func() error {
		if ss.opToModule == nil {
			return fmt.Errorf("bistpath: session %s: RemapModule needs an explicit module map (session uses automatic binding)", ss.g.Name)
		}
		if ss.g.Op(op) == nil {
			return fmt.Errorf("bistpath: session %s: unknown op %q", ss.g.Name, op)
		}
		if module == "" {
			return fmt.Errorf("bistpath: session %s: op %q: empty module name", ss.g.Name, op)
		}
		ss.opToModule[op] = module
		return nil
	})
}

// RetimePort sets or clears the port-fed mark of the primary input
// name. A port-fed input is wired to module ports and never
// register-allocated (MarkPortInput semantics); clearing the mark
// returns the input to ordinary register allocation.
func (ss *Session) RetimePort(name string, port bool) error {
	return ss.edit(Delta{Kind: DeltaRetimePort, Var: name, Port: port}, func() error {
		v := ss.g.Var(name)
		if v == nil {
			return fmt.Errorf("bistpath: session %s: unknown variable %q", ss.g.Name, name)
		}
		if port && !v.IsInput {
			return fmt.Errorf("bistpath: session %s: variable %q is not a primary input", ss.g.Name, name)
		}
		v.IsPort = port
		return nil
	})
}

// allPhaseNames is the full pipeline in order — what a replayed run
// reports as reused.
func allPhaseNames() []string {
	return []string{
		PhaseValidate.String(), PhaseRegisterBind.String(),
		PhaseInterconnect.String(), PhaseDatapath.String(),
		PhaseBISTSearch.String(),
	}
}

// Resynthesize synthesizes the session's current design, reusing
// whatever the edits since the last run did not invalidate (see the
// Session doc comment for the reuse ladder). The Result is identical in
// content to a from-scratch synthesis of the edited design; only
// Stats.ReusedPhases, Stats.IncrementalSpeedup and the effort counters
// record that work was saved. A successful call consumes the pending
// Deltas; a failed one (invalid edited design, cancellation) leaves
// them pending and keeps the previous run's artifacts for the next
// attempt.
func (ss *Session) Resynthesize(ctx context.Context) (*Result, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil, ErrSessionClosed
	}
	start := time.Now()

	// Reschedule fast path: if every pending edit is a SetStep and the
	// new schedule preserves the lifetime-overlap matrix and the module
	// binding, the previous run's netlist and plan are reusable
	// wholesale — only the control program is rebuilt. This sidesteps
	// the pipeline (and all its fingerprint hashing) entirely;
	// correctness rests on those two comparisons plus the differential
	// property/fuzz tests.
	if res, handled, err := ss.fastReschedule(start); handled {
		return res, err
	}

	// Mirror synthesizeDFG's front door: the step-0 precheck, then the
	// module binding, both attributed to the validate phase.
	for _, o := range ss.g.Ops() {
		if o.Step == 0 {
			return nil, phaseError(ss.g.Name, PhaseValidate,
				fmt.Errorf("%w: op %q", ErrUnscheduled, o.Name))
		}
	}
	mb, err := (&DFG{g: ss.g}).moduleBinding(ss.opToModule)
	if err != nil {
		return nil, phaseError(ss.g.Name, PhaseValidate, err)
	}

	// An unchanged cache key means no edit reached the pipeline's inputs
	// (e.g. a step edit that was immediately undone): replay the
	// previous Result.
	key := cacheKey(ss.g, mb, ss.cfg)
	if prev := ss.prev; prev != nil && key == prev.key {
		res := prev.result.clone()
		st := res.Stats // the populating run's stats, replayed
		st.ReusedPhases = allPhaseNames()
		st.IncrementalSpeedup = 0
		if el := time.Since(start); prev.coldTotal > 0 && el > 0 {
			st.IncrementalSpeedup = float64(prev.coldTotal) / float64(el)
		}
		res.Stats = st
		ss.deltas = nil
		return res, nil
	}

	// Something changed: re-enter the pipeline with the previous run's
	// artifacts as its prior. The pipeline's own finer-grained checks
	// (binder fingerprint, data-path structural fingerprint, plan
	// revalidation) decide phase by phase what actually survives.
	var prior *artifacts
	if ss.prev != nil {
		prior = ss.prev.arts
	}
	var art *artifacts
	// The pipeline runs on a private snapshot so Results handed out
	// earlier (whose datapath references the run's graph) don't see
	// later session edits.
	g, cfg := ss.g.Clone(), ss.cfg
	res, err := ss.synth.run(ctx, func(ctx context.Context, sc *synthScratch) (res *Result, err error) {
		res, art, err = synthesizePipeline(ctx, g, mb, cfg, sc, prior, true)
		return res, err
	})
	if err != nil {
		return nil, err
	}

	st := res.Stats
	coldTotal := st.Total
	if len(st.ReusedPhases) > 0 && ss.prev != nil {
		// Phases were reused: the speedup baseline is the last run that
		// reused nothing.
		coldTotal = ss.prev.coldTotal
		if coldTotal > 0 && st.Total > 0 {
			st.IncrementalSpeedup = float64(coldTotal) / float64(st.Total)
		}
	}
	res.Stats = st
	state := &sessionState{key: key, arts: art, result: res.clone(), coldTotal: coldTotal, mb: mb}
	if vars, m, err := overlapMatrix(g); err == nil {
		state.allocVars, state.overlaps = vars, m
	}
	ss.prev = state
	ss.deltas = nil
	return res, nil
}

// fastReschedule is the steps-only fast path of Resynthesize (which
// holds ss.mu). It applies when every pending delta is a SetStep, the
// previous run captured a complete artifact set, and the configuration
// keeps plans spliceable. If the edited schedule preserves the
// lifetime-overlap matrix — the only channel through which control
// steps reach the register binder — and reproduces the module binding
// op for op, then the register binding, interconnect, netlist and BIST
// plan are all provably unchanged, and the run reduces to validation
// plus rebuilding the control program on the previous netlist
// (Datapath.WithSchedule).
//
// handled=false falls through to the general path, which re-derives
// everything through its own fingerprint ladder. handled=true with an
// error reports a design the full pipeline would reject identically
// (validation failure), leaving the pending deltas in place.
func (ss *Session) fastReschedule(start time.Time) (res *Result, handled bool, err error) {
	prev := ss.prev
	if prev == nil || len(ss.deltas) == 0 || !reusablePlan(ss.cfg) {
		return nil, false, nil
	}
	if prev.mb == nil || prev.overlaps == nil || prev.arts.ib == nil || prev.arts.rb == nil {
		return nil, false, nil
	}
	for _, d := range ss.deltas {
		if d.Kind != DeltaSetStep {
			return nil, false, nil
		}
	}

	// SetStep enforces step >= 1 and cannot change structure, so the
	// full validate phase reduces to the graph's own consistency check
	// (operands produced strictly before use).
	if err := ss.g.Validate(); err != nil {
		return nil, true, phaseError(ss.g.Name, PhaseValidate, err)
	}
	vars, m, err := overlapMatrix(ss.g)
	if err != nil {
		return nil, false, nil // let the general path surface it
	}
	if !slices.Equal(vars, prev.allocVars) || !slices.Equal(m, prev.overlaps) {
		return nil, false, nil // overlaps moved: the binder must re-run
	}
	if !ss.sameModuleBindingAfterSteps(prev.mb) {
		return nil, false, nil // the general path rebinds (or rejects) it
	}

	g := ss.g.Clone() // private snapshot, as in the general path
	dp, err := prev.result.dp.WithSchedule(g, prev.mb, prev.arts.rb, prev.arts.ib)
	if err != nil {
		return nil, false, nil // shouldn't happen; re-derive from scratch
	}

	res = prev.result.clone()
	res.dp = dp
	st := res.Stats // the populating run's stats, replayed
	st.ReusedPhases = []string{
		PhaseRegisterBind.String(), PhaseInterconnect.String(),
		PhaseDatapath.String(), PhaseBISTSearch.String(),
	}
	st.IncrementalSpeedup = 0
	if el := time.Since(start); prev.coldTotal > 0 && el > 0 {
		st.IncrementalSpeedup = float64(prev.coldTotal) / float64(el)
	}
	res.Stats = st

	// Persist the rescheduled state. The key is zeroed: the one on file
	// describes the pre-edit schedule, and replaying against it after a
	// later (say, undoing) edit would resurrect a Result with the wrong
	// control program. The overlap matrix carries forward unchanged —
	// that's exactly what was just proven.
	stored := *prev
	stored.key = cache.Key{}
	stored.result = res.clone()
	ss.prev = &stored
	ss.deltas = nil
	return res, true, nil
}
