package bistpath

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"math/rand"
	"testing"
)

// stripStatsJSON renders a Result's JSON with the "stats" member
// removed — the one part of the document that is wall-time dependent.
// Everything else is covered by the determinism contract, so two
// Results for the same design must agree on it byte for byte.
func stripStatsJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	delete(m, "stats")
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(out)
}

// assertSameResult asserts the incremental and from-scratch results are
// identical in every deterministic observable: strict ReportText
// equality and stats-stripped JSON equality.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if g, w := got.ReportText(), want.ReportText(); g != w {
		t.Errorf("%s: ReportText diverges\n--- incremental ---\n%s\n--- from scratch ---\n%s", label, g, w)
	}
	if g, w := stripStatsJSON(t, got), stripStatsJSON(t, want); g != w {
		t.Errorf("%s: stats-stripped JSON diverges\n--- incremental ---\n%s\n--- from scratch ---\n%s", label, g, w)
	}
}

func hasPhase(st Stats, ph Phase) bool {
	for _, p := range st.ReusedPhases {
		if p == ph.String() {
			return true
		}
	}
	return false
}

func TestSessionReplaysUnchangedDesign(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.NewSession(d, mods)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	cold, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Stats.ReusedPhases) != 0 {
		t.Fatalf("first run reused phases: %v", cold.Stats.ReusedPhases)
	}

	// No edits at all → full replay.
	again, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Stats.ReusedPhases) != len(allPhaseNames()) {
		t.Fatalf("unchanged design reused %v, want all phases", again.Stats.ReusedPhases)
	}
	if again.Stats.IncrementalSpeedup <= 0 {
		t.Errorf("replay run has no IncrementalSpeedup: %v", again.Stats.IncrementalSpeedup)
	}
	assertSameResult(t, "replay", again, cold)

	// A structural edit that is undone before Resynthesize leaves the
	// cache key, which sees the net effect, not the edit log, unchanged
	// — a full replay.
	if err := ss.RetimePort("a", true); err != nil {
		t.Fatal(err)
	}
	if err := ss.RetimePort("a", false); err != nil {
		t.Fatal(err)
	}
	reverted, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reverted.Stats.ReusedPhases) != len(allPhaseNames()) {
		t.Fatalf("undone structural edit reused %v, want all phases", reverted.Stats.ReusedPhases)
	}
	assertSameResult(t, "undone structural edit", reverted, cold)

	// A step edit that is undone still nets out to the previous design,
	// but takes the reschedule fast path: only validation re-runs;
	// everything downstream is reused.
	step := ss.g.Op("mul2").Step
	if err := ss.SetStep("mul2", step+1); err != nil {
		t.Fatal(err)
	}
	if err := ss.SetStep("mul2", step); err != nil {
		t.Fatal(err)
	}
	undone, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []Phase{PhaseRegisterBind, PhaseInterconnect, PhaseDatapath, PhaseBISTSearch} {
		if !hasPhase(undone.Stats, ph) {
			t.Fatalf("undone step edit reused %v, missing %s", undone.Stats.ReusedPhases, ph)
		}
	}
	assertSameResult(t, "undone step edit", undone, cold)
}

func TestSessionConflictPreservingEditReusesBindAndPlan(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.NewSession(d, mods)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if _, err := ss.Resynthesize(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Moving mul2 from step 4 to 5 preserves every lifetime overlap and
	// the data-path structure (established by the incremental CI gate's
	// benchmark design), so both expensive phases must be reused.
	if err := ss.SetStep("mul2", 5); err != nil {
		t.Fatal(err)
	}
	warm, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hasPhase(warm.Stats, PhaseRegisterBind) {
		t.Errorf("register-bind not reused: %v", warm.Stats.ReusedPhases)
	}
	if !hasPhase(warm.Stats, PhaseBISTSearch) {
		t.Errorf("bist-search not spliced: %v", warm.Stats.ReusedPhases)
	}
	if warm.Stats.IncrementalSpeedup <= 0 {
		t.Errorf("no IncrementalSpeedup recorded: %v", warm.Stats.IncrementalSpeedup)
	}

	// The incremental result must match a from-scratch synthesis of the
	// edited design exactly.
	ref := &DFG{g: d.g.Clone()}
	ref.g.Op("mul2").Step = 5
	want, err := ref.SynthesizeCtx(context.Background(), mods, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "mul2@5", warm, want)
}

// A conflict-preserving edit batch that leaves the steps-only fast path
// (a no-op remap rides along) splices the previous plan inside the
// pipeline, for the weighted objective as for the area one. The result
// must match a cold run of the edited design, and — since the spliced
// search expanded no nodes — add nothing to the cumulative search-effort
// counters: each pipeline pass records the effort it actually spent,
// and the pass itself still counts once.
func TestSessionSpliceRecordsNoSearchEffort(t *testing.T) {
	weighted := DefaultConfig()
	weighted.Objective = WeightedSum
	s := New(DefaultConfig())
	defer s.Close()
	for _, cfg := range []Config{DefaultConfig(), weighted} {
		d, mods, err := Benchmark("ex1")
		if err != nil {
			t.Fatal(err)
		}
		ss, err := s.NewSessionConfig(d, mods, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		if _, err := ss.Resynthesize(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := ss.SetStep("mul2", 5); err != nil {
			t.Fatal(err)
		}
		if err := ss.RemapModule("mul2", mods["mul2"]); err != nil {
			t.Fatal(err)
		}
		counters := []struct {
			name string
			v    *expvar.Int
			want int64 // growth across the spliced run
			from int64
		}{
			{"syntheses", expSyntheses, 1, 0},
			{"search_nodes", expNodes, 0, 0},
			{"bound_prunes", expPrunes, 0, 0},
			{"embeddings_enumerated", expEmbeddings, 0, 0},
		}
		for i := range counters {
			counters[i].from = counters[i].v.Value()
		}
		res, err := ss.Resynthesize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !hasPhase(res.Stats, PhaseBISTSearch) {
			t.Fatalf("%s: bist-search not spliced: %v", cfg.Objective, res.Stats.ReusedPhases)
		}
		for _, c := range counters {
			if got := c.v.Value() - c.from; got != c.want {
				t.Errorf("%s: bistpath.%s grew by %d around a spliced Resynthesize, want %d",
					cfg.Objective, c.name, got, c.want)
			}
		}
		d.g.Op("mul2").Step = 5
		want, err := d.SynthesizeCtx(context.Background(), mods, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, cfg.Objective.String(), res, want)
	}
}

// sharedModuleDesign runs two adds with identical operands on module M1
// at steps 1 and 2. Exchanging their steps preserves every lifetime
// overlap but reverses M1's (step, name) op order; moving op1 onto step
// 2 preserves the overlaps too but makes M1 run two ops in one step.
const sharedModuleDesign = `dfg shared
input in0 in1
op op1 + in0 in1 -> v1 @1
op op2 + in0 in1 -> v2 @2
op op3 - in1 v1 -> v3 @3
op op4 < in0 v1 -> v4 @4
op op5 < v4 v2 -> v5 @5
op op6 + v3 v5 -> v6 @6
output v6
`

var sharedModuleMap = map[string]string{
	"op1": "M1", "op2": "M1", "op3": "M2", "op4": "M3", "op5": "M3", "op6": "M1",
}

// openSharedModuleSession opens a session on sharedModuleDesign with the
// given module map (nil = automatic binding) and runs it once, so the
// next Resynthesize is eligible for the fast path.
func openSharedModuleSession(t *testing.T, mods map[string]string) (*DFG, *Session) {
	t.Helper()
	d, err := ParseDFG(sharedModuleDesign)
	if err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig())
	t.Cleanup(func() { s.Close() })
	ss, err := s.NewSession(d, mods)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	if _, err := ss.Resynthesize(context.Background()); err != nil {
		t.Fatal(err)
	}
	return d, ss
}

// A step edit that moves an op past another op of its module changes
// the module's op order, and with it the report and the interconnect
// tie-break's bit order: the session must not replay the previous
// binding, and its result must equal a cold synthesis.
func TestSessionStepEditReorderingModuleOpsMatchesCold(t *testing.T) {
	d, ss := openSharedModuleSession(t, sharedModuleMap)
	if err := ss.SetStep("op1", 2); err != nil {
		t.Fatal(err)
	}
	if err := ss.SetStep("op2", 1); err != nil {
		t.Fatal(err)
	}
	got, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := &DFG{g: d.g.Clone()}
	ref.g.Op("op1").Step, ref.g.Op("op2").Step = 2, 1
	want, err := ref.SynthesizeCtx(context.Background(), sharedModuleMap, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "op1<->op2", got, want)
}

// A step edit that puts two ops of one module in the same step must
// fail as a cold synthesis does, leave the edit pending, and leave the
// session usable once the edit is undone.
func TestSessionStepEditCollidingOnModuleFailsLikeCold(t *testing.T) {
	d, ss := openSharedModuleSession(t, sharedModuleMap)
	if err := ss.SetStep("op1", 2); err != nil {
		t.Fatal(err)
	}
	ref := &DFG{g: d.g.Clone()}
	ref.g.Op("op1").Step = 2
	_, coldErr := ref.SynthesizeCtx(context.Background(), sharedModuleMap, DefaultConfig())
	if coldErr == nil {
		t.Fatal("cold synthesis accepted two ops of M1 in one step")
	}
	_, err := ss.Resynthesize(context.Background())
	if err == nil || err.Error() != coldErr.Error() {
		t.Fatalf("Resynthesize err = %v, want the cold error %v", err, coldErr)
	}
	var se *SynthesisError
	if !errors.As(err, &se) || se.Phase != PhaseValidate {
		t.Fatalf("err = %v, want a validate-phase *SynthesisError", err)
	}
	if len(ss.Deltas()) != 1 {
		t.Fatalf("failed Resynthesize consumed deltas: %v", ss.Deltas())
	}
	if err := ss.SetStep("op1", 1); err != nil {
		t.Fatal(err)
	}
	got, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.SynthesizeCtx(context.Background(), sharedModuleMap, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "undone collision", got, want)
}

// Under automatic module binding the same collision is legal but moves
// op1 to a module of its own: the session must rebind rather than
// replay the previous binding, and match a cold synthesis.
func TestSessionStepEditRebindingAutomaticModulesMatchesCold(t *testing.T) {
	d, ss := openSharedModuleSession(t, nil)
	if err := ss.SetStep("op1", 2); err != nil {
		t.Fatal(err)
	}
	got, err := ss.Resynthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := &DFG{g: d.g.Clone()}
	ref.g.Op("op1").Step = 2
	want, err := ref.SynthesizeCtx(context.Background(), nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "auto op1@2", got, want)
}

func TestSessionMutatorValidation(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.NewSession(d, mods)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	if err := ss.SetStep("nosuch", 1); err == nil {
		t.Error("SetStep on unknown op succeeded")
	}
	if err := ss.SetStep("mul2", 0); err == nil {
		t.Error("SetStep to step 0 succeeded")
	}
	if err := ss.ReplaceOp("mul2", "%%"); err == nil {
		t.Error("ReplaceOp with invalid kind succeeded")
	}
	if err := ss.RetimePort("nosuch", true); err == nil {
		t.Error("RetimePort on unknown variable succeeded")
	}
	// Port-marking requires a primary input: op results are not eligible.
	if err := ss.RetimePort(ss.g.Op("mul2").Result, true); err == nil {
		t.Error("RetimePort on a non-input succeeded")
	}
	if len(ss.Deltas()) != 0 {
		t.Errorf("failed edits recorded deltas: %v", ss.Deltas())
	}

	auto, err := s.NewSession(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	if err := auto.RemapModule("mul2", "m1"); err == nil {
		t.Error("RemapModule on an automatic-binding session succeeded")
	}
}

func TestSessionDeltasRecordedAndConsumed(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.NewSession(d, mods)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	if err := ss.SetStep("mul2", 5); err != nil {
		t.Fatal(err)
	}
	if err := ss.ReplaceOp("mul2", "*"); err != nil {
		t.Fatal(err)
	}
	ds := ss.Deltas()
	if len(ds) != 2 || ds[0].Kind != DeltaSetStep || ds[1].Kind != DeltaReplaceOp {
		t.Fatalf("deltas = %v", ds)
	}
	if ds[0].String() != "set-step mul2 @5" {
		t.Errorf("Delta.String = %q", ds[0].String())
	}
	if _, err := ss.Resynthesize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ss.Deltas()) != 0 {
		t.Errorf("successful Resynthesize left deltas pending: %v", ss.Deltas())
	}
}

func TestSessionClosed(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.NewSession(d, mods)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ss.SetStep("mul2", 5); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("SetStep after Close: %v", err)
	}
	if _, err := ss.Resynthesize(context.Background()); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Resynthesize after Close: %v", err)
	}
	if err := ss.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	// A closed Synthesizer refuses new sessions ...
	s2 := New(DefaultConfig())
	s2.Close()
	if _, err := s2.NewSession(d, mods); !errors.Is(err, ErrSynthesizerClosed) {
		t.Errorf("NewSession on closed synthesizer: %v", err)
	}
}

func TestSessionIsolatedFromCallerDFG(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.NewSession(d, mods)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	before := d.g.Op("mul2").Step
	if err := ss.SetStep("mul2", before+1); err != nil {
		t.Fatal(err)
	}
	if d.g.Op("mul2").Step != before {
		t.Error("session edit leaked into the caller's DFG")
	}
	mods["mul2"] = "corrupted"
	if ss.opToModule["mul2"] == "corrupted" {
		t.Error("caller's map edit leaked into the session")
	}
}

// applyRandomEdit drives one random mutator on the session and mirrors
// it on a plain graph + module map, so the mirror can be synthesized
// from scratch as the ground truth. Returns false if the chosen edit
// was rejected (and therefore mirrored nowhere).
func applyRandomEdit(t *testing.T, rng *rand.Rand, ss *Session, mirror *DFG, mirrorMods map[string]string) bool {
	t.Helper()
	ops := mirror.g.Ops()
	op := ops[rng.Intn(len(ops))]
	switch rng.Intn(4) {
	case 0, 1: // reschedule, the common incremental edit
		step := 1 + rng.Intn(mirror.g.NumSteps()+1)
		if err := ss.SetStep(op.Name, step); err != nil {
			t.Fatalf("SetStep(%s, %d): %v", op.Name, step, err)
		}
		mirror.g.Op(op.Name).Step = step
	case 2: // toggle a port mark on a random primary input
		var inputs []string
		for _, v := range mirror.g.Vars() {
			if v.IsInput {
				inputs = append(inputs, v.Name)
			}
		}
		if len(inputs) == 0 {
			return false
		}
		name := inputs[rng.Intn(len(inputs))]
		port := !mirror.g.Var(name).IsPort
		if err := ss.RetimePort(name, port); err != nil {
			t.Fatalf("RetimePort(%s, %t): %v", name, port, err)
		}
		mirror.g.Var(name).IsPort = port
	case 3: // remap to another module of the explicit map
		var pool []string
		seen := map[string]bool{}
		for _, m := range mirrorMods {
			if !seen[m] {
				seen[m] = true
				pool = append(pool, m)
			}
		}
		if len(pool) < 2 {
			return false
		}
		target := pool[rng.Intn(len(pool))]
		if err := ss.RemapModule(op.Name, target); err != nil {
			t.Fatalf("RemapModule(%s, %s): %v", op.Name, target, err)
		}
		mirrorMods[op.Name] = target
	}
	return true
}

// TestSessionDifferentialRandomEdits is the tentpole's property test:
// over random designs, random edit scripts and the configs whose plans
// splice differently (area, weighted sum, auto search), every
// Resynthesize must be indistinguishable (stats aside) from a
// from-scratch synthesis of the identically edited mirror design —
// including agreeing on whether the edited design is synthesizable at
// all.
func TestSessionDifferentialRandomEdits(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	weighted := DefaultConfig()
	weighted.Objective = WeightedSum
	weighted.Weights = Weights{Area: 1, TestTime: 2, PeakPower: 3}
	auto := DefaultConfig()
	auto.Search = SearchAuto
	s := New(DefaultConfig())
	defer s.Close()
	for _, cfg := range []Config{DefaultConfig(), weighted, auto} {
		for seed := int64(1); seed <= 6; seed++ {
			d, mods, err := RandomDesign(seed)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ss, err := s.NewSessionConfig(d, mods, cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			mirror := &DFG{g: d.g.Clone()}
			mirrorMods := make(map[string]string, len(mods))
			for k, v := range mods {
				mirrorMods[k] = v
			}
			rng := rand.New(rand.NewSource(seed * 977))
			for round := 0; round < 6; round++ {
				for n := 1 + rng.Intn(3); n > 0; n-- {
					applyRandomEdit(t, rng, ss, mirror, mirrorMods)
				}
				got, errGot := ss.Resynthesize(context.Background())
				want, errWant := mirror.SynthesizeCtx(context.Background(), mirrorMods, cfg)
				if (errGot == nil) != (errWant == nil) {
					t.Fatalf("%s/%s seed %d round %d: incremental err %v, from-scratch err %v\ndesign:\n%s",
						cfg.Objective, cfg.Search, seed, round, errGot, errWant, mirror.Text())
				}
				if errGot != nil {
					continue // both rejected the edited design the same way
				}
				assertSameResult(t, "seed/round", got, want)
				if t.Failed() {
					t.Fatalf("%s/%s seed %d round %d diverged (reused %v)\ndesign:\n%s",
						cfg.Objective, cfg.Search, seed, round, got.Stats.ReusedPhases, mirror.Text())
				}
			}
			ss.Close()
		}
	}
}
