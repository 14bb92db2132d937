package bist

import (
	"context"
	"fmt"
	"testing"

	"bistpath/internal/area"
	"bistpath/internal/benchdata"
	"bistpath/internal/datapath"
	"bistpath/internal/dfg"
	"bistpath/internal/interconnect"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// buildBench returns the datapath for a benchmark with the paper's binder.
func buildBench(t testing.TB, b *benchdata.Benchmark, traditional bool) (*datapath.Datapath, *modassign.Binding, *regassign.Binding) {
	t.Helper()
	mb, err := b.Modules()
	if err != nil {
		t.Fatal(err)
	}
	var rb *regassign.Binding
	if traditional {
		rb, err = regassign.Traditional(b.Graph)
	} else {
		rb, err = regassign.Bind(b.Graph, mb, regassign.DefaultOptions())
	}
	if err != nil {
		t.Fatal(err)
	}
	ib, err := interconnect.Bind(b.Graph, mb, rb, regassign.NewSharing(b.Graph, mb))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := datapath.Build(b.Graph, mb, rb, ib, 8)
	if err != nil {
		t.Fatal(err)
	}
	return dp, mb, rb
}

func TestEmbeddingsBasic(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Ex1(), false)
	for _, m := range dp.Modules {
		embs := Embeddings(dp, m.Name, true)
		if len(embs) == 0 {
			t.Fatalf("module %s has no embeddings", m.Name)
		}
		for _, e := range embs {
			if e.HeadL == e.HeadR {
				t.Errorf("embedding with correlated heads: %v", e)
			}
			if interconnect.IsPad(e.Tail) {
				t.Errorf("pad used as tail: %v", e)
			}
		}
	}
	if Embeddings(dp, "nope", true) != nil {
		t.Error("unknown module should yield nil")
	}
}

func TestEmbeddingCBILBODetection(t *testing.T) {
	e := Embedding{Module: "M", HeadL: "R1", HeadR: "R2", Tail: "R1"}
	if !e.NeedsCBILBO() || e.CBILBORegister() != "R1" {
		t.Error("head==tail not detected")
	}
	e = Embedding{Module: "M", HeadL: "R1", HeadR: "R2", Tail: "R3"}
	if e.NeedsCBILBO() || e.CBILBORegister() != "" {
		t.Error("false CBILBO")
	}
}

func TestOptimizeBenchmarks(t *testing.T) {
	for _, b := range benchdata.All() {
		for _, trad := range []bool{false, true} {
			dp, _, _ := buildBench(t, b, trad)
			plan, err := Optimize(dp, DefaultOptions(8))
			if err != nil {
				t.Fatalf("%s trad=%v: %v", b.Name, trad, err)
			}
			if !plan.Exact {
				t.Errorf("%s: expected exact search", b.Name)
			}
			if err := plan.Validate(dp); err != nil {
				t.Errorf("%s: %v", b.Name, err)
			}
			if plan.ExtraArea <= 0 {
				t.Errorf("%s: zero BIST area?", b.Name)
			}
		}
	}
}

// Table I's core claim: the testable binding never costs more BIST area
// than the traditional one, on every benchmark.
func TestTestableNeverWorseThanTraditional(t *testing.T) {
	for _, b := range benchdata.All() {
		dpT, _, _ := buildBench(t, b, false)
		dpR, _, _ := buildBench(t, b, true)
		pT, err := Optimize(dpT, DefaultOptions(8))
		if err != nil {
			t.Fatal(err)
		}
		pR, err := Optimize(dpR, DefaultOptions(8))
		if err != nil {
			t.Fatal(err)
		}
		if pT.ExtraArea > pR.ExtraArea {
			t.Errorf("%s: testable BIST area %d > traditional %d", b.Name, pT.ExtraArea, pR.ExtraArea)
		}
		cb := func(p *Plan) int { return p.StyleCount()[area.CBILBO] }
		if cb(pT) > cb(pR) {
			t.Errorf("%s: testable CBILBOs %d > traditional %d", b.Name, cb(pT), cb(pR))
		}
	}
}

// Lemma 2 cross-check: on pad-free data paths produced by our
// minimum-connectivity binder, the assignment-level Lemma 2 prediction
// must match brute-force enumeration over the netlist's embeddings.
func TestLemma2MatchesEnumeration(t *testing.T) {
	padFree := []*benchdata.Benchmark{benchdata.Ex1(), benchdata.Ex2(), benchdata.Tseng1(), benchdata.Tseng2()}
	for _, b := range padFree {
		for _, trad := range []bool{false, true} {
			dp, mb, rb := buildBench(t, b, trad)
			forced := regassign.ForcedCBILBOs(b.Graph, mb, rb.Sets())
			predicted := make(map[string]bool)
			for _, f := range forced {
				predicted[f.Module] = true
			}
			for _, m := range dp.Modules {
				got := ForcedCBILBOByEnumeration(dp, m.Name, false)
				if got != predicted[m.Name] {
					t.Errorf("%s trad=%v module %s: enumeration=%v lemma2=%v",
						b.Name, trad, m.Name, got, predicted[m.Name])
				}
			}
		}
	}
}

// Same cross-check on random DFGs (no port inputs by construction).
func TestLemma2MatchesEnumerationRandom(t *testing.T) {
	for seed := int64(200); seed < 240; seed++ {
		g, mb, err := benchdata.RandomWithModules(benchdata.DefaultRandomConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ib, err := interconnect.Bind(g, mb, rb, regassign.NewSharing(g, mb))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dp, err := datapath.Build(g, mb, rb, ib, 8)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		predicted := make(map[string]bool)
		for _, f := range regassign.ForcedCBILBOs(g, mb, rb.Sets()) {
			predicted[f.Module] = true
		}
		for _, m := range dp.Modules {
			got := ForcedCBILBOByEnumeration(dp, m.Name, false)
			if got != predicted[m.Name] {
				t.Errorf("seed %d module %s: enumeration=%v lemma2=%v", seed, m.Name, got, predicted[m.Name])
			}
		}
	}
}

func TestSessionsRespectConflicts(t *testing.T) {
	for _, b := range benchdata.All() {
		dp, _, _ := buildBench(t, b, false)
		plan, err := Optimize(dp, DefaultOptions(8))
		if err != nil {
			t.Fatal(err)
		}
		for _, sess := range plan.Sessions {
			if err := plan.checkSession(sess); err != nil {
				t.Errorf("%s: %v", b.Name, err)
			}
		}
		total := 0
		for _, s := range plan.Sessions {
			total += len(s)
		}
		if total != len(dp.Modules) {
			t.Errorf("%s: %d modules scheduled, want %d", b.Name, total, len(dp.Modules))
		}
	}
}

func TestSharedSAForcesSeparateSessions(t *testing.T) {
	p := &Plan{
		Embeddings: map[string]Embedding{
			"A": {Module: "A", HeadL: "R1", HeadR: "R2", Tail: "R3"},
			"B": {Module: "B", HeadL: "R1", HeadR: "R2", Tail: "R3"},
		},
		Styles: map[string]area.Style{"R1": area.TPG, "R2": area.TPG, "R3": area.SA},
	}
	if !p.sessionConflict("A", "B") {
		t.Error("shared SA not flagged")
	}
	p.Sessions = ScheduleSessions(p)
	if len(p.Sessions) != 2 {
		t.Errorf("sessions = %v, want 2", p.Sessions)
	}
}

func TestTPGSharingAllowedInOneSession(t *testing.T) {
	p := &Plan{
		Embeddings: map[string]Embedding{
			"A": {Module: "A", HeadL: "R1", HeadR: "R2", Tail: "R3"},
			"B": {Module: "B", HeadL: "R1", HeadR: "R2", Tail: "R4"},
		},
		Styles: map[string]area.Style{"R1": area.TPG, "R2": area.TPG, "R3": area.SA, "R4": area.SA},
	}
	if p.sessionConflict("A", "B") {
		t.Error("pure TPG sharing flagged as conflict")
	}
	p.Sessions = ScheduleSessions(p)
	if len(p.Sessions) != 1 {
		t.Errorf("sessions = %v, want 1", p.Sessions)
	}
}

func TestCrossTPGSANeedsCBILBOOrSeparateSessions(t *testing.T) {
	mk := func(style area.Style) *Plan {
		return &Plan{
			Embeddings: map[string]Embedding{
				"A": {Module: "A", HeadL: "R1", HeadR: "R2", Tail: "R3"},
				"B": {Module: "B", HeadL: "R3", HeadR: "R2", Tail: "R4"},
			},
			Styles: map[string]area.Style{"R1": area.TPG, "R2": area.TPG, "R3": style, "R4": area.SA},
		}
	}
	// R3 is SA for A and TPG for B: BILBO -> conflict, CBILBO -> fine.
	if !mk(area.BILBO).sessionConflict("A", "B") {
		t.Error("BILBO cross use not flagged")
	}
	if mk(area.CBILBO).sessionConflict("A", "B") {
		t.Error("CBILBO cross use wrongly flagged")
	}
}

func TestOptimizeNoEmbeddingError(t *testing.T) {
	// A module whose every port source is a pad and pad heads are
	// disallowed must be rejected.
	g := dfg.New("pads")
	g.AddInput("a", "b")
	g.MarkPortInput("a", "b")
	g.AddOp("m1", dfg.Mul, 1, "x", "a", "b")
	g.MarkOutput("x")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mb, err := modassign.FromMap(g, map[string]string{"m1": "M1"})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ib, err := interconnect.Bind(g, mb, rb, nil)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := datapath.Build(g, mb, rb, ib, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(8)
	opts.AllowPadHeads = false
	if _, err := Optimize(dp, opts); err == nil {
		t.Error("module with pad-only heads accepted without pad TPGs")
	}
	// With pad heads allowed it must succeed at zero register cost for
	// the heads (only the SA tail costs area).
	plan, err := Optimize(dp, DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.ExtraArea; got != area.Default(8).StyleExtra(area.SA) {
		t.Errorf("extra area = %d, want one SA upgrade", got)
	}
}

func TestOptimizeIsMinimal(t *testing.T) {
	// Exhaustive check on ex1: no embedding choice beats the optimizer.
	dp, _, _ := buildBench(t, benchdata.Ex1(), false)
	plan, err := Optimize(dp, DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	model := area.Default(8)
	var mods []string
	var embs [][]Embedding
	for _, m := range dp.Modules {
		mods = append(mods, m.Name)
		embs = append(embs, Embeddings(dp, m.Name, true))
	}
	best := -1
	var rec func(i int, cur map[string]Embedding)
	rec = func(i int, cur map[string]Embedding) {
		if i == len(mods) {
			if c := extraArea(model, stylesOf(cur)); best < 0 || c < best {
				best = c
			}
			return
		}
		for _, e := range embs[i] {
			cur[mods[i]] = e
			rec(i+1, cur)
			delete(cur, mods[i])
		}
	}
	rec(0, map[string]Embedding{})
	if plan.ExtraArea != best {
		t.Errorf("optimizer found %d, exhaustive minimum is %d", plan.ExtraArea, best)
	}
}

// MinimizeSessions: same minimal area, never more sessions.
func TestMinimizeSessionsTieBreak(t *testing.T) {
	for _, b := range benchdata.All() {
		dp, _, _ := buildBench(t, b, false)
		base, err := Optimize(dp, DefaultOptions(8))
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions(8)
		opts.MinimizeSessions = true
		tuned, err := Optimize(dp, opts)
		if err != nil {
			t.Fatal(err)
		}
		if tuned.ExtraArea != base.ExtraArea {
			t.Errorf("%s: session tuning changed area: %d vs %d", b.Name, tuned.ExtraArea, base.ExtraArea)
		}
		if tuned.NumSessions() > base.NumSessions() {
			t.Errorf("%s: tuned sessions %d > base %d", b.Name, tuned.NumSessions(), base.NumSessions())
		}
		if err := tuned.Validate(dp); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

// Lemma 1 of the paper: if every BIST embedding of a module requires a
// CBILBO, the module's output variables span at most two registers.
// Verified empirically over every minimum binding of ex1 and random
// DFGs.
func TestLemma1Property(t *testing.T) {
	check := func(g *dfg.Graph, mb *modassign.Binding, rb *regassign.Binding) {
		t.Helper()
		ib, err := interconnect.Bind(g, mb, rb, nil)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := datapath.Build(g, mb, rb, ib, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range dp.Modules {
			if !ForcedCBILBOByEnumeration(dp, m.Name, false) {
				continue
			}
			outRegs := make(map[string]bool)
			for _, opName := range mb.Module(m.Name).Ops {
				outRegs[rb.RegisterOf(g.Op(opName).Result)] = true
			}
			if len(outRegs) > 2 {
				t.Errorf("Lemma 1 violated: forced module %s has %d output registers", m.Name, len(outRegs))
			}
		}
	}
	// Every minimum binding of ex1.
	b := benchdata.Ex1()
	mb, err := b.Modules()
	if err != nil {
		t.Fatal(err)
	}
	parts, complete, err := regassign.EnumerateMinimumBindings(b.Graph, 0)
	if err != nil || !complete {
		t.Fatal(err)
	}
	for _, p := range parts {
		rb, err := regassign.BindingFromPartition(b.Graph, p)
		if err != nil {
			t.Fatal(err)
		}
		check(b.Graph, mb, rb)
	}
	// Random DFGs with both binders.
	for seed := int64(400); seed < 420; seed++ {
		g, rmb, err := benchdata.RandomWithModules(benchdata.DefaultRandomConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, trad := range []bool{false, true} {
			var rb *regassign.Binding
			if trad {
				rb, err = regassign.Traditional(g)
			} else {
				rb, err = regassign.Bind(g, rmb, regassign.DefaultOptions())
			}
			if err != nil {
				t.Fatal(err)
			}
			check(g, rmb, rb)
		}
	}
}

// planKey renders the full plan for equality comparison.
func planKey(p *Plan) string {
	return fmt.Sprintf("area=%d exact=%v embs=%v styles=%v sessions=%v",
		p.ExtraArea, p.Exact, p.Embeddings, p.Styles, p.Sessions)
}

// OptimizeCtx returns context.Canceled for a context cancelled up front.
func TestOptimizeCtxCancelled(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Ex1(), false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizeCtx(ctx, dp, DefaultOptions(8)); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// When the node budget truncates the exact search, the greedy fallback
// supplies a valid inexact plan, the same on a fresh and on a reused
// Scratch.
func TestOptimizeTinyBudgetFallback(t *testing.T) {
	dp, _, _ := buildBench(t, benchdata.Tseng1(), false)
	opts := DefaultOptions(8)
	opts.NodeBudget = 1
	var keys []string
	for _, sc := range []*Scratch{nil, NewScratch()} {
		opts.Scratch = sc
		for range 2 {
			p, err := Optimize(dp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if p.Exact {
				t.Fatal("budget of 1 node reported exact")
			}
			if err := p.Validate(dp); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, planKey(p))
		}
	}
	for i, k := range keys[1:] {
		if k != keys[0] {
			t.Errorf("fallback plan %d differs:\n%s\nvs\n%s", i+1, k, keys[0])
		}
	}
}
