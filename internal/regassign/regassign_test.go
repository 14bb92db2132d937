package regassign

import (
	"sort"
	"strings"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/graph"
)

func TestTraditionalMinimum(t *testing.T) {
	for _, b := range benchdata.All() {
		min, err := b.Graph.MinRegisters()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := Traditional(b.Graph)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if rb.NumRegisters() != min {
			t.Errorf("%s: traditional used %d registers, minimum is %d", b.Name, rb.NumRegisters(), min)
		}
		if err := rb.Validate(b.Graph); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestBindMatchesPaperRegisterCounts(t *testing.T) {
	// Table I: the testable binder uses the same (minimum) register
	// count as the traditional one on every benchmark.
	for _, b := range benchdata.All() {
		mb, err := b.Modules()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := Bind(b.Graph, mb, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := rb.Validate(b.Graph); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if rb.NumRegisters() != b.PaperRegisters {
			t.Errorf("%s: %d registers, paper reports %d", b.Name, rb.NumRegisters(), b.PaperRegisters)
		}
	}
}

func TestBindEx1AvoidsAllForcedCBILBOs(t *testing.T) {
	b := benchdata.Ex1()
	mb, err := b.Modules()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Bind(b.Graph, mb, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f := ForcedCBILBOs(b.Graph, mb, rb.Sets()); len(f) != 0 {
		t.Errorf("ex1 testable binding forces CBILBOs: %v (binding %v)", f, rb)
	}
}

func TestBindDeterministic(t *testing.T) {
	b := benchdata.Tseng1()
	mb, _ := b.Modules()
	r1, err := Bind(b.Graph, mb, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Bind(b.Graph, mb, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r1.String() != r2.String() {
		t.Errorf("binder not deterministic:\n%v\n%v", r1, r2)
	}
}

func TestBindAblationsStillValid(t *testing.T) {
	b := benchdata.Paulin()
	mb, _ := b.Modules()
	configs := []Options{
		{},
		{SharingDegree: true},
		{SharingDegree: true, CaseOverrides: true},
		{SharingDegree: true, AvoidCBILBO: true},
		{SharingDegree: true, CaseOverrides: true, AvoidCBILBO: true, InterconnectTies: true},
	}
	for i, o := range configs {
		rb, err := Bind(b.Graph, mb, o)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if err := rb.Validate(b.Graph); err != nil {
			t.Errorf("config %d: %v", i, err)
		}
	}
}

func TestBindingAccessors(t *testing.T) {
	b := benchdata.Ex1()
	mb, _ := b.Modules()
	rb, err := Bind(b.Graph, mb, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rb.Registers {
		if rb.Register(r.Name) != r {
			t.Errorf("Register(%s) lookup failed", r.Name)
		}
		for _, v := range r.Vars {
			if rb.RegisterOf(v) != r.Name {
				t.Errorf("RegisterOf(%s) = %q, want %s", v, rb.RegisterOf(v), r.Name)
			}
		}
	}
	if rb.Register("nope") != nil {
		t.Error("unknown register lookup should be nil")
	}
	if !strings.Contains(rb.String(), "R1={") {
		t.Errorf("String() = %q", rb.String())
	}
}

func TestValidateCatchesBadBindings(t *testing.T) {
	b := benchdata.Ex1()
	g := b.Graph
	// Conflicting variables a and b (both alive in step 1) together.
	bad := FromSets([][]string{{"a", "b"}, {"c", "f"}, {"d", "g", "h"}, {"e"}})
	if err := bad.Validate(g); err == nil {
		t.Error("conflicting variables in one register accepted")
	}
	// Missing variable h.
	bad = FromSets([][]string{{"a", "c", "f"}, {"b", "d", "g"}, {"e"}})
	if err := bad.Validate(g); err == nil {
		t.Error("unbound variable accepted")
	}
	// Unknown variable.
	bad = FromSets([][]string{{"zz"}})
	if err := bad.Validate(g); err == nil {
		t.Error("unknown variable accepted")
	}
}

// Property: on random scheduled DFGs the binder always produces a valid
// partition, stays within one register of the traditional optimum, and
// never forces more CBILBOs than the traditional binding.
func TestBindRandomProperty(t *testing.T) {
	worseCount := 0
	totalTest, totalTrad := 0, 0
	trials := 40
	for seed := int64(0); seed < int64(trials); seed++ {
		g, mb, err := benchdata.RandomWithModules(benchdata.DefaultRandomConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		trad, err := Traditional(g)
		if err != nil {
			t.Fatalf("seed %d traditional: %v", seed, err)
		}
		rb, err := Bind(g, mb, DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d bind: %v", seed, err)
		}
		if err := rb.Validate(g); err != nil {
			t.Errorf("seed %d: invalid binding: %v", seed, err)
		}
		min, _ := g.MinRegisters()
		if trad.NumRegisters() != min {
			t.Errorf("seed %d: traditional %d registers, minimum %d", seed, trad.NumRegisters(), min)
		}
		if rb.NumRegisters() > min+1 {
			t.Errorf("seed %d: testable %d registers, minimum %d", seed, rb.NumRegisters(), min)
		}
		if rb.NumRegisters() > min {
			worseCount++
		}
		nb := len(ForcedCBILBOs(g, mb, rb.Sets()))
		nt := len(ForcedCBILBOs(g, mb, trad.Sets()))
		totalTest += nb
		totalTrad += nt
		// The greedy heuristic carries no per-instance dominance
		// guarantee, but it should never be much worse on one input.
		if nb > nt+1 {
			t.Errorf("seed %d: testable forces %d CBILBOs, traditional %d", seed, nb, nt)
		}
	}
	// In aggregate the testable binder must force fewer CBILBOs (the
	// paper's core claim).
	if totalTest >= totalTrad {
		t.Errorf("aggregate forced CBILBOs: testable %d, traditional %d (want strictly fewer)", totalTest, totalTrad)
	}
	// The heuristic should stay at the optimum almost always (the paper:
	// "in all the examples considered it resulted in the minimum").
	if worseCount > trials/10 {
		t.Errorf("testable binder exceeded minimum registers in %d/%d runs", worseCount, trials)
	}
}

// Property: the SD/MCS elimination order is a valid PVES of the conflict
// graph on every benchmark.
func TestPVESValidOnBenchmarks(t *testing.T) {
	for _, b := range benchdata.All() {
		cg, err := ConflictGraph(b.Graph)
		if err != nil {
			t.Fatal(err)
		}
		scheme, err := cg.PVES(nil)
		if err != nil {
			t.Fatalf("%s: conflict graph not chordal: %v", b.Name, err)
		}
		if err := cg.VerifyPVES(scheme); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

// The conflict graph of an interval specification equals the pairwise
// lifetime overlaps.
func TestConflictGraphMatchesLifetimes(t *testing.T) {
	b := benchdata.Tseng1()
	cg, err := ConflictGraph(b.Graph)
	if err != nil {
		t.Fatal(err)
	}
	lts, err := b.Graph.Lifetimes()
	if err != nil {
		t.Fatal(err)
	}
	vars := b.Graph.AllocVars()
	for i, u := range vars {
		for _, v := range vars[i+1:] {
			want := lts[u].Overlaps(lts[v])
			if got := cg.HasEdge(u, v); got != want {
				t.Errorf("edge(%s,%s) = %v, overlap = %v", u, v, got, want)
			}
		}
	}
	// Chromatic number equals max density for interval graphs.
	colors, err := cg.OptimalChordalColor()
	if err != nil {
		t.Fatal(err)
	}
	min, _ := b.Graph.MinRegisters()
	if len(graph.ColorClasses(colors)) != min {
		t.Errorf("chromatic %d != max density %d", len(graph.ColorClasses(colors)), min)
	}
}

func TestSetsAreSorted(t *testing.T) {
	b := benchdata.Ex2()
	mb, _ := b.Modules()
	rb, err := Bind(b.Graph, mb, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range rb.Sets() {
		if !sort.StringsAreSorted(set) {
			t.Errorf("register set %v not sorted", set)
		}
	}
}

func TestEnumerateMinimumBindings(t *testing.T) {
	b := benchdata.Ex1()
	parts, complete, err := EnumerateMinimumBindings(b.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Fatal("enumeration truncated")
	}
	// Our ex1 reconstruction has 36 minimum 3-register bindings (the
	// paper's Fig. 2 variant had 108 — a different conflict graph).
	if len(parts) != 36 {
		t.Errorf("got %d minimum bindings, want 36", len(parts))
	}
	seen := make(map[string]bool)
	for _, p := range parts {
		rb, err := BindingFromPartition(b.Graph, p)
		if err != nil {
			t.Fatalf("invalid enumerated binding: %v", err)
		}
		if rb.NumRegisters() != 3 {
			t.Errorf("binding with %d registers enumerated", rb.NumRegisters())
		}
		if key := rb.String(); seen[key] {
			t.Errorf("duplicate binding %s", key)
		} else {
			seen[key] = true
		}
	}
}

func TestEnumerateLimit(t *testing.T) {
	b := benchdata.Ex2()
	parts, complete, err := EnumerateMinimumBindings(b.Graph, 10)
	if err != nil {
		t.Fatal(err)
	}
	if complete || len(parts) != 10 {
		t.Errorf("limit not honored: %d bindings, complete=%v", len(parts), complete)
	}
}

func TestBindingFromPartitionRejectsBad(t *testing.T) {
	b := benchdata.Ex1()
	if _, err := BindingFromPartition(b.Graph, [][]string{{"a", "b"}}); err == nil {
		t.Error("partial/conflicting partition accepted")
	}
}

func TestBindTracedMatchesBind(t *testing.T) {
	for _, b := range benchdata.All() {
		mb, err := b.Modules()
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Bind(b.Graph, mb, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		traced, trace, err := BindTraced(b.Graph, mb, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if plain.String() != traced.String() {
			t.Errorf("%s: traced binding differs:\n%v\n%v", b.Name, plain, traced)
		}
		if len(trace) != len(b.Graph.AllocVars()) {
			t.Errorf("%s: %d decisions for %d variables", b.Name, len(trace), len(b.Graph.AllocVars()))
		}
		for i, d := range trace {
			if d.Index != i+1 || d.Var == "" || d.Note == "" {
				t.Errorf("%s: malformed decision %+v", b.Name, d)
			}
			if !d.NewRegister && d.Chosen < 0 {
				t.Errorf("%s: decision %d has no chosen register", b.Name, i)
			}
		}
	}
}

// The ex1 trace replays the paper's Section III.A.2 structure: the first
// decisions allocate fresh registers, later high-SD variables merge, and
// the formatted trace names every variable.
func TestTraceNarrativeEx1(t *testing.T) {
	b := benchdata.Ex1()
	mb, _ := b.Modules()
	_, trace, err := BindTraced(b.Graph, mb, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !trace[0].NewRegister {
		t.Error("first variable must open a register")
	}
	notes := make([]string, len(trace))
	for i, d := range trace {
		notes[i] = d.Note
	}
	text := strings.Join(notes, "\n")
	for _, v := range b.Graph.AllocVars() {
		if !strings.Contains(text, v+" (SD=") {
			t.Errorf("trace missing variable %s:\n%s", v, text)
		}
	}
	merges := 0
	for _, d := range trace {
		if !d.NewRegister {
			merges++
		}
	}
	if merges != len(trace)-3 { // 8 variables into 3 registers
		t.Errorf("expected %d merges, got %d", len(trace)-3, merges)
	}
}
