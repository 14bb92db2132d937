package bistpath

import (
	"context"
	"strings"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/bist"
	"bistpath/internal/datapath"
	"bistpath/internal/interconnect"
	"bistpath/internal/regassign"
)

func TestBenchmarkAccess(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 5 {
		t.Fatalf("got %d benchmarks: %v", len(names), names)
	}
	for _, n := range names {
		d, mods, err := Benchmark(n)
		if err != nil {
			t.Fatal(err)
		}
		if d.Name() != n || len(mods) == 0 {
			t.Errorf("benchmark %s malformed", n)
		}
	}
	if _, _, err := Benchmark("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSynthesizeBothModes(t *testing.T) {
	for _, n := range BenchmarkNames() {
		d, mods, _ := Benchmark(n)
		for _, mode := range []Mode{Testable, TraditionalHLS} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", n, mode, err)
			}
			if res.NumRegisters() == 0 || len(res.Modules) == 0 {
				t.Errorf("%s: empty result", n)
			}
			if res.BISTArea <= res.BaseArea {
				t.Errorf("%s: BIST area %d not above base %d", n, res.BISTArea, res.BaseArea)
			}
			if res.OverheadPct <= 0 || res.OverheadPct > 60 {
				t.Errorf("%s: implausible overhead %.2f%%", n, res.OverheadPct)
			}
			if err := res.SelfCheck(25, 7); err != nil {
				t.Errorf("%s %v: %v", n, mode, err)
			}
		}
	}
}

// The paper's headline claim as an executable assertion: on every
// benchmark, the testable flow has lower BIST area overhead than the
// traditional flow at equal register count.
func TestTableIShape(t *testing.T) {
	for _, n := range BenchmarkNames() {
		d, mods, _ := Benchmark(n)
		cfgT := DefaultConfig()
		cfgR := DefaultConfig()
		cfgR.Mode = TraditionalHLS
		testable, err := d.SynthesizeCtx(context.Background(), mods, cfgT)
		if err != nil {
			t.Fatal(err)
		}
		trad, err := d.SynthesizeCtx(context.Background(), mods, cfgR)
		if err != nil {
			t.Fatal(err)
		}
		if testable.NumRegisters() != trad.NumRegisters() {
			t.Errorf("%s: register counts differ: %d vs %d", n, testable.NumRegisters(), trad.NumRegisters())
		}
		if testable.OverheadPct >= trad.OverheadPct {
			t.Errorf("%s: testable overhead %.2f%% not below traditional %.2f%%",
				n, testable.OverheadPct, trad.OverheadPct)
		}
		if testable.StyleCounts["CBILBO"] > trad.StyleCounts["CBILBO"] {
			t.Errorf("%s: testable has more CBILBOs (%d) than traditional (%d)",
				n, testable.StyleCounts["CBILBO"], trad.StyleCounts["CBILBO"])
		}
	}
}

func TestBuilderAndAutoSchedule(t *testing.T) {
	d := NewDFG("demo")
	if err := d.AddInput("a", "b", "c", "d"); err != nil {
		t.Fatal(err)
	}
	mustOp := func(name, kind, res string, args ...string) {
		t.Helper()
		if err := d.AddOp(name, kind, 0, res, args...); err != nil {
			t.Fatal(err)
		}
	}
	mustOp("m1", "*", "t1", "a", "b")
	mustOp("m2", "*", "t2", "c", "d")
	mustOp("s1", "+", "t3", "t1", "t2")
	if err := d.MarkOutput("t3"); err != nil {
		t.Fatal(err)
	}
	if err := d.AutoSchedule(map[string]int{"*": 1}); err != nil {
		t.Fatal(err)
	}
	if d.NumSteps() != 3 {
		t.Errorf("schedule length %d, want 3 (one multiplier)", d.NumSteps())
	}
	res, err := d.SynthesizeCtx(context.Background(), nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.SelfCheck(20, 3); err != nil {
		t.Error(err)
	}
}

func TestParseDFGAndText(t *testing.T) {
	d, err := ParseDFG(`
dfg parsed
input a b
op o1 + a b -> x @1
op o2 * x a -> y @2
output y
`)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSteps() != 2 {
		t.Errorf("steps = %d", d.NumSteps())
	}
	if _, err := ParseDFG(d.Text()); err != nil {
		t.Errorf("round trip failed: %v", err)
	}
	if _, err := ParseDFG("garbage here"); err == nil {
		t.Error("garbage accepted")
	}
	vals, err := d.Eval(map[string]uint64{"a": 2, "b": 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if vals["y"] != 10 {
		t.Errorf("y = %d, want 10", vals["y"])
	}
}

func TestResultRenderings(t *testing.T) {
	d, mods, _ := Benchmark("ex1")
	res, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.NetlistText(), "datapath ex1") {
		t.Error("netlist text incomplete")
	}
	if !strings.Contains(res.DatapathDot(), "digraph") {
		t.Error("dot output incomplete")
	}
	sum := res.StyleSummary()
	if sum == "" || sum == "none" {
		t.Errorf("style summary = %q", sum)
	}
	if res.NumBISTRegisters() == 0 {
		t.Error("no BIST registers reported")
	}
	if len(res.Sessions) == 0 {
		t.Error("no test sessions")
	}
	for _, r := range res.Registers {
		if r.Style == "" || len(r.Vars) == 0 {
			t.Errorf("register info incomplete: %+v", r)
		}
	}
	for _, m := range res.Modules {
		if m.Embedding == "" {
			t.Errorf("module %s missing embedding", m.Name)
		}
	}
}

func TestSimulatePublic(t *testing.T) {
	d, mods, _ := Benchmark("ex1")
	res, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// ex1: d=a+b, c=e*g, f=c+d, h=f*g
	out, err := res.Simulate(map[string]uint64{"a": 1, "b": 2, "e": 3, "g": 4})
	if err != nil {
		t.Fatal(err)
	}
	if out["h"] != ((3*4+1+2)*4)&0xff {
		t.Errorf("h = %d", out["h"])
	}
}

func TestMinRegistersAndValidate(t *testing.T) {
	d, _, _ := Benchmark("paulin")
	min, err := d.MinRegisters()
	if err != nil {
		t.Fatal(err)
	}
	if min != 4 {
		t.Errorf("paulin min registers = %d, want 4", min)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

func TestAblationConfigsRun(t *testing.T) {
	d, mods, _ := Benchmark("tseng1")
	cfg := DefaultConfig()
	cfg.Sharing = false
	cfg.CaseOverrides = false
	cfg.AvoidCBILBO = false
	cfg.WeightedInterconnect = false
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.SelfCheck(10, 1); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	if Testable.String() != "testable" || TraditionalHLS.String() != "traditional" {
		t.Error("mode strings wrong")
	}
}

func TestMarkPortInputPublic(t *testing.T) {
	d := NewDFG("p")
	if err := d.AddInput("a", "b", "k"); err != nil {
		t.Fatal(err)
	}
	if err := d.MarkPortInput("k"); err != nil {
		t.Fatal(err)
	}
	if err := d.MarkPortInput("zz"); err == nil {
		t.Error("unknown port input accepted")
	}
	d.AddOp("o1", "*", 1, "x", "a", "k")
	d.AddOp("o2", "+", 2, "y", "x", "b")
	d.MarkOutput("y")
	res, err := d.SynthesizeCtx(context.Background(), nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.SelfCheck(10, 2); err != nil {
		t.Error(err)
	}
}

// The strongest grading of the paper's binder: on ex1 the heuristic's
// binding achieves the globally minimal BIST area over ALL 36 minimum
// 3-register bindings (exhaustively enumerated and evaluated through the
// full interconnect + BIST-optimization pipeline).
func TestBinderGloballyOptimalOnEx1(t *testing.T) {
	bench := benchdata.ByName("ex1")
	mb, err := bench.Modules()
	if err != nil {
		t.Fatal(err)
	}
	parts, complete, err := regassign.EnumerateMinimumBindings(bench.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Fatal("enumeration truncated")
	}
	cost := func(rb *regassign.Binding) int {
		t.Helper()
		sh := regassign.NewSharing(bench.Graph, mb)
		ib, err := interconnect.Bind(bench.Graph, mb, rb, sh)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := datapath.Build(bench.Graph, mb, rb, ib, 8)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := bist.Optimize(dp, bist.DefaultOptions(8))
		if err != nil {
			t.Fatal(err)
		}
		return plan.ExtraArea
	}
	best := -1
	for _, p := range parts {
		rb, err := regassign.BindingFromPartition(bench.Graph, p)
		if err != nil {
			t.Fatal(err)
		}
		if c := cost(rb); best < 0 || c < best {
			best = c
		}
	}
	hb, err := regassign.Bind(bench.Graph, mb, regassign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if hc := cost(hb); hc != best {
		t.Errorf("heuristic BIST area %d, global optimum %d", hc, best)
	}
}

func TestPublicOptimizeAndBalance(t *testing.T) {
	d, err := Compile("chain", "y = a*1 + b + 0 + c + e + f + g + h\n", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Optimize(); err != nil {
		t.Fatal(err)
	}
	n, err := d.Balance()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("no chains balanced")
	}
	if err := d.AutoSchedule(map[string]int{"+": 2}); err != nil {
		t.Fatal(err)
	}
	res, err := d.SynthesizeCtx(context.Background(), nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.SelfCheck(20, 5); err != nil {
		t.Error(err)
	}
}

func TestPublicErrorPaths(t *testing.T) {
	// Unscheduled graph rejected by synthesis.
	d := NewDFG("u")
	d.AddInput("a", "b")
	d.AddOp("o1", "+", 0, "x", "a", "b")
	d.MarkOutput("x")
	if _, err := d.SynthesizeCtx(context.Background(), nil, DefaultConfig()); err == nil {
		t.Error("unscheduled graph synthesized")
	}
	// Bad module map.
	d2, _, _ := Benchmark("ex1")
	if _, err := d2.SynthesizeCtx(context.Background(), map[string]string{"add1": "M1"}, DefaultConfig()); err == nil {
		t.Error("partial module map accepted")
	}
	// Same-step clash in an explicit module map (tseng runs add1 and
	// add2 in the same control step).
	d4, mods4, _ := Benchmark("tseng1")
	mods4["add2"] = mods4["add1"]
	if _, err := d4.SynthesizeCtx(context.Background(), mods4, DefaultConfig()); err == nil {
		t.Error("same-step module clash accepted")
	}
	// Invalid widths.
	cfg := DefaultConfig()
	cfg.Width = 200
	if _, err := d2.SynthesizeCtx(context.Background(), nil, cfg); err == nil {
		t.Error("width 200 accepted")
	}
	// Bad schedule latency.
	d3, _ := Compile("c", "y = a + b\n", true)
	if err := d3.AutoScheduleForce(0); err == nil {
		t.Error("zero latency accepted")
	}
	// Compile errors surface.
	if _, err := Compile("bad", "x = ", true); err == nil {
		t.Error("bad program accepted")
	}
	// Simulate with missing inputs.
	res, _ := d2.SynthesizeCtx(context.Background(), map[string]string{"add1": "M1", "add2": "M1", "mul1": "M2", "mul2": "M2"}, DefaultConfig())
	if _, err := res.Simulate(nil); err == nil {
		t.Error("missing inputs accepted")
	}
	// Fault coverage needs patterns.
	if _, err := res.FaultCoverage(0, 1); err == nil {
		t.Error("zero patterns accepted")
	}
}

// TestCycles: the BIST test-time estimate is positive and scales with
// patterns and sessions.
func TestTestCyclesEstimate(t *testing.T) {
	d, mods, _ := Benchmark("tseng1")
	res, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c1 := res.TestCycles(100)
	c2 := res.TestCycles(200)
	if c1 <= 0 || c2 <= c1 {
		t.Errorf("test cycles %d, %d implausible", c1, c2)
	}
}
