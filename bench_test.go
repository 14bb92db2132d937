// Benchmarks regenerating every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`); the printable versions
// live in cmd/paperbench. Component micro-benchmarks for the individual
// allocation phases follow.
package bistpath

import (
	"context"
	"fmt"
	"testing"

	"bistpath/internal/area"
	"bistpath/internal/atpg"
	"bistpath/internal/baselines"
	"bistpath/internal/benchdata"
	"bistpath/internal/bist"
	"bistpath/internal/bistgen"
	"bistpath/internal/datapath"
	"bistpath/internal/dfg"
	"bistpath/internal/elab"
	"bistpath/internal/gates"
	"bistpath/internal/interconnect"
	"bistpath/internal/lang"
	"bistpath/internal/modassign"
	"bistpath/internal/opt"
	"bistpath/internal/regassign"
	"bistpath/internal/scan"
	"bistpath/internal/sched"
	"bistpath/internal/verilog"
)

// benchBoth runs the full Table I measurement for one benchmark: both
// flows end to end, through BIST optimization and area accounting.
func benchBoth(b *testing.B, name string) {
	b.Helper()
	d, mods, err := Benchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	cfgT := DefaultConfig()
	cfgR := DefaultConfig()
	cfgR.Mode = TraditionalHLS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := d.Synthesize(mods, cfgT)
		if err != nil {
			b.Fatal(err)
		}
		rr, err := d.Synthesize(mods, cfgR)
		if err != nil {
			b.Fatal(err)
		}
		if rt.OverheadPct >= rr.OverheadPct {
			b.Fatalf("%s: Table I shape violated: %.2f >= %.2f", name, rt.OverheadPct, rr.OverheadPct)
		}
	}
}

// Table I — per-benchmark testable-vs-traditional BIST overhead.
func BenchmarkTableI_ex1(b *testing.B)    { benchBoth(b, "ex1") }
func BenchmarkTableI_ex2(b *testing.B)    { benchBoth(b, "ex2") }
func BenchmarkTableI_tseng1(b *testing.B) { benchBoth(b, "tseng1") }
func BenchmarkTableI_tseng2(b *testing.B) { benchBoth(b, "tseng2") }
func BenchmarkTableI_paulin(b *testing.B) { benchBoth(b, "paulin") }

// Table II — minimal-area BIST resource mixes for all five benchmarks.
func BenchmarkTableII(b *testing.B) {
	type pair struct{ name, want string }
	rows := make([]*Result, 0, 10)
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, name := range BenchmarkNames() {
			d, mods, err := Benchmark(name)
			if err != nil {
				b.Fatal(err)
			}
			for _, mode := range []Mode{TraditionalHLS, Testable} {
				cfg := DefaultConfig()
				cfg.Mode = mode
				res, err := d.Synthesize(mods, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.StyleSummary() == "none" {
					b.Fatal("no BIST resources")
				}
				rows = append(rows, res)
			}
		}
	}
	_ = rows
}

// Table III — RALLOC, SYNTEST and our flow on the Paulin benchmark.
func BenchmarkTableIII(b *testing.B) {
	bench := benchdata.Paulin()
	g := bench.Graph
	mb, err := bench.Modules()
	if err != nil {
		b.Fatal(err)
	}
	smb, err := modassign.FromMap(g, baselines.PaulinSyntestModules())
	if err != nil {
		b.Fatal(err)
	}
	d, mods, _ := Benchmark("paulin")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ral, err := baselines.RALLOC(g, mb)
		if err != nil {
			b.Fatal(err)
		}
		syn, err := baselines.SYNTEST(g, smb)
		if err != nil {
			b.Fatal(err)
		}
		ours, err := d.Synthesize(mods, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if ours.NumRegisters() >= ral.Binding.NumRegisters() ||
			ours.NumRegisters() >= syn.Binding.NumRegisters() {
			b.Fatal("Table III shape violated: ours must use fewest registers")
		}
	}
}

// Figure 1 — I-path embedding enumeration on a generic configuration.
func BenchmarkFig1_IPaths(b *testing.B) {
	dp := builtDatapath(b, "ex1", false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range dp.Modules {
			if len(bist.Embeddings(dp, m.Name, true)) == 0 {
				b.Fatal("no embeddings")
			}
		}
	}
}

// Figure 2 — the running example's scheduled DFG and lifetimes.
func BenchmarkFig2_DFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench := benchdata.Ex1()
		if _, err := bench.Graph.Lifetimes(); err != nil {
			b.Fatal(err)
		}
		if bench.Graph.Text() == "" {
			b.Fatal("empty text")
		}
	}
}

// Figure 3 — shared-head/tail discovery on ex1.
func BenchmarkFig3_Sharing(b *testing.B) {
	bench := benchdata.Ex1()
	mb, err := bench.Modules()
	if err != nil {
		b.Fatal(err)
	}
	rb, err := regassign.Bind(bench.Graph, mb, regassign.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh := regassign.NewSharing(bench.Graph, mb)
		total := 0
		for _, r := range rb.Registers {
			total += sh.SDReg(r.Vars)
		}
		if total == 0 {
			b.Fatal("no sharing")
		}
	}
}

// Figure 4 — conflict graph with SD and MCS annotations.
func BenchmarkFig4_ConflictGraph(b *testing.B) {
	bench := benchdata.Ex1()
	mb, err := bench.Modules()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cg, err := regassign.ConflictGraph(bench.Graph)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bench.Graph.MaxCliqueSize(); err != nil {
			b.Fatal(err)
		}
		sh := regassign.NewSharing(bench.Graph, mb)
		for _, v := range bench.Graph.AllocVars() {
			_ = sh.SDVar(v)
		}
		if cg.NumVertices() != 8 {
			b.Fatal("wrong conflict graph")
		}
	}
}

// Figure 5 — both ex1 data paths with their minimal BIST solutions.
func BenchmarkFig5_DataPaths(b *testing.B) {
	d, mods, _ := Benchmark("ex1")
	for i := 0; i < b.N; i++ {
		for _, mode := range []Mode{Testable, TraditionalHLS} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			res, err := d.Synthesize(mods, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.NetlistText() == "" {
				b.Fatal("empty netlist")
			}
		}
	}
}

// Figure 6 — merge-case classification.
func BenchmarkFig6_MergeCases(b *testing.B) {
	bench := benchdata.Ex1()
	mb, err := bench.Modules()
	if err != nil {
		b.Fatal(err)
	}
	vars := bench.Graph.AllocVars()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, u := range vars {
			for _, v := range vars[j+1:] {
				_ = interconnect.ClassifyMerge(bench.Graph, mb, u, v)
			}
		}
	}
}

// Ablations — each disabled mechanism over a fixed random set.
func benchAblation(b *testing.B, mut func(*Config)) {
	b.Helper()
	graphs := make([]*DFG, 0, 8)
	for seed := int64(1); seed <= 8; seed++ {
		g, err := benchdata.Random(benchdata.DefaultRandomConfig(seed))
		if err != nil {
			b.Fatal(err)
		}
		d, err := ParseDFG(g.Text())
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, d)
	}
	cfg := DefaultConfig()
	mut(&cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range graphs {
			if _, err := d.SynthesizeAuto(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblation_Full(b *testing.B) { benchAblation(b, func(*Config) {}) }
func BenchmarkAblation_NoSharing(b *testing.B) {
	benchAblation(b, func(c *Config) { c.Sharing = false; c.CaseOverrides = false })
}
func BenchmarkAblation_NoCases(b *testing.B) {
	benchAblation(b, func(c *Config) { c.CaseOverrides = false })
}
func BenchmarkAblation_NoLemma2(b *testing.B) {
	benchAblation(b, func(c *Config) { c.AvoidCBILBO = false })
}
func BenchmarkAblation_Unweighted(b *testing.B) {
	benchAblation(b, func(c *Config) { c.WeightedInterconnect = false })
}
func BenchmarkAblation_Traditional(b *testing.B) {
	benchAblation(b, func(c *Config) { c.Mode = TraditionalHLS })
}

// --- component micro-benchmarks ---

func builtDatapath(b *testing.B, name string, traditional bool) *datapath.Datapath {
	b.Helper()
	bench := benchdata.ByName(name)
	mb, err := bench.Modules()
	if err != nil {
		b.Fatal(err)
	}
	var rb *regassign.Binding
	if traditional {
		rb, err = regassign.Traditional(bench.Graph)
	} else {
		rb, err = regassign.Bind(bench.Graph, mb, regassign.DefaultOptions())
	}
	if err != nil {
		b.Fatal(err)
	}
	ib, err := interconnect.Bind(bench.Graph, mb, rb, regassign.NewSharing(bench.Graph, mb))
	if err != nil {
		b.Fatal(err)
	}
	dp, err := datapath.Build(bench.Graph, mb, rb, ib, 8)
	if err != nil {
		b.Fatal(err)
	}
	return dp
}

func BenchmarkRegisterBind(b *testing.B) {
	bench := benchdata.Tseng1()
	mb, err := bench.Modules()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regassign.Bind(bench.Graph, mb, regassign.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBISTOptimize(b *testing.B) {
	dp := builtDatapath(b, "tseng1", false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bist.Optimize(dp, bist.DefaultOptions(8)); err != nil {
			b.Fatal(err)
		}
	}
}

// presetBound generates a dfgen preset design and binds its modules
// and registers as the testable flow does.
func presetBound(b *testing.B, preset string, seed int64) (*dfg.Graph, *modassign.Binding, *regassign.Binding) {
	b.Helper()
	cfg, _ := benchdata.Preset(preset, seed)
	g, mb, err := benchdata.RandomWithModules(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return g, mb, rb
}

// Interconnect binding on dfgen l-3, whose largest module carries 14
// free commutative instances: the orientation search walks 2^14 masks.
func BenchmarkInterconnectBind_l(b *testing.B) {
	g, mb, rb := presetBound(b, "l", 3)
	sh := regassign.NewSharing(g, mb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interconnect.Bind(g, mb, rb, sh); err != nil {
			b.Fatal(err)
		}
	}
}

// Exact BIST search on dfgen xl-3, whose largest module has tens of
// thousands of embeddings: enumerating and cost-ordering the search
// space, then the branch and bound until its node budget runs out, on a
// warm Scratch as a Synthesizer handle keeps one.
func BenchmarkOptimizeExact_xl(b *testing.B) {
	g, mb, rb := presetBound(b, "xl", 3)
	ib, err := interconnect.Bind(g, mb, rb, regassign.NewSharing(g, mb))
	if err != nil {
		b.Fatal(err)
	}
	dp, err := datapath.Build(g, mb, rb, ib, 8)
	if err != nil {
		b.Fatal(err)
	}
	opts := bist.DefaultOptions(8)
	opts.Scratch = bist.NewScratch()
	// Warm the Scratch first, so B/op measures the steady state at any
	// -benchtime rather than the first call's growth spread over b.N.
	if _, err := bist.Optimize(dp, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bist.Optimize(dp, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Multi-objective search — the exhaustive Pareto walk on the largest
// benchmark space (paulin, 41472 embedding combinations), producing the
// full non-dominated front with per-leaf session scheduling.
func BenchmarkOptimizePareto(b *testing.B) {
	dp := builtDatapath(b, "paulin", false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front, err := bist.OptimizePareto(context.Background(), dp, bist.DefaultOptions(8))
		if err != nil {
			b.Fatal(err)
		}
		if len(front) != 5 {
			b.Fatalf("front has %d members, want 5", len(front))
		}
	}
}

// Full-pipeline Pareto synthesis, including front verification-ready
// Result assembly (points, overheads, sessions).
func BenchmarkSynthesizePareto(b *testing.B) {
	d, mods, err := Benchmark("paulin")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.SynthesizePareto(mods, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Pareto) != 5 {
			b.Fatalf("front has %d points, want 5", len(res.Pareto))
		}
	}
}

func BenchmarkDatapathSimulate(b *testing.B) {
	dp := builtDatapath(b, "paulin", false)
	in := map[string]uint64{"x": 1, "u": 20, "y": 1, "dx": 1, "a": 5, "k3": 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dp.Simulate(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultCoverage(b *testing.B) {
	dp := builtDatapath(b, "ex1", false)
	plan, err := bist.Optimize(dp, bist.DefaultOptions(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bistgen.Coverage(dp, plan, 63, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLFSR(b *testing.B) {
	l, err := bistgen.NewLFSR(16, 0xACE1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Next()
	}
}

func BenchmarkFullFlowRandom(b *testing.B) {
	for _, size := range []int{5, 8, 12} {
		b.Run(fmt.Sprintf("steps%d", size), func(b *testing.B) {
			g, err := benchdata.Random(benchdata.RandomConfig{Seed: 9, Steps: size, OpsPerStep: 3, Inputs: 4})
			if err != nil {
				b.Fatal(err)
			}
			d, err := ParseDFG(g.Text())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.SynthesizeAuto(DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Gate-level extension — elaborate each benchmark's BIST plan to gates
// and fault-simulate one module per iteration.
func BenchmarkGateLevel(b *testing.B) {
	d, mods, _ := Benchmark("ex1")
	res, err := d.Synthesize(mods, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := res.GateLevel(60, 1)
		if err != nil {
			b.Fatal(err)
		}
		if rep.TotalGates == 0 {
			b.Fatal("empty netlist")
		}
	}
}

func BenchmarkGateElaboration(b *testing.B) {
	dp := builtDatapath(b, "paulin", false)
	plan, err := bist.Optimize(dp, bist.DefaultOptions(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elab.Build(dp, plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGateSimulateNormal(b *testing.B) {
	dp := builtDatapath(b, "ex1", false)
	d, err := elab.Build(dp, nil)
	if err != nil {
		b.Fatal(err)
	}
	in := map[string]uint64{"a": 1, "b": 2, "e": 3, "g": 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.RunNormal(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerilogEmission(b *testing.B) {
	dp := builtDatapath(b, "tseng1", false)
	d, err := elab.Build(dp, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(verilog.Gates(d.Net, "t")) == 0 || len(verilog.RTL(dp)) == 0 {
			b.Fatal("empty emission")
		}
	}
}

func BenchmarkForceDirectedSchedule(b *testing.B) {
	bench := benchdata.Paulin()
	g := bench.Graph.Clone()
	for _, o := range g.Ops() {
		o.Step = 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ForceDirected(g, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// Exhaustive binder-optimality sweep on ex1 (36 minimum bindings, full
// pipeline each).
func BenchmarkOptimalitySweepEx1(b *testing.B) {
	bench := benchdata.ByName("ex1")
	mb, err := bench.Modules()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts, complete, err := regassign.EnumerateMinimumBindings(bench.Graph, 0)
		if err != nil || !complete {
			b.Fatal(err)
		}
		for _, p := range parts {
			rb, err := regassign.BindingFromPartition(bench.Graph, p)
			if err != nil {
				b.Fatal(err)
			}
			ib, err := interconnect.Bind(bench.Graph, mb, rb, nil)
			if err != nil {
				b.Fatal(err)
			}
			dp, err := datapath.Build(bench.Graph, mb, rb, ib, 8)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := bist.Optimize(dp, bist.DefaultOptions(8)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// COP testability prediction for every module of tseng1.
func BenchmarkCOPPrediction(b *testing.B) {
	dp := builtDatapath(b, "tseng1", false)
	plan, err := bist.Optimize(dp, bist.DefaultOptions(8))
	if err != nil {
		b.Fatal(err)
	}
	d, err := elab.Build(dp, plan)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range dp.Modules {
			if _, _, err := d.PredictCoverage(m.Name, 250); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Expression-language compilation of the HAL benchmark.
func BenchmarkLangCompile(b *testing.B) {
	src := `
		x1 = x + dx
		u1 = u - 3*x*u*dx - 3*y*dx
		y1 = y + u*dx
		c  = x1 < a
	`
	for i := 0; i < b.N; i++ {
		if _, err := Compile("hal", src, false); err != nil {
			b.Fatal(err)
		}
	}
}

// Behavioral optimization passes on a long reduction chain.
func BenchmarkOptBalance(b *testing.B) {
	d, err := Compile("chain", "y = a+b+c+e+f+g+h+i+j+k+l+m\n", false)
	if err != nil {
		b.Fatal(err)
	}
	_ = d
	g, err := lang.Compile("chain", "y = a+b+c+e+f+g+h+i+j+k+l+m\n", lang.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := opt.Balance(g); err != nil {
			b.Fatal(err)
		}
	}
}

// Scan-vs-BIST comparison across the benchmark set.
func BenchmarkScanComparison(b *testing.B) {
	type built struct {
		dp   *datapath.Datapath
		plan *bist.Plan
	}
	var all []built
	for _, name := range BenchmarkNames() {
		dp := builtDatapath(b, name, false)
		plan, err := bist.Optimize(dp, bist.DefaultOptions(8))
		if err != nil {
			b.Fatal(err)
		}
		all = append(all, built{dp, plan})
	}
	m := area.Default(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range all {
			c := scan.Compare(x.dp, x.plan, m, 250)
			if c.SpeedUp() <= 1 {
				b.Fatal("speedup must exceed 1")
			}
		}
	}
}

// --- result cache benchmarks ---

// Canonical cache-key fingerprinting of the largest paper benchmark —
// the fixed cost every cache-enabled synthesis pays, hit or miss.
func BenchmarkCacheKey(b *testing.B) {
	d, mods, err := Benchmark("paulin")
	if err != nil {
		b.Fatal(err)
	}
	mb, err := d.moduleBinding(mods)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cacheKey(d.g, mb, cfg)
	}
}

// Serving paulin from the in-memory layer: key + LRU lookup + the
// per-caller deep copy of the exported Result fields.
func BenchmarkCacheHitMemory(b *testing.B) {
	c, err := NewCache(CacheOptions{})
	if err != nil {
		b.Fatal(err)
	}
	d, mods, err := Benchmark("paulin")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cache = c
	if _, err := d.Synthesize(mods, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Synthesize(mods, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Stats.CacheHit {
			b.Fatal("memory layer missed")
		}
	}
}

// Serving paulin from the persistent layer: a fresh cache per iteration
// forces the disk read, plan reconstruction and the cheap deterministic
// phases that revalidate it.
func BenchmarkCacheHitDisk(b *testing.B) {
	dir := b.TempDir()
	seed, err := NewCache(CacheOptions{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	d, mods, err := Benchmark("paulin")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cache = seed
	if _, err := d.Synthesize(mods, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewCache(CacheOptions{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Cache = c
		res, err := d.Synthesize(mods, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Stats.CacheHit {
			b.Fatal("disk layer missed")
		}
	}
}

// Fault-efficiency study: random grading + exhaustive top-up of a 4-bit
// divider.
func BenchmarkATPGTopUp(b *testing.B) {
	cone, err := atpg.ConeForKind(func(n *gates.Netlist, x, y []gates.Sig) []gates.Sig {
		return n.DivBus(x, y)
	}, 4)
	if err != nil {
		b.Fatal(err)
	}
	var faults []gates.StuckAt
	for _, g := range cone.Net.Gates {
		faults = append(faults, gates.StuckAt{Sig: g.Out, Value: false}, gates.StuckAt{Sig: g.Out, Value: true})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := atpg.TopUp(cone, faults, 0)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Aborted != 0 {
			b.Fatal("aborted with unlimited budget")
		}
	}
}
