// Command paperbench regenerates every table and figure of the DAC'95
// paper "Data Path Allocation for Synthesizing RTL Designs with Low BIST
// Area Overhead" from this reproduction, printing measured values next to
// the paper's where applicable.
//
// Usage:
//
//	paperbench            # everything
//	paperbench -table 1   # Table I only (1, 2 or 3)
//	paperbench -fig 4     # Figure 1..6
//	paperbench -ablation  # mechanism ablation sweep on random DFGs
//	paperbench -stats     # observability table (phase times, search counters)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"bistpath"
	"bistpath/internal/area"
	"bistpath/internal/atpg"
	"bistpath/internal/baselines"
	"bistpath/internal/benchdata"
	"bistpath/internal/bist"
	"bistpath/internal/bistgen"
	"bistpath/internal/datapath"
	"bistpath/internal/dfg"
	"bistpath/internal/gates"
	"bistpath/internal/interconnect"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
	"bistpath/internal/report"
	"bistpath/internal/scan"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1..3)")
	fig := flag.Int("fig", 0, "regenerate one figure (1..6)")
	ablation := flag.Bool("ablation", false, "run the mechanism ablation sweep")
	gate := flag.Bool("gates", false, "run the gate-level extension experiment")
	scale := flag.Bool("scale", false, "run the filter scale study")
	scanCmp := flag.Bool("scan", false, "run the scan-vs-BIST tradeoff study")
	optimality := flag.Bool("optimality", false, "exhaustively grade the register binder against every minimum binding")
	widths := flag.Bool("widths", false, "run the datapath-width sweep")
	atpgFlag := flag.Bool("atpg", false, "run the fault-efficiency study (deterministic top-up + redundancy proofs)")
	sessions := flag.Bool("sessions", false, "run the test-time/session study")
	statsFlag := flag.Bool("stats", false, "run the synthesis observability table (phase times + search counters)")
	verifyFlag := flag.Bool("verify", false, "run the differential verification harness on every benchmark")
	objectiveFlag := flag.Bool("objective", false, "run the multi-objective trade-off study (area x test time x peak power)")
	jflag := flag.Int("j", 0, "parallel synthesis workers for the table sweeps (0 = GOMAXPROCS)")
	cacheFlag := flag.Bool("cache", false, "share a synthesis result cache across the table sweeps")
	cacheDir := flag.String("cache-dir", "", "also persist cached results under this directory (implies -cache)")
	flag.Parse()
	batchWorkers = *jflag
	batchCfg := bistpath.DefaultConfig()
	if *cacheFlag || *cacheDir != "" {
		cc, err := bistpath.NewCache(bistpath.CacheOptions{Dir: *cacheDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		batchCfg.Cache = cc
		defer func() { fmt.Fprintln(os.Stderr, cc.Stats()) }()
	}
	batchSynth = bistpath.New(batchCfg)

	all := *table == 0 && *fig == 0 && !*ablation && !*gate && !*scale && !*scanCmp && !*optimality && !*widths && !*atpgFlag && !*sessions && !*statsFlag && !*verifyFlag && !*objectiveFlag
	run := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
	}
	if all || *table == 1 {
		run(tableI())
	}
	if all || *table == 2 {
		run(tableII())
	}
	if all || *table == 3 {
		run(tableIII())
	}
	figs := []func() error{fig1, fig2, fig3, fig4, fig5, fig6}
	for i, f := range figs {
		if all || *fig == i+1 {
			run(f())
		}
	}
	if all || *ablation {
		run(runAblation())
	}
	if all || *gate {
		run(gateLevelTable())
	}
	if all || *scale {
		run(scaleTable())
	}
	if all || *scanCmp {
		run(scanTable())
	}
	if all || *optimality {
		run(optimalityTable())
	}
	if all || *widths {
		run(widthTable())
	}
	if *atpgFlag { // explicit only: exhaustive proofs take a few seconds
		run(atpgTable())
	}
	if all || *sessions {
		run(sessionTable())
	}
	if *statsFlag { // explicit only: wall times are not reproducible output
		run(statsTable())
	}
	if all || *verifyFlag {
		run(verifyTable())
	}
	if all || *objectiveFlag {
		run(objectiveTable())
	}
}

// objectiveTable is an extension: the full Pareto front of every
// benchmark over (extra area, test sessions, peak test power), with the
// area-minimal member cross-checked against the single-objective search
// — the front must start exactly where Table II's minimal-area solution
// sits. Any disagreement, front verification failure, or inexact front
// is a non-zero exit.
func objectiveTable() error {
	t := report.NewTable("Multi-objective trade-off — Pareto fronts over area / test time / peak power",
		"DFG", "front", "extra area", "sessions", "peak power", "overhead", "BIST styles")
	for _, b := range benchdata.All() {
		d, mods, err := bistpath.Benchmark(b.Name)
		if err != nil {
			return err
		}
		res, err := d.SynthesizeParetoCtx(context.Background(), mods, bistpath.DefaultConfig())
		if err != nil {
			return err
		}
		rep, err := res.VerifyPareto(context.Background(), bistpath.VerifyOptions{})
		if err != nil {
			return err
		}
		if !rep.OK() {
			return rep.Err()
		}
		single, err := d.SynthesizeCtx(context.Background(), mods, bistpath.DefaultConfig())
		if err != nil {
			return err
		}
		if got, want := res.Pareto[0].BISTArea, single.BISTArea; got != want {
			return fmt.Errorf("%s: area-minimal front member has BIST area %d, Table II solution %d", b.Name, got, want)
		}
		if got, want := res.Pareto[0].StyleSummary(), single.StyleSummary(); got != want {
			return fmt.Errorf("%s: area-minimal front member styles %q, Table II solution %q", b.Name, got, want)
		}
		for i, pt := range res.Pareto {
			name := ""
			if i == 0 {
				name = b.Name
			}
			t.AddRowf(name, fmt.Sprintf("%d/%d", i+1, len(res.Pareto)),
				pt.Cost.Area, pt.Cost.TestTime, pt.Cost.PeakPower,
				fmt.Sprintf("%.2f%%", pt.OverheadPct), pt.StyleSummary())
		}
	}
	fmt.Println(t)
	fmt.Println("front 1 is the minimal-area plan of Table II; later members trade area for")
	fmt.Println("fewer sessions or lower peak power (enumeration-verified non-dominated sets).")
	fmt.Println()
	return nil
}

// verifyTable runs the differential verification harness on every
// benchmark in both flows: plan invariants, a functional cross-check
// against dfg.Eval, exhaustive embedding and register-binding oracles,
// and a re-run of the search that must reproduce the plan. It fails
// (non-zero exit) on any
// violation — the table is evidence that every other number printed by
// this command stands on a verified allocation.
func verifyTable() error {
	t := report.NewTable("Differential verification — invariants, oracles, functional cross-check",
		"DFG", "flow", "status", "vectors", "plan", "oracle min", "combos", "bindings", "best..worst")
	var failures int
	for _, b := range benchdata.All() {
		for _, mode := range []bistpath.Mode{bistpath.Testable, bistpath.TraditionalHLS} {
			d, mods, err := bistpath.Benchmark(b.Name)
			if err != nil {
				return err
			}
			cfg := bistpath.DefaultConfig()
			cfg.Mode = mode
			res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
			if err != nil {
				return err
			}
			rep, err := res.Verify(context.Background(), bistpath.VerifyOptions{})
			if err != nil {
				return err
			}
			status := "PASS"
			if !rep.OK() {
				status = "FAIL"
				failures++
			}
			flow := "testable"
			if mode == bistpath.TraditionalHLS {
				flow = "traditional"
			}
			t.AddRowf(b.Name, flow, status, rep.Vectors, rep.PlanCost, rep.EmbeddingMin,
				rep.EmbeddingCombos,
				fmt.Sprintf("%d/%d", rep.BindingFeasible, rep.BindingCount),
				fmt.Sprintf("%d..%d", rep.BindingBest, rep.BindingWorst))
			for _, v := range rep.Violations {
				fmt.Printf("  %s/%s VIOLATION: %s\n", b.Name, flow, v)
			}
		}
	}
	fmt.Println(t)
	if failures > 0 {
		return fmt.Errorf("verification failed for %d flow(s)", failures)
	}
	return nil
}

// statsTable surfaces the observability layer: where each benchmark's
// synthesis spends its time and how hard the search layers work. The
// counters are deterministic (sequential search); the durations are wall
// times and vary run to run, which is why this table is not part of the
// default paper regeneration.
func statsTable() error {
	t := report.NewTable("Synthesis observability — phase times (wall) and search effort",
		"DFG", "total", "bind", "bist", "nodes", "prunes", "incumbents", "embeddings", "L2 checks", "overrides", "pool util")
	var jobs []bistpath.Job
	for _, b := range benchdata.All() {
		d, mods, err := bistpath.Benchmark(b.Name)
		if err != nil {
			return err
		}
		jobs = append(jobs, bistpath.Job{Name: b.Name, DFG: d, Modules: mods, Config: bistpath.DefaultConfig()})
	}
	results, bs := bistpath.SynthesizeAll(context.Background(), jobs, bistpath.BatchOptions{Workers: batchWorkers})
	util := fmt.Sprintf("%.0f%% (%d workers)", bs.Utilization()*100, bs.Workers)
	for i, br := range results {
		if br.Err != nil {
			return fmt.Errorf("%s: %w", br.Name, br.Err)
		}
		s := br.Result.Stats
		cell := ""
		if i == 0 {
			cell = util
		}
		t.AddRowf(br.Name,
			s.Total.Round(10*time.Microsecond).String(),
			s.RegisterBind.Round(10*time.Microsecond).String(),
			s.BISTSearch.Round(10*time.Microsecond).String(),
			s.SearchNodes, s.BoundPrunes, s.IncumbentUpdates,
			s.EmbeddingsEnumerated, s.Lemma2Checks, s.CaseOverrides, cell)
	}
	fmt.Println(t)
	return nil
}

// sessionTable is an extension: the paper notes that modules need not be
// tested in one session; this quantifies the session schedule and the
// effect of the session-minimizing tie-break on test time (area held at
// the minimum in both columns).
func sessionTable() error {
	t := report.NewTable("Test sessions — area-minimal plans, with and without the session tie-break",
		"DFG", "sessions (default)", "sessions (tuned)", "test cycles @250", "BIST area")
	var jobs []bistpath.Job
	for _, b := range benchdata.All() {
		d, mods, err := bistpath.Benchmark(b.Name)
		if err != nil {
			return err
		}
		tuned := bistpath.DefaultConfig()
		tuned.MinimizeSessions = true
		jobs = append(jobs,
			bistpath.Job{Name: b.Name + "/default", DFG: d, Modules: mods, Config: bistpath.DefaultConfig()},
			bistpath.Job{Name: b.Name + "/tuned", DFG: d, Modules: mods, Config: tuned})
	}
	results, err := runBatch(jobs)
	if err != nil {
		return err
	}
	for i, b := range benchdata.All() {
		base, tuned := results[2*i], results[2*i+1]
		if tuned.BISTArea != base.BISTArea {
			return fmt.Errorf("%s: session tuning changed area", b.Name)
		}
		t.AddRowf(b.Name, len(base.Sessions), len(tuned.Sessions),
			tuned.TestCycles(250), tuned.BISTArea-tuned.BaseArea)
	}
	fmt.Println(t)
	return nil
}

// atpgTable is an extension: for each functional unit, grade 250
// pseudo-random patterns, then push every missed fault through
// exhaustive deterministic search (width 6 keeps the 2^12 operand space
// exact). Redundant faults are proven untestable, so the last column is
// fault efficiency — the honest quality metric for random-pattern
// resistant units like the restoring divider.
func atpgTable() error {
	const w = 6
	t := report.NewTable(fmt.Sprintf("Fault efficiency — %d-bit units, 250 random patterns + deterministic top-up", w),
		"unit", "faults", "random", "ATPG top-up", "redundant", "raw coverage", "fault efficiency")
	units := []struct {
		name  string
		build func(n *gates.Netlist, a, b []gates.Sig) []gates.Sig
	}{
		{"add", func(n *gates.Netlist, a, b []gates.Sig) []gates.Sig { return n.AddBusNoCarry(a, b, gates.Zero) }},
		{"sub", func(n *gates.Netlist, a, b []gates.Sig) []gates.Sig { return n.SubBusNoBorrow(a, b) }},
		{"mul", func(n *gates.Netlist, a, b []gates.Sig) []gates.Sig { return n.MulBus(a, b) }},
		{"div", func(n *gates.Netlist, a, b []gates.Sig) []gates.Sig { return n.DivBus(a, b) }},
	}
	for _, u := range units {
		cone, err := atpg.ConeForKind(u.build, w)
		if err != nil {
			return err
		}
		var faults []gates.StuckAt
		for _, g := range cone.Net.Gates {
			faults = append(faults, gates.StuckAt{Sig: g.Out, Value: false}, gates.StuckAt{Sig: g.Out, Value: true})
		}
		// Random phase: two uncorrelated LFSR streams.
		sim, err := gates.NewSim(cone.Net)
		if err != nil {
			return err
		}
		tapsA, _ := bistgen.PrimitiveTaps(w)
		taps := bistgen.DistinctTaps(w, 2)
		tapsB := taps[len(taps)-1]
		vec := make([][2]uint64, 250)
		la := bistgen.NewLFSRWithTaps(w, tapsA, 0x2D)
		lb := bistgen.NewLFSRWithTaps(w, tapsB, 0x0B)
		for i := range vec {
			vec[i] = [2]uint64{la.Next(), lb.Next()}
		}
		golden := make([]uint64, len(vec))
		for i, v := range vec {
			sim.SetBus(cone.A, v[0])
			sim.SetBus(cone.B, v[1])
			sim.Eval()
			golden[i] = sim.ReadBus(cone.Out)
		}
		detected := 0
		var missed []gates.StuckAt
		for _, f := range faults {
			ff := f
			sim.SetFault(&ff)
			hit := false
			for i, v := range vec {
				sim.SetBus(cone.A, v[0])
				sim.SetBus(cone.B, v[1])
				sim.Eval()
				if sim.ReadBus(cone.Out) != golden[i] {
					hit = true
					break
				}
			}
			sim.SetFault(nil)
			if hit {
				detected++
			} else {
				missed = append(missed, f)
			}
		}
		rep, err := atpg.TopUp(cone, missed, 0)
		if err != nil {
			return err
		}
		raw := float64(detected) / float64(len(faults)) * 100
		t.AddRowf(u.name, len(faults), detected, rep.Detected, rep.Redundant,
			fmt.Sprintf("%.1f%%", raw),
			fmt.Sprintf("%.1f%%", rep.Efficiency(detected)))
	}
	fmt.Println(t)
	fmt.Println("redundant = proven untestable by exhaustive operand scan; fault efficiency")
	fmt.Println("counts only testable faults, the standard metric for resistant structures.")
	fmt.Println()
	return nil
}

// widthTable is an extension: Table I's comparison re-run at 4, 8 and 16
// bits. BIST register overhead is linear in width while multiplier area
// is quadratic, so the relative overhead shrinks as the data path widens
// — but the testable/traditional ordering is width-invariant.
func widthTable() error {
	t := report.NewTable("Width sweep — BIST overhead vs datapath width (extension)",
		"DFG", "w=4 trad/ours", "w=8 trad/ours", "w=16 trad/ours")
	widths := []int{4, 8, 16}
	// One batch over the full design × width × mode cross product.
	var jobs []bistpath.Job
	for _, b := range benchdata.All() {
		d, mods, err := bistpath.Benchmark(b.Name)
		if err != nil {
			return err
		}
		for _, w := range widths {
			for _, mode := range []bistpath.Mode{bistpath.Testable, bistpath.TraditionalHLS} {
				cfg := bistpath.DefaultConfig()
				cfg.Width = w
				cfg.Mode = mode
				jobs = append(jobs, bistpath.Job{
					Name:    fmt.Sprintf("%s/w%d/%s", b.Name, w, mode),
					DFG:     d,
					Modules: mods,
					Config:  cfg,
				})
			}
		}
	}
	results, err := runBatch(jobs)
	if err != nil {
		return err
	}
	i := 0
	for _, b := range benchdata.All() {
		row := []interface{}{b.Name}
		for _, w := range widths {
			test, trad := results[i], results[i+1]
			i += 2
			if test.OverheadPct >= trad.OverheadPct {
				return fmt.Errorf("width %d: ordering violated on %s", w, b.Name)
			}
			row = append(row, fmt.Sprintf("%.1f%% / %.1f%%", trad.OverheadPct, test.OverheadPct))
		}
		t.AddRowf(row...)
	}
	fmt.Println(t)
	return nil
}

// optimalityTable exhaustively evaluates the BIST area of EVERY
// minimum-register binding of each benchmark (the spaces are small
// enough: 36..8640 bindings) and places the paper's heuristic within
// that spectrum — the strongest possible grading of the register binder.
func optimalityTable() error {
	t := report.NewTable("Binder optimality — exhaustive sweep of all minimum bindings",
		"DFG", "#bindings", "best area", "worst area", "heuristic", "gap", "percentile")
	for _, b := range benchdata.All() {
		mb, err := b.Modules()
		if err != nil {
			return err
		}
		parts, complete, err := regassign.EnumerateMinimumBindings(b.Graph, 0)
		if err != nil {
			return err
		}
		if !complete {
			return fmt.Errorf("enumeration truncated for %s", b.Name)
		}
		cost := func(rb *regassign.Binding) (int, error) {
			sh := regassign.NewSharing(b.Graph, mb)
			ib, err := interconnect.Bind(b.Graph, mb, rb, sh)
			if err != nil {
				return 0, err
			}
			dp, err := datapath.Build(b.Graph, mb, rb, ib, 8)
			if err != nil {
				return 0, err
			}
			plan, err := bist.Optimize(dp, bist.DefaultOptions(8))
			if err != nil {
				return 0, err
			}
			return plan.ExtraArea, nil
		}
		best, worst := -1, -1
		var costs []int
		for _, part := range parts {
			rb, err := regassign.BindingFromPartition(b.Graph, part)
			if err != nil {
				return err
			}
			c, err := cost(rb)
			if err != nil {
				return err
			}
			costs = append(costs, c)
			if best < 0 || c < best {
				best = c
			}
			if c > worst {
				worst = c
			}
		}
		hb, err := regassign.Bind(b.Graph, mb, regassign.DefaultOptions())
		if err != nil {
			return err
		}
		hc := 0
		if hb.NumRegisters() == len(parts[0]) {
			hc, err = cost(hb)
			if err != nil {
				return err
			}
		}
		atOrBelow := 0
		for _, c := range costs {
			if c >= hc {
				atOrBelow++
			}
		}
		t.AddRowf(b.Name, len(parts), best, worst, hc, hc-best,
			fmt.Sprintf("beats %.1f%%", float64(atOrBelow)/float64(len(costs))*100))
	}
	fmt.Println(t)
	return nil
}

// scanTable is an extension: the area/test-time economics of the
// synthesized BIST plans against a full-scan alternative at the same
// pattern budget (the tradeoff the paper's introduction appeals to).
func scanTable() error {
	t := report.NewTable("Scan vs BIST — area/test-time tradeoff at 250 patterns (extension)",
		"DFG", "scan area", "BIST area", "area ratio", "scan cycles", "BIST cycles", "BIST speedup")
	for _, b := range benchdata.All() {
		mb, err := b.Modules()
		if err != nil {
			return err
		}
		rb, err := regassign.Bind(b.Graph, mb, regassign.DefaultOptions())
		if err != nil {
			return err
		}
		sh := regassign.NewSharing(b.Graph, mb)
		ib, err := interconnect.Bind(b.Graph, mb, rb, sh)
		if err != nil {
			return err
		}
		dp, err := datapath.Build(b.Graph, mb, rb, ib, 8)
		if err != nil {
			return err
		}
		plan, err := bist.Optimize(dp, bist.DefaultOptions(8))
		if err != nil {
			return err
		}
		c := scan.Compare(dp, plan, area.Default(8), 250)
		t.AddRowf(b.Name, c.Scan.ExtraArea, c.BISTExtraArea,
			fmt.Sprintf("%.1fx", c.AreaRatio()),
			c.Scan.CyclesScan, c.BISTCycles, fmt.Sprintf("%.0fx", c.SpeedUp()))
	}
	fmt.Println(t)
	return nil
}

// scaleTable is an extension: the two flows on DSP filter benchmarks far
// larger than the paper's five examples, showing that the sharing and
// CBILBO-avoidance gains persist at scale.
func scaleTable() error {
	t := report.NewTable("Scale study — DSP filters (extension beyond the paper)",
		"design", "ops", "steps", "#reg", "%BIST trad", "%BIST ours", "%reduction", "CBILBO t/o")
	builds := []struct {
		make func() (*benchdata.Benchmark, error)
	}{
		{func() (*benchdata.Benchmark, error) { return benchdata.FIR(8, 2, 2) }},
		{func() (*benchdata.Benchmark, error) { return benchdata.FIR(16, 3, 3) }},
		{func() (*benchdata.Benchmark, error) { return benchdata.FIR(32, 4, 4) }},
		{func() (*benchdata.Benchmark, error) { return benchdata.Biquad(2, 2, 2) }},
		{func() (*benchdata.Benchmark, error) { return benchdata.Biquad(4, 3, 3) }},
		{func() (*benchdata.Benchmark, error) { return benchdata.Lattice(4, 2, 2) }},
		{func() (*benchdata.Benchmark, error) { return benchdata.Lattice(8, 3, 3) }},
	}
	for _, bd := range builds {
		bench, err := bd.make()
		if err != nil {
			return err
		}
		d, err := bistpath.ParseDFG(bench.Graph.Text())
		if err != nil {
			return err
		}
		// Re-mark port inputs lost by the text round trip.
		var ports []string
		for _, v := range bench.Graph.Vars() {
			if v.IsPort {
				ports = append(ports, v.Name)
			}
		}
		if err := d.MarkPortInput(ports...); err != nil {
			return err
		}
		cfg := bistpath.DefaultConfig()
		test, err := d.SynthesizeCtx(context.Background(), bench.OpModule, cfg)
		if err != nil {
			return err
		}
		cfg.Mode = bistpath.TraditionalHLS
		trad, err := d.SynthesizeCtx(context.Background(), bench.OpModule, cfg)
		if err != nil {
			return err
		}
		red := (trad.OverheadPct - test.OverheadPct) / trad.OverheadPct * 100
		t.AddRowf(bench.Name, len(bench.Graph.Ops()), bench.Graph.NumSteps(), test.NumRegisters(),
			trad.OverheadPct, test.OverheadPct, red,
			fmt.Sprintf("%d/%d", trad.StyleCounts["CBILBO"], test.StyleCounts["CBILBO"]))
	}
	fmt.Println(t)
	return nil
}

// gateLevelTable is an extension beyond the paper's evaluation: the
// synthesized BIST plans are fault-simulated on real gate-level netlists
// (the paper's BITS system measured overhead in gate counts; here the
// netlists themselves are built and every module's internal stuck-at
// faults are graded against the BIST signatures).
func gateLevelTable() error {
	t := report.NewTable("Gate-level extension — literal gate counts and BIST stuck-at coverage",
		"DFG", "gates", "DFFs", "func", "muxes", "regcells", "gate faults", "detected", "coverage", "COP predicted")
	for _, name := range []string{"ex1", "ex2", "tseng1", "tseng2", "paulin"} {
		d, mods, err := bistpath.Benchmark(name)
		if err != nil {
			return err
		}
		res, err := d.SynthesizeCtx(context.Background(), mods, bistpath.DefaultConfig())
		if err != nil {
			return err
		}
		rep, err := res.GateLevel(250, 0xB157)
		if err != nil {
			return err
		}
		f, det := rep.Totals()
		pred, weight := 0.0, 0
		for _, m := range rep.PerModule {
			pred += m.Predicted * float64(m.Faults)
			weight += m.Faults
		}
		t.AddRowf(name, rep.TotalGates, rep.DFFs, rep.Functional,
			rep.PortMuxes+rep.RegMuxes, rep.RegCells, f, det,
			fmt.Sprintf("%.1f%%", rep.Pct()), fmt.Sprintf("%.1f%%", pred/float64(weight)))
	}
	fmt.Println(t)
	fmt.Println("note: the restoring divider (ex2, tseng1/2) is classically random-pattern")
	fmt.Println("resistant; its coverage sits at the intrinsic ceiling for 250 patterns.")
	fmt.Println()
	return nil
}

// batchWorkers is the -j flag: how many synthesis jobs the table sweeps
// run concurrently (0 = GOMAXPROCS).
var batchWorkers int

// batchSynth runs every batch of the table sweeps. With the
// -cache/-cache-dir flags its Config.Cache is a result cache every job
// inherits: tables repeatedly re-synthesize the same benchmark/config
// pairs, so a shared cache collapses those to one run each.
var batchSynth *bistpath.Synthesizer

// runBatch fans jobs out over the shared worker pool and unwraps the
// per-job errors; results come back in job order.
func runBatch(jobs []bistpath.Job) ([]*bistpath.Result, error) {
	out := make([]*bistpath.Result, 0, len(jobs))
	results, _ := batchSynth.SynthesizeAll(context.Background(), jobs, bistpath.BatchOptions{Workers: batchWorkers})
	for _, br := range results {
		if br.Err != nil {
			return nil, fmt.Errorf("%s: %w", br.Name, br.Err)
		}
		out = append(out, br.Result)
	}
	return out, nil
}

// bothFlows builds the (testable, traditional) job pair for one design.
func bothFlows(name string) ([]bistpath.Job, error) {
	d, mods, err := bistpath.Benchmark(name)
	if err != nil {
		return nil, err
	}
	cfgT := bistpath.DefaultConfig()
	cfgR := bistpath.DefaultConfig()
	cfgR.Mode = bistpath.TraditionalHLS
	return []bistpath.Job{
		{Name: name + "/testable", DFG: d, Modules: mods, Config: cfgT},
		{Name: name + "/traditional", DFG: d, Modules: mods, Config: cfgR},
	}, nil
}

// synthAllBoth runs both flows for every benchmark on the worker pool,
// returning per-design (testable, traditional) pairs keyed by name.
func synthAllBoth() (map[string][2]*bistpath.Result, error) {
	var jobs []bistpath.Job
	var names []string
	for _, b := range benchdata.All() {
		pair, err := bothFlows(b.Name)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, pair...)
		names = append(names, b.Name)
	}
	results, err := runBatch(jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string][2]*bistpath.Result, len(names))
	for i, name := range names {
		out[name] = [2]*bistpath.Result{results[2*i], results[2*i+1]}
	}
	return out, nil
}

// synthBoth runs both flows on one benchmark.
func synthBoth(name string) (testable, traditional *bistpath.Result, err error) {
	jobs, err := bothFlows(name)
	if err != nil {
		return nil, nil, err
	}
	results, err := runBatch(jobs)
	if err != nil {
		return nil, nil, err
	}
	return results[0], results[1], nil
}

// paperTableI holds the paper's Table I values: trad %, testable %,
// reduction %, plus register counts.
var paperTableI = map[string]struct {
	trad, test, red float64
	regs            int
}{
	"ex1":    {18.14, 10.67, 30.00, 3},
	"ex2":    {11.17, 7.56, 32.31, 5},
	"tseng1": {17.65, 11.34, 35.75, 5},
	"tseng2": {10.04, 5.66, 46.62, 5},
	"paulin": {16.34, 9.34, 42.84, 4},
}

func tableI() error {
	t := report.NewTable("Table I — design comparisons with BIST area overhead",
		"DFG", "modules", "#reg", "mux t/o", "%BIST trad", "%BIST ours", "%reduction", "paper t/o/red")
	pairs, err := synthAllBoth()
	if err != nil {
		return err
	}
	for _, b := range benchdata.All() {
		test, trad := pairs[b.Name][0], pairs[b.Name][1]
		red := (trad.OverheadPct - test.OverheadPct) / trad.OverheadPct * 100
		p := paperTableI[b.Name]
		t.AddRowf(b.Name, b.ModuleInventory, test.NumRegisters(),
			fmt.Sprintf("%d/%d", trad.MuxCount, test.MuxCount),
			trad.OverheadPct, test.OverheadPct, red,
			fmt.Sprintf("%.1f/%.1f/%.1f", p.trad, p.test, p.red))
	}
	fmt.Println(t)
	return nil
}

// paperTableII holds the paper's minimal-area BIST solutions.
var paperTableII = map[string][2]string{
	"ex1":    {"2 CBILBO, 1 TPG", "1 CBILBO, 1 TPG"},
	"ex2":    {"2 CBILBO, 1 TPG/SA, 2 TPG", "1 CBILBO, 2 TPG/SA, 1 TPG"},
	"tseng1": {"2 CBILBO, 3 TPG/SA", "1 CBILBO, 3 TPG/SA, 1 TPG"},
	"tseng2": {"2 CBILBO, 1 TPG/SA, 1 TPG", "2 TPG/SA, 1 TPG"},
	"paulin": {"3 CBILBO, 1 TPG/SA", "1 CBILBO, 2 TPG, 1 SA"},
}

func tableII() error {
	t := report.NewTable("Table II — minimal area BIST solutions",
		"DFG", "flow", "measured", "paper")
	pairs, err := synthAllBoth()
	if err != nil {
		return err
	}
	for _, b := range benchdata.All() {
		test, trad := pairs[b.Name][0], pairs[b.Name][1]
		p := paperTableII[b.Name]
		t.AddRow(b.Name, "traditional", trad.StyleSummary(), p[0])
		t.AddRow("", "testable", test.StyleSummary(), p[1])
	}
	fmt.Println(t)
	return nil
}

func tableIII() error {
	b := benchdata.Paulin()
	g := b.Graph
	mb, err := b.Modules()
	if err != nil {
		return err
	}
	t := report.NewTable("Table III — design comparison for the Paulin example",
		"system", "modules", "#reg", "#TPG", "#SA", "#BILBO", "#CBILBO", "paper (reg/T/S/B/C)")

	ral, err := baselines.RALLOC(g, mb)
	if err != nil {
		return err
	}
	addBaseline(t, "RALLOC", b.ModuleInventory, ral, "5/0/0/4/1")

	smb, err := modassign.FromMap(g, baselines.PaulinSyntestModules())
	if err != nil {
		return err
	}
	syn, err := baselines.SYNTEST(g, smb)
	if err != nil {
		return err
	}
	addBaseline(t, "SYNTEST", "(+*-), (>*-), (*+)", syn, "5/4/1/0/0")

	test, _, err := synthBoth("paulin")
	if err != nil {
		return err
	}
	sc := test.StyleCounts
	t.AddRowf("Ours", b.ModuleInventory, test.NumRegisters(),
		sc["TPG"], sc["SA"], sc["TPG/SA"], sc["CBILBO"], "4/2/1/0/1")
	fmt.Println(t)
	return nil
}

func addBaseline(t *report.Table, name, mods string, r *baselines.Result, paper string) {
	c := r.StyleCount()
	t.AddRowf(name, mods, r.Binding.NumRegisters(),
		c[area.TPG], c[area.SA], c[area.BILBO], c[area.CBILBO], paper)
}

// fig1 reproduces the generic I-path configuration of Fig. 1: module M1
// with a multiplexed left port (R1, R2) and a dedicated right port (R3).
func fig1() error {
	fmt.Println("Figure 1 — simple I-paths of a generic configuration")
	d := bistpath.NewDFG("fig1")
	if err := d.AddInput("u", "v", "w"); err != nil {
		return err
	}
	d.AddOp("op1", "+", 1, "x", "u", "w")
	d.AddOp("op2", "+", 2, "y", "v", "w")
	d.MarkOutput("x", "y")
	res, err := d.SynthesizeCtx(context.Background(), map[string]string{"op1": "M1", "op2": "M1"}, bistpath.DefaultConfig())
	if err != nil {
		return err
	}
	for _, m := range res.Modules {
		fmt.Printf("  module %s embedding: %s\n", m.Name, m.Embedding)
	}
	fmt.Print(indent(res.NetlistText(), "  "))
	fmt.Println()
	return nil
}

func fig2() error {
	fmt.Println("Figure 2 — the scheduled DFG of the running example (ex1)")
	b := benchdata.Ex1()
	fmt.Print(indent(b.Graph.Text(), "  "))
	lts, err := b.Graph.Lifetimes()
	if err != nil {
		return err
	}
	var names []string
	for n := range lts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Print("  lifetimes: ")
	for i, n := range names {
		if i > 0 {
			fmt.Print("  ")
		}
		fmt.Print(lts[n])
	}
	fmt.Println()
	fmt.Println()
	return nil
}

// fig3 demonstrates I-path sharing: registers that serve as common heads
// or tails for several modules of ex1's testable data path.
func fig3() error {
	fmt.Println("Figure 3 — sharing of I-paths (common heads and tails, ex1 testable)")
	b := benchdata.Ex1()
	mb, err := b.Modules()
	if err != nil {
		return err
	}
	rb, err := regassign.Bind(b.Graph, mb, regassign.DefaultOptions())
	if err != nil {
		return err
	}
	sh := regassign.NewSharing(b.Graph, mb)
	for _, r := range rb.Registers {
		var heads, tails []string
		for j, m := range sh.Modules {
			x, y := sh.Flags(r.Vars, j)
			if x {
				heads = append(heads, m)
			}
			if y {
				tails = append(tails, m)
			}
		}
		fmt.Printf("  %s {%s}: head for {%s}, tail for {%s}, SD=%d\n",
			r.Name, strings.Join(r.Vars, ","), strings.Join(heads, ","),
			strings.Join(tails, ","), sh.SDReg(r.Vars))
	}
	fmt.Println()
	return nil
}

func fig4() error {
	fmt.Println("Figure 4 — variable conflict graph of ex1 with SD and MCS values")
	b := benchdata.Ex1()
	mb, err := b.Modules()
	if err != nil {
		return err
	}
	sh := regassign.NewSharing(b.Graph, mb)
	mcs, err := b.Graph.MaxCliqueSize()
	if err != nil {
		return err
	}
	cg, err := regassign.ConflictGraph(b.Graph)
	if err != nil {
		return err
	}
	t := report.NewTable("", "variable", "SD", "MCS", "conflicts with")
	for _, v := range b.Graph.AllocVars() {
		t.AddRowf(v, sh.SDVar(v), mcs[v], strings.Join(cg.Neighbors(v), ","))
	}
	fmt.Print(indent(t.String(), "  "))
	fmt.Println()
	return nil
}

func fig5() error {
	fmt.Println("Figure 5 — data paths synthesized from ex1 (a: testable, b: traditional)")
	test, trad, err := synthBoth("ex1")
	if err != nil {
		return err
	}
	fmt.Printf("  (a) testable — minimal BIST solution: %s (overhead %.2f%%)\n", test.StyleSummary(), test.OverheadPct)
	fmt.Print(indent(test.NetlistText(), "      "))
	fmt.Printf("  (b) traditional — minimal BIST solution: %s (overhead %.2f%%)\n", trad.StyleSummary(), trad.OverheadPct)
	fmt.Print(indent(trad.NetlistText(), "      "))
	fmt.Println()
	return nil
}

func fig6() error {
	fmt.Println("Figure 6 — effect of register merges on interconnect")
	// A small graph exhibiting all five merge situations.
	g := dfg.New("fig6")
	if err := g.AddInput("a", "b", "c", "d", "e", "f"); err != nil {
		return err
	}
	g.AddOp("o1", dfg.Add, 1, "s", "a", "b") // M1
	g.AddOp("o2", dfg.Mul, 1, "t", "c", "d") // M2
	g.AddOp("o3", dfg.Add, 2, "u", "s", "e") // M1
	g.AddOp("o4", dfg.Mul, 2, "v", "t", "f") // M2
	g.AddOp("o5", dfg.Add, 3, "w", "u", "v") // M1
	g.MarkOutput("w")
	if err := g.Validate(); err != nil {
		return err
	}
	mb, err := modassign.FromMap(g, map[string]string{"o1": "M1", "o3": "M1", "o5": "M1", "o2": "M2", "o4": "M2"})
	if err != nil {
		return err
	}
	t := report.NewTable("", "merge", "case", "new mux inputs", "new fanouts", "self-adjacent")
	// s+t: distinct sources (M1, M2) and destinations (case 1);
	// e+w: w is produced by M1 which consumes e (case 2, chained);
	// a+b: both feed o1 on M1 (case 3, common destination);
	// s+w: both produced by M1, different destinations (case 4);
	// s+u: produced by and feeding M1 (case 5, common source and dest).
	pairs := [][2]string{{"s", "t"}, {"e", "w"}, {"a", "b"}, {"s", "w"}, {"s", "u"}}
	for _, p := range pairs {
		eff := interconnect.ClassifyMerge(g, mb, p[0], p[1])
		t.AddRowf(p[0]+"+"+p[1], eff.Case.String(), eff.NewRegisterSources, eff.NewDestinations, fmt.Sprint(eff.SelfAdjacent))
	}
	fmt.Print(indent(t.String(), "  "))
	fmt.Println()
	return nil
}

func runAblation() error {
	const trials = 30
	type cfgRow struct {
		name string
		cfg  bistpath.Config
	}
	mk := func(mut func(*bistpath.Config)) bistpath.Config {
		c := bistpath.DefaultConfig()
		mut(&c)
		return c
	}
	rows := []cfgRow{
		{"full (paper)", mk(func(c *bistpath.Config) {})},
		{"no SD guidance", mk(func(c *bistpath.Config) { c.Sharing = false; c.CaseOverrides = false })},
		{"no case overrides", mk(func(c *bistpath.Config) { c.CaseOverrides = false })},
		{"no Lemma-2 avoidance", mk(func(c *bistpath.Config) { c.AvoidCBILBO = false })},
		{"unweighted interconnect", mk(func(c *bistpath.Config) { c.WeightedInterconnect = false })},
		{"traditional", mk(func(c *bistpath.Config) { c.Mode = bistpath.TraditionalHLS })},
	}
	bt := report.NewTable("Ablation — the five paper benchmarks",
		"configuration", "mean %BIST", "total CBILBOs", "total BIST regs")
	for _, row := range rows {
		var ovh float64
		cb, br := 0, 0
		for _, b := range benchdata.All() {
			d, mods, err := bistpath.Benchmark(b.Name)
			if err != nil {
				return err
			}
			res, err := d.SynthesizeCtx(context.Background(), mods, row.cfg)
			if err != nil {
				return err
			}
			ovh += res.OverheadPct
			cb += res.StyleCounts["CBILBO"]
			br += res.NumBISTRegisters()
		}
		bt.AddRowf(row.name, ovh/5, cb, br)
	}
	fmt.Println(bt)

	t := report.NewTable(fmt.Sprintf("Ablation — mean over %d random DFGs", trials),
		"configuration", "mean %BIST", "mean CBILBOs", "mean regs")
	for _, row := range rows {
		var ovh, cb, regs float64
		n := 0
		for seed := int64(1000); seed < 1000+trials; seed++ {
			g, _, err := benchdata.RandomWithModules(benchdata.DefaultRandomConfig(seed))
			if err != nil {
				return err
			}
			d, err := bistpath.ParseDFG(g.Text())
			if err != nil {
				return err
			}
			res, err := d.SynthesizeCtx(context.Background(), nil, row.cfg)
			if err != nil {
				return err
			}
			ovh += res.OverheadPct
			cb += float64(res.StyleCounts["CBILBO"])
			regs += float64(res.NumRegisters())
			n++
		}
		t.AddRowf(row.name, ovh/float64(n), cb/float64(n), regs/float64(n))
	}
	fmt.Println(t)
	return nil
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pre + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
