// Command bistpath synthesizes low-BIST-overhead RTL data paths from
// scheduled data flow graphs (Parulkar/Gupta/Breuer, DAC'95).
//
// Usage:
//
//	bistpath synth   -bench ex1 | -dfg file.dfg [-mode testable|traditional] [-width 8] [-netlist] [-dot]
//	bistpath sim     -bench ex1 | -dfg file.dfg -inputs a=1,b=2,...
//	bistpath cover   -bench ex1 | -dfg file.dfg [-patterns 255]
//	bistpath list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"bistpath"
	"bistpath/internal/dfg"
	"bistpath/internal/sched"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "synth":
		err = cmdSynth(os.Args[2:])
	case "sim":
		err = cmdSim(os.Args[2:])
	case "cover":
		err = cmdCover(os.Args[2:])
	case "emit":
		err = cmdEmit(os.Args[2:])
	case "gatesim":
		err = cmdGatesim(os.Args[2:])
	case "schedule":
		err = cmdSchedule(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "list":
		for _, n := range bistpath.BenchmarkNames() {
			fmt.Println(n)
		}
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine renders a command's error for stderr behind exactly one
// "bistpath:" prefix; errors from the library already carry it.
func errorLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "bistpath: ") {
		msg = "bistpath: " + msg
	}
	return msg
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bistpath synth -bench <name>[,<name>...]|all | -dfg <file> [-mode testable|traditional] [-width N] [-j N]
                 [-objective area|weighted|pareto] [-weights A,T,P]
                 [-search exact|auto|stochastic] [-seed N] [-budget DUR] [-generations N]
                 [-cache] [-cache-dir DIR] [-stats] [-json] [-netlist] [-dot]
  bistpath sim   -bench <name> | -dfg <file> -inputs a=1,b=2,...
  bistpath cover -bench <name> | -dfg <file> [-patterns N] [-width N]
  bistpath emit  -bench <name> | -dfg <file> [-format rtl|gates] [-module NAME]
  bistpath gatesim -bench <name> | -dfg <file> [-patterns N]
  bistpath schedule -dfg <file> [-latency N]   (compare ASAP/ALAP/list/force-directed)
  bistpath verify -bench <name>[,<name>...]|all | -dfg <file> [-mode testable|traditional] [-width N]
                  [-vectors N] [-seed N] [-workers 1,2,8] [-fast] [-sweep N] [-json]
  bistpath list`)
}

// loadDesign resolves -bench/-dfg flags into a DFG and module map (nil
// map = automatic module binding).
func loadDesign(bench, dfgFile string) (*bistpath.DFG, map[string]string, error) {
	switch {
	case bench != "" && dfgFile != "":
		return nil, nil, fmt.Errorf("use either -bench or -dfg, not both")
	case bench != "":
		return bistpath.Benchmark(bench)
	case dfgFile != "":
		data, err := os.ReadFile(dfgFile)
		if err != nil {
			return nil, nil, err
		}
		d, err := bistpath.ParseDFG(string(data))
		return d, nil, err
	default:
		return nil, nil, fmt.Errorf("need -bench <name> or -dfg <file>")
	}
}

func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	bench := fs.String("bench", "", "built-in benchmark name, comma-separated list, or \"all\"")
	dfgFile := fs.String("dfg", "", "DFG file")
	mode := fs.String("mode", "testable", "testable or traditional")
	width := fs.Int("width", 8, "datapath bit width")
	jobs := fs.Int("j", 0, "parallel synthesis workers for multi-design runs (0 = GOMAXPROCS)")
	netlist := fs.Bool("netlist", false, "print the netlist and control program")
	dot := fs.Bool("dot", false, "print a Graphviz rendering of the data path")
	traceFlag := fs.Bool("trace", false, "explain every register-binding decision")
	gantt := fs.Bool("gantt", false, "print the register/module occupancy chart")
	statsFlag := fs.Bool("stats", false, "print per-phase times and search counters after each report")
	jsonFlag := fs.Bool("json", false, "emit the machine-readable JSON result (an array for multi-design runs; includes stats)")
	cacheFlag := fs.Bool("cache", false, "serve duplicate designs from an in-memory result cache")
	cacheDir := fs.String("cache-dir", "", "also persist cached results under this directory (implies -cache)")
	objectiveFlag := fs.String("objective", "", "optimization objective: area (default), weighted, or pareto")
	weightsFlag := fs.String("weights", "", "weighted objective coefficients as area,time,power (e.g. 1,50,2)")
	searchFlag := fs.String("search", "", "BIST search strategy: exact (default), auto, or stochastic")
	seedFlag := fs.Int64("seed", 0, "stochastic search seed (0 means 1; exact search ignores it)")
	budgetFlag := fs.Duration("budget", 0, "stochastic search wall-clock budget, e.g. 2s (truncated runs bypass the cache)")
	generationsFlag := fs.Int("generations", 0, "stochastic search generation cap (0 = default)")
	fs.Parse(args)

	cfg := bistpath.DefaultConfig()
	cfg.Width = *width
	switch *mode {
	case "testable":
	case "traditional":
		cfg.Mode = bistpath.TraditionalHLS
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	cfg.Trace = *traceFlag
	obj, err := bistpath.ParseObjective(*objectiveFlag)
	if err != nil {
		return err
	}
	cfg.Objective = obj
	if *weightsFlag != "" {
		if obj != bistpath.WeightedSum {
			return fmt.Errorf("-weights applies only to -objective weighted")
		}
		w, err := parseWeights(*weightsFlag)
		if err != nil {
			return err
		}
		cfg.Weights = w
	}
	search, err := bistpath.ParseSearch(*searchFlag)
	if err != nil {
		return err
	}
	cfg.Search = search
	cfg.Seed = *seedFlag
	cfg.TimeBudget = *budgetFlag
	cfg.MaxGenerations = *generationsFlag

	var cc *bistpath.Cache
	if *cacheFlag || *cacheDir != "" {
		var err error
		cc, err = bistpath.NewCache(bistpath.CacheOptions{Dir: *cacheDir})
		if err != nil {
			return err
		}
		cfg.Cache = cc
		defer func() { fmt.Fprintln(os.Stderr, cc.Stats()) }()
	}

	// A benchmark list (or "all") fans the designs out over the batch
	// worker pool; output order is the list order regardless of -j.
	if names := benchList(*bench); len(names) > 1 {
		if *dfgFile != "" {
			return fmt.Errorf("use either -bench or -dfg, not both")
		}
		var batch []bistpath.Job
		for _, name := range names {
			d, mods, err := bistpath.Benchmark(name)
			if err != nil {
				return err
			}
			batch = append(batch, bistpath.Job{Name: name, DFG: d, Modules: mods, Config: cfg})
		}
		var docs []json.RawMessage
		results, _ := bistpath.SynthesizeAll(context.Background(), batch, bistpath.BatchOptions{Workers: *jobs})
		for i, br := range results {
			if br.Err != nil {
				return fmt.Errorf("%s: %w", br.Name, br.Err)
			}
			if *jsonFlag {
				doc, err := br.Result.JSON()
				if err != nil {
					return err
				}
				docs = append(docs, doc)
				continue
			}
			if i > 0 {
				fmt.Println()
			}
			printResult(br.Result)
			if *statsFlag {
				fmt.Print(br.Result.Stats)
			}
		}
		if *jsonFlag {
			out, err := json.MarshalIndent(docs, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(out))
		}
		return nil
	}

	d, mods, err := loadDesign(*bench, *dfgFile)
	if err != nil {
		return err
	}
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		return err
	}
	if *jsonFlag {
		doc, err := res.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(doc))
		return nil
	}
	printResult(res)
	if *statsFlag {
		fmt.Print(res.Stats)
	}
	if *traceFlag {
		fmt.Println("  binding decisions:")
		for i, note := range res.BindingTrace {
			fmt.Printf("    %2d. %s\n", i+1, note)
		}
	}
	if *gantt {
		chart, err := res.OccupancyChart()
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(chart)
	}
	if *netlist {
		fmt.Println()
		fmt.Print(res.NetlistText())
	}
	if *dot {
		fmt.Println()
		fmt.Print(res.DatapathDot())
	}
	return nil
}

// parseWeights parses the -weights argument: three comma-separated
// non-negative integers for area, test time and peak power.
func parseWeights(arg string) (bistpath.Weights, error) {
	parts := strings.Split(arg, ",")
	if len(parts) != 3 {
		return bistpath.Weights{}, fmt.Errorf("-weights needs area,time,power (got %q)", arg)
	}
	vals := make([]int, 3)
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return bistpath.Weights{}, fmt.Errorf("bad -weights value %q: %v", p, err)
		}
		vals[i] = n
	}
	return bistpath.Weights{Area: vals[0], TestTime: vals[1], PeakPower: vals[2]}, nil
}

// benchList expands the -bench argument into a list of benchmark names:
// "all" selects every built-in design, commas separate explicit names.
func benchList(arg string) []string {
	if arg == "all" {
		return bistpath.BenchmarkNames()
	}
	if !strings.Contains(arg, ",") {
		return nil
	}
	var names []string
	for _, n := range strings.Split(arg, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

func printResult(res *bistpath.Result) {
	fmt.Print(res.ReportText())
}

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	bench := fs.String("bench", "", "built-in benchmark name")
	dfgFile := fs.String("dfg", "", "DFG file")
	width := fs.Int("width", 8, "datapath bit width")
	inputs := fs.String("inputs", "", "comma-separated name=value input assignments")
	vcdPath := fs.String("vcd", "", "write a gate-level VCD waveform of the run to this file")
	fs.Parse(args)

	d, mods, err := loadDesign(*bench, *dfgFile)
	if err != nil {
		return err
	}
	cfg := bistpath.DefaultConfig()
	cfg.Width = *width
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		return err
	}
	in := make(map[string]uint64)
	if *inputs != "" {
		for _, kv := range strings.Split(*inputs, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad input assignment %q", kv)
			}
			v, err := strconv.ParseUint(parts[1], 0, 64)
			if err != nil {
				return fmt.Errorf("bad value in %q: %v", kv, err)
			}
			in[parts[0]] = v
		}
	}
	var out map[string]uint64
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out, err = res.DumpVCD(in, f)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *vcdPath)
	} else {
		var err error
		out, err = res.Simulate(in)
		if err != nil {
			return err
		}
	}
	var names []string
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s = %d\n", n, out[n])
	}
	return nil
}

func cmdCover(args []string) error {
	fs := flag.NewFlagSet("cover", flag.ExitOnError)
	bench := fs.String("bench", "", "built-in benchmark name")
	dfgFile := fs.String("dfg", "", "DFG file")
	width := fs.Int("width", 8, "datapath bit width")
	patterns := fs.Int("patterns", 255, "pseudo-random patterns per session")
	fs.Parse(args)

	d, mods, err := loadDesign(*bench, *dfgFile)
	if err != nil {
		return err
	}
	cfg := bistpath.DefaultConfig()
	cfg.Width = *width
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		return err
	}
	rep, err := res.FaultCoverage(*patterns, 0xB157)
	if err != nil {
		return err
	}
	for _, mc := range rep.PerModule {
		fmt.Printf("%-6s %4d/%4d faults detected (%.2f%%)\n", mc.Module, mc.Detected, mc.Faults, mc.Pct())
	}
	f, det := rep.Totals()
	fmt.Printf("total  %4d/%4d (%.2f%%) with %d patterns\n", det, f, rep.Pct(), rep.Patterns)
	return nil
}

func cmdEmit(args []string) error {
	fs := flag.NewFlagSet("emit", flag.ExitOnError)
	bench := fs.String("bench", "", "built-in benchmark name")
	dfgFile := fs.String("dfg", "", "DFG file")
	width := fs.Int("width", 8, "datapath bit width")
	format := fs.String("format", "rtl", "rtl (behavioral), gates (structural, with BIST registers) or tb (self-checking testbench; needs -inputs)")
	module := fs.String("module", "", "Verilog module name (gates format)")
	controller := fs.Bool("controller", false, "gates format: generate the on-chip microcode controller (self-timed netlist)")
	inputs := fs.String("inputs", "", "tb format: comma-separated name=value input assignments")
	fs.Parse(args)

	d, mods, err := loadDesign(*bench, *dfgFile)
	if err != nil {
		return err
	}
	cfg := bistpath.DefaultConfig()
	cfg.Width = *width
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		return err
	}
	switch *format {
	case "rtl":
		fmt.Print(res.VerilogRTL())
	case "tb":
		in := make(map[string]uint64)
		if *inputs != "" {
			for _, kv := range strings.Split(*inputs, ",") {
				parts := strings.SplitN(kv, "=", 2)
				if len(parts) != 2 {
					return fmt.Errorf("bad input assignment %q", kv)
				}
				v, err := strconv.ParseUint(parts[1], 0, 64)
				if err != nil {
					return err
				}
				in[parts[0]] = v
			}
		}
		tb, err := res.VerilogTestbench(in)
		if err != nil {
			return err
		}
		fmt.Print(res.VerilogRTL())
		fmt.Println()
		fmt.Print(tb)
	case "gates":
		name := *module
		if name == "" {
			name = res.Name + "_bist"
		}
		var v string
		if *controller {
			v, err = res.VerilogGatesSelfTimed(name)
		} else {
			v, err = res.VerilogGates(name)
		}
		if err != nil {
			return err
		}
		fmt.Print(v)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}

func cmdGatesim(args []string) error {
	fs := flag.NewFlagSet("gatesim", flag.ExitOnError)
	bench := fs.String("bench", "", "built-in benchmark name")
	dfgFile := fs.String("dfg", "", "DFG file")
	width := fs.Int("width", 8, "datapath bit width")
	patterns := fs.Int("patterns", 250, "pseudo-random patterns per module test")
	fs.Parse(args)

	d, mods, err := loadDesign(*bench, *dfgFile)
	if err != nil {
		return err
	}
	cfg := bistpath.DefaultConfig()
	cfg.Width = *width
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		return err
	}
	rep, err := res.GateLevel(*patterns, 0xB157)
	if err != nil {
		return err
	}
	fmt.Printf("gate-level design: %d gates, %d flip-flops\n", rep.TotalGates, rep.DFFs)
	fmt.Printf("  functional %d, port muxes %d, register muxes %d, register cells %d\n",
		rep.Functional, rep.PortMuxes, rep.RegMuxes, rep.RegCells)
	for _, mc := range rep.PerModule {
		fmt.Printf("  %-6s %4d/%4d gate faults detected (%.1f%%)\n", mc.Module, mc.Detected, mc.Faults, mc.Pct())
	}
	f, det := rep.Totals()
	fmt.Printf("  total  %4d/%4d (%.1f%%) with %d patterns per session\n", det, f, rep.Pct(), rep.Patterns)
	return nil
}

func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	bench := fs.String("bench", "", "built-in benchmark name")
	dfgFile := fs.String("dfg", "", "DFG file")
	latency := fs.Int("latency", 0, "latency bound for ALAP/force-directed (default: critical path)")
	fs.Parse(args)

	d, _, err := loadDesign(*bench, *dfgFile)
	if err != nil {
		return err
	}
	// Work on the internal graph via the text round trip, unscheduled.
	g, err := dfg.ParseString(d.Text())
	if err != nil {
		return err
	}
	for _, o := range g.Ops() {
		o.Step = 0
	}
	asap, err := sched.ASAP(g)
	if err != nil {
		return err
	}
	cp := sched.Length(asap)
	lat := *latency
	if lat < cp {
		lat = cp
	}
	alap, err := sched.ALAP(g, lat)
	if err != nil {
		return err
	}
	list, err := sched.ListSchedule(g, nil)
	if err != nil {
		return err
	}
	fds, err := sched.ForceDirected(g, lat)
	if err != nil {
		return err
	}
	show := func(name string, steps map[string]int) {
		peak := sched.PeakUsage(g, steps)
		var kinds []string
		for k, n := range peak {
			kinds = append(kinds, fmt.Sprintf("%s:%d", k, n))
		}
		sort.Strings(kinds)
		fmt.Printf("%-15s latency=%d  peak modules: %s\n", name, sched.Length(steps), strings.Join(kinds, " "))
	}
	fmt.Printf("critical path %d steps, bound %d\n", cp, lat)
	show("ASAP", asap)
	show("ALAP", alap)
	show("list (greedy)", list)
	show("force-directed", fds)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	bench := fs.String("bench", "", "built-in benchmark name, comma-separated list, or \"all\"")
	dfgFile := fs.String("dfg", "", "DFG file")
	mode := fs.String("mode", "testable", "testable or traditional")
	width := fs.Int("width", 8, "datapath bit width")
	vectors := fs.Int("vectors", 100, "random input vectors for the functional cross-check")
	seed := fs.Int64("seed", 1, "seed for the functional cross-check vectors")
	workersFlag := fs.String("workers", "", "comma-separated search worker counts to cross-check (default 1,2,8)")
	fast := fs.Bool("fast", false, "skip the brute-force oracles (invariants + functional only)")
	sweep := fs.Int("sweep", 0, "verify N seeded random designs instead of a named one")
	jsonFlag := fs.Bool("json", false, "emit machine-readable JSON reports")
	fs.Parse(args)

	cfg := bistpath.DefaultConfig()
	cfg.Width = *width
	switch *mode {
	case "testable":
	case "traditional":
		cfg.Mode = bistpath.TraditionalHLS
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	opts := bistpath.VerifyOptions{Vectors: *vectors, Seed: *seed, SkipOracles: *fast}
	if *workersFlag != "" {
		for _, w := range strings.Split(*workersFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(w))
			if err != nil {
				return fmt.Errorf("bad -workers value %q: %v", w, err)
			}
			opts.Workers = append(opts.Workers, n)
		}
	}

	var reports []*bistpath.VerifyReport
	failed := 0
	verifyOne := func(label string, d *bistpath.DFG, mods map[string]string, vo bistpath.VerifyOptions) error {
		res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
		if err != nil {
			return err
		}
		rep, err := res.Verify(context.Background(), vo)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
		if !rep.OK() {
			failed++
		}
		if !*jsonFlag {
			fmt.Print(rep.Summary())
		}
		_ = label
		return nil
	}

	if *sweep > 0 {
		if *bench != "" || *dfgFile != "" {
			return fmt.Errorf("-sweep generates its own designs; drop -bench/-dfg")
		}
		// A bounded fraction of random designs legitimately has a module
		// with no register I-path; anything beyond that bound (or any
		// other failure) is a real bug.
		skipBudget := *sweep/4 + 1
		skipped := 0
		for s := int64(1); s <= int64(*sweep); s++ {
			d, mods, err := bistpath.RandomDesign(s)
			if err != nil {
				return fmt.Errorf("sweep seed %d: %v", s, err)
			}
			vo := opts
			vo.Seed = s
			// Full oracles are exponential; sample them on every fifth
			// seed with modest caps and run the fast layers everywhere.
			if !*fast && s%5 == 0 {
				vo.EmbeddingCap = 1 << 16
				vo.BindingLimit = 400
			} else {
				vo.SkipOracles = true
			}
			res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
			if err != nil {
				if errors.Is(err, bistpath.ErrNoEmbedding) {
					skipped++
					if skipped > skipBudget {
						return fmt.Errorf("sweep: %d designs had no BIST embedding (budget %d): %v", skipped, skipBudget, err)
					}
					continue
				}
				return fmt.Errorf("sweep seed %d: %v", s, err)
			}
			rep, err := res.Verify(context.Background(), vo)
			if err != nil {
				return fmt.Errorf("sweep seed %d: %v", s, err)
			}
			reports = append(reports, rep)
			if !rep.OK() {
				failed++
				if !*jsonFlag {
					fmt.Printf("seed %d:\n%s", s, rep.Summary())
				}
			}
		}
		if !*jsonFlag {
			fmt.Printf("sweep: %d designs verified, %d skipped (no embedding), %d failed\n",
				len(reports), skipped, failed)
		}
	} else if names := benchList(*bench); len(names) > 1 {
		if *dfgFile != "" {
			return fmt.Errorf("use either -bench or -dfg, not both")
		}
		for _, name := range names {
			d, mods, err := bistpath.Benchmark(name)
			if err != nil {
				return err
			}
			if err := verifyOne(name, d, mods, opts); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	} else {
		d, mods, err := loadDesign(*bench, *dfgFile)
		if err != nil {
			return err
		}
		if err := verifyOne(*bench, d, mods, opts); err != nil {
			return err
		}
	}

	if *jsonFlag {
		out, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	}
	if failed > 0 {
		return fmt.Errorf("verification failed for %d of %d design(s)", failed, len(reports))
	}
	return nil
}
