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
	"bytes"
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
                 [-cache] [-cache-dir DIR] [-stats] [-json] [-netlist] [-dot]
  bistpath sim   -bench <name> | -dfg <file> -inputs a=1,b=2,...
  bistpath cover -bench <name> | -dfg <file> [-patterns N] [-width N]
  bistpath emit  -bench <name> | -dfg <file> [-format rtl|gates] [-module NAME]
  bistpath gatesim -bench <name> | -dfg <file> [-patterns N]
  bistpath schedule -dfg <file> [-latency N]   (compare ASAP/ALAP/list/force-directed)
  bistpath verify -bench <name>[,<name>...]|all | -dfg <file> [-mode testable|traditional] [-width N]
                  [-vectors N] [-seed N] [-fast] [-sweep N] [-json]
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

// loadDesigns resolves the -bench/-dfg flags of synth and verify into
// the designs to run: one benchmark or DFG file, a comma-separated list
// of benchmarks, or "all" for every built-in design.
func loadDesigns(bench, dfgFile string) ([]bistpath.Job, error) {
	var names []string
	switch {
	case bench == "all":
		names = bistpath.BenchmarkNames()
	case strings.Contains(bench, ","):
		for _, n := range strings.Split(bench, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		names = []string{bench}
	}
	var jobs []bistpath.Job
	for _, name := range names {
		d, mods, err := loadDesign(name, dfgFile)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, bistpath.Job{Name: name, DFG: d, Modules: mods})
	}
	return jobs, nil
}

// designFlags are the -bench, -dfg and -width flags of the commands that
// run one design under the default configuration.
type designFlags struct {
	bench, dfg *string
	width      *int
}

func addDesignFlags(fs *flag.FlagSet) designFlags {
	return designFlags{
		bench: fs.String("bench", "", "built-in benchmark name"),
		dfg:   fs.String("dfg", "", "DFG file"),
		width: fs.Int("width", 8, "datapath bit width"),
	}
}

// synthesize loads the flagged design and synthesizes it under
// DefaultConfig at the flagged width.
func (f designFlags) synthesize() (*bistpath.Result, error) {
	d, mods, err := loadDesign(*f.bench, *f.dfg)
	if err != nil {
		return nil, err
	}
	cfg := bistpath.DefaultConfig()
	cfg.Width = *f.width
	return d.SynthesizeCtx(context.Background(), mods, cfg)
}

// parseInputs parses the -inputs argument: comma-separated name=value
// assignments.
func parseInputs(arg string) (map[string]uint64, error) {
	in := make(map[string]uint64)
	if arg == "" {
		return in, nil
	}
	for _, kv := range strings.Split(arg, ",") {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad input assignment %q", kv)
		}
		v, err := strconv.ParseUint(val, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %v", kv, err)
		}
		in[name] = v
	}
	return in, nil
}

// parseMode parses the -mode argument of synth and verify.
func parseMode(arg string) (bistpath.Mode, error) {
	switch arg {
	case "testable":
		return bistpath.Testable, nil
	case "traditional":
		return bistpath.TraditionalHLS, nil
	}
	return 0, fmt.Errorf("unknown mode %q", arg)
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
	fs.Parse(args)

	cfg := bistpath.DefaultConfig()
	cfg.Width = *width
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	cfg.Mode = m
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

	if *cacheFlag || *cacheDir != "" {
		cc, err := bistpath.NewCache(bistpath.CacheOptions{Dir: *cacheDir})
		if err != nil {
			return err
		}
		cfg.Cache = cc
		defer func() { fmt.Fprintln(os.Stderr, cc.Stats()) }()
	}

	batch, err := loadDesigns(*bench, *dfgFile)
	if err != nil {
		return err
	}
	for i := range batch {
		batch[i].Config = cfg
	}
	// The designs fan out over the batch worker pool; output order is
	// the list order regardless of -j.
	results, _ := bistpath.SynthesizeAll(context.Background(), batch, bistpath.BatchOptions{Workers: *jobs})
	var docs []json.RawMessage
	for i, br := range results {
		if br.Err != nil {
			if len(results) == 1 {
				return br.Err
			}
			return fmt.Errorf("%s: %w", br.Name, br.Err)
		}
		res := br.Result
		if *jsonFlag {
			doc, err := res.JSON()
			if err != nil {
				return err
			}
			docs = append(docs, doc)
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(res.ReportText())
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
	}
	if !*jsonFlag {
		return nil
	}
	if len(docs) == 1 {
		fmt.Println(string(docs[0]))
		return nil
	}
	out, err := json.MarshalIndent(docs, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
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

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	design := addDesignFlags(fs)
	inputs := fs.String("inputs", "", "comma-separated name=value input assignments")
	vcdPath := fs.String("vcd", "", "write a gate-level VCD waveform of the run to this file")
	fs.Parse(args)

	res, err := design.synthesize()
	if err != nil {
		return err
	}
	in, err := parseInputs(*inputs)
	if err != nil {
		return err
	}
	var out map[string]uint64
	if *vcdPath != "" {
		// The waveform is written only once the run has succeeded, so a
		// failed run leaves no file behind.
		var buf bytes.Buffer
		if out, err = res.DumpVCD(in, &buf); err != nil {
			return err
		}
		if err := os.WriteFile(*vcdPath, buf.Bytes(), 0o666); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *vcdPath)
	} else if out, err = res.Simulate(in); err != nil {
		return err
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
	design := addDesignFlags(fs)
	patterns := fs.Int("patterns", 255, "pseudo-random patterns per session")
	fs.Parse(args)

	res, err := design.synthesize()
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
	design := addDesignFlags(fs)
	format := fs.String("format", "rtl", "rtl (behavioral), gates (structural, with BIST registers) or tb (self-checking testbench; needs -inputs)")
	module := fs.String("module", "", "Verilog module name (gates format)")
	controller := fs.Bool("controller", false, "gates format: generate the on-chip microcode controller (self-timed netlist)")
	inputs := fs.String("inputs", "", "tb format: comma-separated name=value input assignments")
	fs.Parse(args)

	res, err := design.synthesize()
	if err != nil {
		return err
	}
	switch *format {
	case "rtl":
		fmt.Print(res.VerilogRTL())
	case "tb":
		in, err := parseInputs(*inputs)
		if err != nil {
			return err
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
	design := addDesignFlags(fs)
	patterns := fs.Int("patterns", 250, "pseudo-random patterns per module test")
	fs.Parse(args)

	res, err := design.synthesize()
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
	fast := fs.Bool("fast", false, "skip the brute-force oracles (invariants + functional only)")
	sweep := fs.Int("sweep", 0, "verify N seeded random designs instead of a named one")
	jsonFlag := fs.Bool("json", false, "emit machine-readable JSON reports")
	fs.Parse(args)

	cfg := bistpath.DefaultConfig()
	cfg.Width = *width
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	cfg.Mode = m

	opts := bistpath.VerifyOptions{Vectors: *vectors, Seed: *seed, SkipOracles: *fast}

	var reports []*bistpath.VerifyReport
	failed := 0
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
	} else {
		designs, err := loadDesigns(*bench, *dfgFile)
		if err != nil {
			return err
		}
		for _, j := range designs {
			var rep *bistpath.VerifyReport
			res, err := j.DFG.SynthesizeCtx(context.Background(), j.Modules, cfg)
			if err == nil {
				rep, err = res.Verify(context.Background(), opts)
			}
			if err != nil {
				if len(designs) == 1 {
					return err
				}
				return fmt.Errorf("%s: %w", j.Name, err)
			}
			reports = append(reports, rep)
			if !rep.OK() {
				failed++
			}
			if !*jsonFlag {
				fmt.Print(rep.Summary())
			}
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
