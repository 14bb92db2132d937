// scalingbench runs the exact-vs-stochastic scaling suite and emits a
// machine-readable comparison as JSON on stdout:
//
//	{"schema": 1, "kind": "scaling", "quick": ..., "bound": ..., "rows": [...]}
//
// Each row synthesizes one design twice — once with the default exact
// search and once with the stochastic search — and records the BIST
// area and search time of both. Two quality gates fail the run (exit 1,
// diagnostics on stderr) while still printing the document:
//
//   - on the five paper benchmarks the stochastic search must recover
//     the exact search's provably optimal area, and
//   - on every generated preset instance the stochastic area must stay
//     within `bound` (default 1.10) of the exact run's area (which
//     degrades to the greedy-fallback incumbent once the branch and
//     bound exhausts its node budget — the stochastic search normally
//     beats that, so the bound is a regression tripwire, not a target).
//
// The document carries no timestamps; the *_ms fields are the only
// run-varying values. scripts/bench-scaling.sh wraps this tool and
// schema-checks the output with scripts/jsoncheck -kind scaling.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"bistpath"
	"bistpath/internal/benchdata"
)

type row struct {
	Name        string  `json:"name"`
	Design      string  `json:"design"` // "paper" | "preset"
	Seed        int64   `json:"seed"`
	Ops         int     `json:"ops"`
	Modules     int     `json:"modules"`
	Registers   int     `json:"registers"`
	ExactArea   int     `json:"exact_area"`
	ExactMS     float64 `json:"exact_ms"` // exact BIST search time
	ExactProved bool    `json:"exact_provable"`
	StochArea   int     `json:"stoch_area"`
	StochMS     float64 `json:"stoch_ms"` // stochastic BIST search time
	Generations int64   `json:"generations"`
	Evaluations int64   `json:"evaluations"`
	Ratio       float64 `json:"ratio"` // stoch_area / exact_area
}

type document struct {
	Schema int     `json:"schema"`
	Kind   string  `json:"kind"`
	Quick  bool    `json:"quick"`
	Bound  float64 `json:"bound"`
	Rows   []row   `json:"rows"`
}

func main() {
	quick := flag.Bool("quick", false, "smaller grid for CI: all paper benchmarks, presets s/m/l at one seed")
	bound := flag.Float64("bound", 1.10, "maximum stoch_area/exact_area ratio on preset instances")
	seedN := flag.Int("seeds", 2, "seeds per preset in the full grid (quick mode always uses 1)")
	flag.Parse()

	doc := document{Schema: 1, Kind: "scaling", Quick: *quick, Bound: *bound}
	var violations []string

	exactCfg := bistpath.DefaultConfig()
	stochCfg := bistpath.DefaultConfig()
	stochCfg.Search = bistpath.SearchStochastic
	stochCfg.Seed = 1

	for _, name := range bistpath.BenchmarkNames() {
		d, mods, err := bistpath.Benchmark(name)
		if err != nil {
			fatal("%s: %v", name, err)
		}
		r, err := compare(name, "paper", 0, d, mods, exactCfg, stochCfg)
		if err != nil {
			fatal("%s: %v", name, err)
		}
		if !r.ExactProved {
			violations = append(violations, fmt.Sprintf(
				"%s: exact search no longer proves optimality on a paper benchmark", name))
		}
		if r.StochArea != r.ExactArea {
			violations = append(violations, fmt.Sprintf(
				"%s: stochastic area %d != known optimum %d", name, r.StochArea, r.ExactArea))
		}
		doc.Rows = append(doc.Rows, r)
	}

	presets := benchdata.PresetNames()
	seeds := *seedN
	if *quick {
		presets = []string{"s", "m", "l"}
		seeds = 1
	}
	for _, preset := range presets {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			cfg, _ := benchdata.Preset(preset, seed)
			g, mb, err := benchdata.RandomWithModules(cfg)
			if err != nil {
				fatal("preset %s seed %d: %v", preset, seed, err)
			}
			d, err := bistpath.ParseDFG(g.Text())
			if err != nil {
				fatal("preset %s seed %d: %v", preset, seed, err)
			}
			mods := make(map[string]string)
			for _, m := range mb.Modules {
				for _, op := range m.Ops {
					mods[op] = m.Name
				}
			}
			r, err := compare(preset, "preset", seed, d, mods, exactCfg, stochCfg)
			if err != nil {
				fatal("preset %s seed %d: %v", preset, seed, err)
			}
			if r.Ratio > *bound {
				violations = append(violations, fmt.Sprintf(
					"preset %s seed %d: stochastic area %d is %.3fx the exact run's %d (bound %.2f)",
					preset, seed, r.StochArea, r.Ratio, r.ExactArea, *bound))
			}
			doc.Rows = append(doc.Rows, r)
		}
	}

	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(out))
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "scalingbench: VIOLATION:", v)
		}
		os.Exit(1)
	}
}

func compare(name, design string, seed int64, d *bistpath.DFG, mods map[string]string, exactCfg, stochCfg bistpath.Config) (row, error) {
	exact, err := d.SynthesizeCtx(context.Background(), mods, exactCfg)
	if err != nil {
		return row{}, fmt.Errorf("exact: %w", err)
	}
	stoch, err := d.SynthesizeCtx(context.Background(), mods, stochCfg)
	if err != nil {
		return row{}, fmt.Errorf("stochastic: %w", err)
	}
	ops := 0
	for _, m := range exact.Modules {
		ops += len(m.Ops)
	}
	// The ratio gates the BIST *overhead* (area added over the base data
	// path), the paper's figure of merit — total area would dilute a bad
	// search result behind the base area.
	exactExtra := exact.BISTArea - exact.BaseArea
	stochExtra := stoch.BISTArea - stoch.BaseArea
	ratio := 1.0
	switch {
	case exactExtra > 0:
		ratio = float64(stochExtra) / float64(exactExtra)
	case stochExtra > 0:
		ratio = 99 // exact needed no upgrades at all; any overhead is a violation
	}
	return row{
		Name:        name,
		Design:      design,
		Seed:        seed,
		Ops:         ops,
		Modules:     len(exact.Modules),
		Registers:   len(exact.Registers),
		ExactArea:   exact.BISTArea,
		ExactMS:     float64(exact.Stats.BISTSearch.Microseconds()) / 1000,
		ExactProved: exact.PlanExact(),
		StochArea:   stoch.BISTArea,
		StochMS:     float64(stoch.Stats.BISTSearch.Microseconds()) / 1000,
		Generations: stoch.Stats.Generations,
		Evaluations: stoch.Stats.Evaluations,
		Ratio:       ratio,
	}, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scalingbench: "+format+"\n", args...)
	os.Exit(1)
}
