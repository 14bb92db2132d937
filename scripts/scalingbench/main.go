// scalingbench runs the BIST search scaling suite and emits it as JSON
// on stdout:
//
//	{"schema": 2, "kind": "scaling", "quick": ..., "rows": [...]}
//
// Each row synthesizes one design under the default config and records
// its BIST area, whether the exact search proved it optimal, the nodes
// the search expanded and the search time. With -pins FILE (a document
// this tool wrote, benchmarks/BENCH_scaling.json) the run is gated on
// the pinned rows, matched by name and seed, and fails (exit 1,
// diagnostics on stderr, the document still printed) when
//
//   - a row has no pin,
//   - a row the pins prove loses its proof or its area,
//   - a row the pins do not prove gets costlier, or
//   - a row's search_nodes rises above its pin.
//
// Node counts are deterministic, so the last gate catches a work
// regression that no machine noise can fake, and that a wall-time gate
// cannot see. The document carries no timestamps; search_ms is its only
// run-varying value. scripts/bench-scaling.sh wraps this tool and
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
	ExactArea   int     `json:"exact_area"` // total BIST area of the plan
	ExactProved bool    `json:"exact_provable"`
	SearchNodes int64   `json:"search_nodes"`
	SearchMS    float64 `json:"search_ms"` // BIST search wall time
}

type document struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	Quick  bool   `json:"quick"`
	Rows   []row  `json:"rows"`
}

func main() {
	quick := flag.Bool("quick", false, "smaller grid for CI: all paper benchmarks, presets s/m/l at one seed")
	seedN := flag.Int("seeds", 6, "seeds per preset in the full grid (quick mode always uses 1)")
	pinsFile := flag.String("pins", "", "gate every row against this committed scaling document")
	flag.Parse()

	doc := document{Schema: 2, Kind: "scaling", Quick: *quick}
	cfg := bistpath.DefaultConfig()

	for _, name := range bistpath.BenchmarkNames() {
		d, mods, err := bistpath.Benchmark(name)
		if err != nil {
			fatal("%s: %v", name, err)
		}
		r, err := measure(name, "paper", 0, d, mods, cfg)
		if err != nil {
			fatal("%s: %v", name, err)
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
			pc, _ := benchdata.Preset(preset, seed)
			g, mb, err := benchdata.RandomWithModules(pc)
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
			r, err := measure(preset, "preset", seed, d, mods, cfg)
			if err != nil {
				fatal("preset %s seed %d: %v", preset, seed, err)
			}
			doc.Rows = append(doc.Rows, r)
		}
	}

	var violations []string
	if *pinsFile != "" {
		pins, err := readPins(*pinsFile)
		if err != nil {
			fatal("%v", err)
		}
		violations = gate(doc.Rows, pins)
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

func measure(name, design string, seed int64, d *bistpath.DFG, mods map[string]string, cfg bistpath.Config) (row, error) {
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		return row{}, err
	}
	ops := 0
	for _, m := range res.Modules {
		ops += len(m.Ops)
	}
	return row{
		Name:        name,
		Design:      design,
		Seed:        seed,
		Ops:         ops,
		Modules:     len(res.Modules),
		Registers:   len(res.Registers),
		ExactArea:   res.BISTArea,
		ExactProved: res.PlanExact(),
		SearchNodes: res.Stats.SearchNodes,
		SearchMS:    float64(res.Stats.BISTSearch.Microseconds()) / 1000,
	}, nil
}

type pinKey struct {
	name string
	seed int64
}

func readPins(path string) (map[pinKey]row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != 2 || doc.Kind != "scaling" {
		return nil, fmt.Errorf("%s: schema %d kind %q, want 2 \"scaling\"", path, doc.Schema, doc.Kind)
	}
	pins := make(map[pinKey]row, len(doc.Rows))
	for _, r := range doc.Rows {
		pins[pinKey{r.Name, r.Seed}] = r
	}
	return pins, nil
}

// gate returns one line per row that breaks its pin.
func gate(rows []row, pins map[pinKey]row) []string {
	var out []string
	for _, r := range rows {
		at := fmt.Sprintf("%s seed %d", r.Name, r.Seed)
		p, ok := pins[pinKey{r.Name, r.Seed}]
		switch {
		case !ok:
			out = append(out, at+": no pinned row")
			continue
		case p.ExactProved && !r.ExactProved:
			out = append(out, fmt.Sprintf("%s: the pins prove area %d, the search no longer proves it", at, p.ExactArea))
		case p.ExactProved && r.ExactArea != p.ExactArea:
			out = append(out, fmt.Sprintf("%s: proved area %d, pinned %d", at, r.ExactArea, p.ExactArea))
		case !p.ExactProved && r.ExactArea > p.ExactArea:
			out = append(out, fmt.Sprintf("%s: area %d is costlier than the pinned %d", at, r.ExactArea, p.ExactArea))
		}
		if r.SearchNodes > p.SearchNodes {
			out = append(out, fmt.Sprintf("%s: %d search nodes, pinned %d", at, r.SearchNodes, p.SearchNodes))
		}
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scalingbench: "+format+"\n", args...)
	os.Exit(1)
}
