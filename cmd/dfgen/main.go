// Command dfgen generates random scheduled data flow graphs in the
// textual format accepted by `bistpath synth -dfg`. The same seed always
// yields the same graph.
//
// The -preset flag selects one of four calibrated design sizes used by
// the scaling benchmark suite (scripts/bench-scaling.sh):
//
//	s   ~12 ops  — the exact search proves it in a few hundred nodes
//	m   ~37 ops  — proved in at most ~13,000 nodes
//	l   ~93 ops  — proved in 4,000–30,000 nodes, a few milliseconds
//	xl  ~290 ops — 235,000–580,000 nodes; seed 3 exhausts the 2M budget
//
// The node counts are those of seeds 1–6, pinned in
// benchmarks/BENCH_scaling.json.
//
// A preset fixes the shape (steps, ops per step, inputs, kinds); -seed
// still varies the instance. Explicit -steps/-ops/-inputs/-kinds flags
// override the preset's values.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bistpath/internal/benchdata"
	"bistpath/internal/dfg"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dfgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dfgen", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "generator seed")
	preset := fs.String("preset", "", "design size preset: s, m, l or xl (overridable by the shape flags)")
	steps := fs.Int("steps", 0, "control steps (default 5, or the preset's)")
	ops := fs.Int("ops", 0, "maximum operations per step (default 3, or the preset's)")
	inputs := fs.Int("inputs", 0, "primary inputs (default 4, or the preset's)")
	kinds := fs.String("kinds", "", "operation kinds to draw from (default +-*&, or the preset's)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := benchdata.RandomConfig{Seed: *seed, Steps: 5, OpsPerStep: 3, Inputs: 4}
	if *preset != "" {
		p, ok := benchdata.Preset(*preset, *seed)
		if !ok {
			return fmt.Errorf("unknown preset %q (want s, m, l or xl)", *preset)
		}
		cfg = p
	}
	if *steps > 0 {
		cfg.Steps = *steps
	}
	if *ops > 0 {
		cfg.OpsPerStep = *ops
	}
	if *inputs > 0 {
		cfg.Inputs = *inputs
	}
	if *kinds != "" {
		var ks []dfg.Kind
		for _, r := range *kinds {
			k := dfg.Kind(string(r))
			if !k.Valid() {
				return fmt.Errorf("invalid kind %q", string(r))
			}
			ks = append(ks, k)
		}
		cfg.Kinds = ks
	}

	g, err := benchdata.Random(cfg)
	if err != nil {
		return err
	}
	return g.WriteText(stdout)
}
