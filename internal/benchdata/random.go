package benchdata

import (
	"fmt"
	"math/rand"

	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
)

// RandomConfig parameterizes the random scheduled-DFG generator.
type RandomConfig struct {
	Seed       int64
	Steps      int        // number of control steps (≥2)
	OpsPerStep int        // maximum ops per step (≥1)
	Inputs     int        // number of primary inputs (≥2)
	Kinds      []dfg.Kind // operation kinds to draw from; nil = {+,-,*,&}
}

// DefaultRandomConfig returns a moderate configuration for sweeps.
func DefaultRandomConfig(seed int64) RandomConfig {
	return RandomConfig{Seed: seed, Steps: 5, OpsPerStep: 3, Inputs: 4}
}

// Random generates a valid scheduled DFG: each step runs 1..OpsPerStep
// operations whose operands are drawn from primary inputs and results of
// strictly earlier steps (preferring recent values so lifetimes stay
// realistic). Every dangling value is marked as a primary output. The
// same config always yields the same graph.
func Random(cfg RandomConfig) (*dfg.Graph, error) {
	if cfg.Steps < 2 || cfg.OpsPerStep < 1 || cfg.Inputs < 2 {
		return nil, fmt.Errorf("benchdata: bad random config %+v", cfg)
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = []dfg.Kind{dfg.Add, dfg.Sub, dfg.Mul, dfg.And}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := dfg.New(fmt.Sprintf("rand%d", cfg.Seed))
	var avail []string // values defined in earlier steps (or inputs)
	for i := 0; i < cfg.Inputs; i++ {
		name := fmt.Sprintf("in%d", i)
		if err := g.AddInput(name); err != nil {
			return nil, err
		}
		avail = append(avail, name)
	}
	opN := 0
	for step := 1; step <= cfg.Steps; step++ {
		n := 1 + rng.Intn(cfg.OpsPerStep)
		var produced []string
		for i := 0; i < n; i++ {
			opN++
			kind := kinds[rng.Intn(len(kinds))]
			// Bias operand choice toward recent values to keep lifetimes
			// short and the conflict graph interval-like but non-trivial.
			pick := func() string {
				if len(avail) == 1 || rng.Intn(3) > 0 {
					lo := len(avail) - 1 - rng.Intn(min(3, len(avail)))
					return avail[lo]
				}
				return avail[rng.Intn(len(avail))]
			}
			// Operands must be distinct variables: the paper's allocation
			// model (and Lemma 2's exactness) assumes a binary operator
			// reads two different variables; x op x would weld both ports
			// to one register.
			a, b := pick(), pick()
			for tries := 0; b == a && tries < 20; tries++ {
				b = pick()
			}
			if b == a {
				for _, alt := range avail {
					if alt != a {
						b = alt
						break
					}
				}
			}
			res := fmt.Sprintf("v%d", opN)
			if err := g.AddOp(fmt.Sprintf("op%d", opN), kind, step, res, a, b); err != nil {
				return nil, err
			}
			produced = append(produced, res)
		}
		avail = append(avail, produced...)
	}
	// Mark every value with no consumer as a primary output so the graph
	// validates (no dead variables).
	var outs []string
	for _, v := range g.Vars() {
		if len(v.Uses) == 0 {
			outs = append(outs, v.Name)
		}
	}
	if err := g.MarkOutput(outs...); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Preset returns the calibrated generator shape for one of the scaling
// suite's size classes (s, m, l, xl) with the given seed, or false for
// an unknown name. The shapes are shared by cmd/dfgen's -preset flag and
// scripts/scalingbench so both tools name the same instances:
//
//	s   ~12 ops  — well inside the exact search's comfort zone
//	m   ~37 ops  — past the Auto exact-feasibility threshold
//	l   ~93 ops  — the exact branch and bound exhausts its node budget
//	xl  ~290 ops — hundreds of operations, stochastic only
//
// XL draws only non-commutative kinds: the interconnect binder caps the
// free instances of a commutative module, and hundreds of commutative
// ops funneled into few modules would exceed that cap.
func Preset(name string, seed int64) (RandomConfig, bool) {
	wide := []dfg.Kind{dfg.Add, dfg.Sub, dfg.Mul, dfg.Div, dfg.And, dfg.Or, dfg.Xor, dfg.Lt, dfg.Gt}
	var cfg RandomConfig
	switch name {
	case "s":
		cfg = RandomConfig{Steps: 6, OpsPerStep: 3, Inputs: 4}
	case "m":
		cfg = RandomConfig{Steps: 14, OpsPerStep: 4, Inputs: 6, Kinds: wide}
	case "l":
		cfg = RandomConfig{Steps: 30, OpsPerStep: 5, Inputs: 8, Kinds: wide}
	case "xl":
		cfg = RandomConfig{Steps: 100, OpsPerStep: 5, Inputs: 10,
			Kinds: []dfg.Kind{dfg.Sub, dfg.Div, dfg.Lt, dfg.Gt}}
	default:
		return RandomConfig{}, false
	}
	cfg.Seed = seed
	return cfg, true
}

// PresetNames lists the scaling presets from smallest to largest.
func PresetNames() []string { return []string{"s", "m", "l", "xl"} }

// SweepConfig derives a varied generator configuration from the seed
// alone, so conformance sweeps cover a range of graph shapes (step
// counts, widths of parallelism, operator mixes) without maintaining a
// separate parameter grid. The mapping is deterministic: one seed, one
// shape.
func SweepConfig(seed int64) RandomConfig {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	kindSets := [][]dfg.Kind{
		nil, // generator default {+,-,*,&}
		{dfg.Add, dfg.Mul},
		{dfg.Add, dfg.Sub, dfg.Mul, dfg.Div, dfg.And, dfg.Or, dfg.Xor},
		{dfg.Add, dfg.Sub, dfg.Lt, dfg.Gt},
	}
	return RandomConfig{
		Seed:       seed,
		Steps:      3 + rng.Intn(5),
		OpsPerStep: 1 + rng.Intn(3),
		Inputs:     2 + rng.Intn(4),
		Kinds:      kindSets[rng.Intn(len(kindSets))],
	}
}

// RandomWithModules generates a random DFG together with an area-driven
// module binding over unit classes.
func RandomWithModules(cfg RandomConfig) (*dfg.Graph, *modassign.Binding, error) {
	g, err := Random(cfg)
	if err != nil {
		return nil, nil, err
	}
	classes := []modassign.Class{
		modassign.UnitClass(dfg.Add), modassign.UnitClass(dfg.Sub),
		modassign.UnitClass(dfg.Mul), modassign.UnitClass(dfg.Div),
		modassign.UnitClass(dfg.And), modassign.UnitClass(dfg.Or),
		modassign.UnitClass(dfg.Xor), modassign.UnitClass(dfg.Lt),
		modassign.UnitClass(dfg.Gt),
	}
	mb, err := modassign.Bind(g, classes)
	if err != nil {
		return nil, nil, err
	}
	return g, mb, nil
}
