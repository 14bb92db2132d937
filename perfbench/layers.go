package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bistpath"
	"bistpath/internal/bist"
	"bistpath/internal/datapath"
	"bistpath/internal/dfg"
	"bistpath/internal/interconnect"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// layerStats are the figures of the direct-call pass of a traced run:
// each distinct (design, config) of the workload goes once more through
// the internal layers' exported functions, on one goroutine with nothing
// else running, so allocation counts and process CPU belong to the call
// being measured.
type layerStats struct {
	designs                   int64
	parse, fromMap            time.Duration
	binds, lemma2, bindAllocs int64
	muxInputs, registers      int64
	exactCalls, exhausted     int64
	exactCPU                  time.Duration
	exactNodes, exactPrunes   int64
	exactAllocs               int64
	paretoCalls, paretoAllocs int64
}

// layerInput is one (design, config) pair for the direct-call pass.
type layerInput struct {
	design design
	cfg    bistpath.Config
}

// layerPass runs the inputs through ParseDFG, modassign.FromMap,
// regassign.Bind, interconnect.Bind, datapath.Build and the BIST search
// the configuration selects, with the same options, worker count and
// scratch reuse the pipeline uses. The scratches grow on the first
// inputs, so allocation counts are the pass's mean, not a steady state.
func layerPass(ctx context.Context, inputs []layerInput) (layerStats, error) {
	var ls layerStats
	bindScratch, searchScratch := regassign.NewScratch(), bist.NewScratch()
	var ms runtime.MemStats
	mallocs := func() int64 {
		runtime.ReadMemStats(&ms)
		return int64(ms.Mallocs)
	}
	for _, in := range inputs {
		t0 := time.Now()
		if _, err := bistpath.ParseDFG(in.design.text); err != nil {
			return ls, fmt.Errorf("%s: %w", in.design.name, err)
		}
		ls.parse += time.Since(t0)
		// Paper designs keep their port-fed input marks, which the text
		// format does not carry, on their internal graph.
		g := in.design.graph
		if g == nil {
			var err error
			if g, err = dfg.ParseString(in.design.text); err != nil {
				return ls, fmt.Errorf("%s: %w", in.design.name, err)
			}
		}
		cfg := in.cfg
		if cfg.Width == 0 {
			cfg.Width = 8
		}
		t0 = time.Now()
		mb, err := modassign.FromMap(g, in.design.mods)
		ls.fromMap += time.Since(t0)
		if err != nil {
			return ls, fmt.Errorf("%s: %w", in.design.name, err)
		}
		ls.designs++

		var rm regassign.Metrics
		a0 := mallocs()
		var rb *regassign.Binding
		if cfg.Mode == bistpath.TraditionalHLS {
			rb, err = regassign.Traditional(g)
		} else {
			rb, err = regassign.Bind(g, mb, regassign.Options{
				SharingDegree:    cfg.Sharing,
				CaseOverrides:    cfg.CaseOverrides,
				AvoidCBILBO:      cfg.AvoidCBILBO,
				InterconnectTies: cfg.WeightedInterconnect,
				Metrics:          &rm,
				Scratch:          bindScratch,
			})
		}
		ls.bindAllocs += mallocs() - a0
		if err != nil {
			return ls, fmt.Errorf("%s: register binding: %w", in.design.name, err)
		}
		ls.binds++
		ls.lemma2 += rm.Lemma2Checks

		var sh *regassign.Sharing
		if cfg.WeightedInterconnect {
			sh = regassign.NewSharing(g, mb)
		}
		ib, err := interconnect.Bind(g, mb, rb, sh)
		if err != nil {
			return ls, fmt.Errorf("%s: interconnect: %w", in.design.name, err)
		}
		ls.muxInputs += int64(interconnect.Measure(g, mb, rb, ib).MuxInputs)
		dp, err := datapath.Build(g, mb, rb, ib, cfg.Width)
		if err != nil {
			return ls, fmt.Errorf("%s: data path: %w", in.design.name, err)
		}
		ls.registers += int64(len(dp.Regs))

		var bm bist.Metrics
		opts := bist.DefaultOptions(cfg.Width)
		opts.AllowPadHeads = cfg.AllowPadTPG
		opts.MinimizeSessions = cfg.MinimizeSessions
		opts.Workers = cfg.Workers
		opts.Metrics = &bm
		opts.Scratch = searchScratch
		c0, a0 := cpuTime(), mallocs()
		switch {
		case cfg.Objective == bistpath.ParetoFront:
			_, err = bist.OptimizePareto(ctx, dp, opts)
			ls.paretoCalls++
			ls.paretoAllocs += mallocs() - a0
		case cfg.Search == bistpath.SearchStochastic ||
			cfg.Search == bistpath.SearchAuto && !bist.ExactFeasible(dp, cfg.AllowPadTPG):
			opts.Seed = cfg.Seed
			opts.MaxGenerations = cfg.MaxGenerations
			_, err = bist.OptimizeStochasticCtx(ctx, dp, opts)
		default:
			var plan *bist.Plan
			plan, err = bist.OptimizeCtx(ctx, dp, opts)
			ls.exactCPU += cpuTime() - c0
			ls.exactAllocs += mallocs() - a0
			ls.exactCalls++
			ls.exactNodes += bm.Nodes
			ls.exactPrunes += bm.BoundPrunes
			if err == nil && !plan.Exact {
				ls.exhausted++
			}
		}
		if err != nil {
			return ls, fmt.Errorf("%s: BIST search: %w", in.design.name, err)
		}
	}
	return ls, nil
}
