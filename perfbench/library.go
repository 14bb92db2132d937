package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"bistpath"
)

// libItem is one (design, config) pair a library workload synthesizes.
type libItem struct {
	key    string
	class  uint8
	design design
	cfg    bistpath.Config
	golden int // BIST area testdata pins for this design and config; 0 = none
}

// libRunner drives the library directly. Every client calls Pool.Do on
// one shared Synthesizer and encodes the Result with Result.JSON, in a
// closed loop; pickers[c] chooses client c's next item.
type libRunner struct {
	items   []libItem
	synth   *bistpath.Synthesizer
	pool    *bistpath.Pool
	pickers []func() int
	outs    *outputs
}

// roundRunner is a libRunner whose clients work through the items in
// rounds of len(items) ops; the window closes only between rounds.
type roundRunner struct {
	*libRunner
	served []int // ops each client ran
}

func (r *roundRunner) do(ctx context.Context, c int, st *clientState, traced bool) {
	r.served[c]++
	r.libRunner.do(ctx, c, st, traced)
}

func (r *roundRunner) midRound(c int) bool { return r.served[c]%len(r.items) != 0 }

// newLibRunner opens the Synthesizer and runs the warm items once, so
// that the window measures the handle with warm scratch arenas.
func newLibRunner(ctx context.Context, items []libItem, pickers []func() int, warm []int) (*libRunner, error) {
	synth := bistpath.New(bistpath.DefaultConfig())
	r := &libRunner{items: items, synth: synth, pool: synth.NewPool(len(pickers)), pickers: pickers, outs: newOutputs()}
	for _, i := range warm {
		if _, err := r.synthesize(ctx, &items[i]); err != nil {
			synth.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, nil
}

func (r *libRunner) synthesize(ctx context.Context, it *libItem) (*bistpath.Result, error) {
	br := r.pool.Do(ctx, bistpath.Job{DFG: it.design.d, Modules: it.design.mods, Config: it.cfg})
	if br.Err != nil {
		return nil, fmt.Errorf("%s: %w", it.key, br.Err)
	}
	return br.Result, nil
}

func (r *libRunner) clients() int { return len(r.pickers) }

func (r *libRunner) close() error { return r.synth.Close() }

// do is one op: synthesize the picked item through the shared pool, then
// encode the Result as JSON.
func (r *libRunner) do(ctx context.Context, c int, st *clientState, traced bool) {
	it := &r.items[r.pickers[c]()]
	job := bistpath.Job{DFG: it.design.d, Modules: it.design.mods, Config: it.cfg}
	var tr *tracer
	if traced {
		tr = st.tr
	}
	tr.startOp(len(st.samples), it.class)
	root := tr.begin("op", -1)
	call := tr.begin("synthesize", root)
	if tr != nil {
		job.Config.Observer = tr.phaseObserver(call)
	}
	t0 := time.Now()
	br := r.pool.Do(ctx, job)
	tr.end(call)
	var doc []byte
	err := br.Err
	if err == nil {
		enc := tr.begin("resultjson.encode", root)
		doc, err = br.Result.JSON()
		tr.end(enc)
	}
	s := sample{lat: time.Since(t0), class: it.class, traced: tr != nil}
	tr.end(root)
	if err == nil {
		res := br.Result
		s.failed = !r.outs.record(it.key, res, doc)
		cnt := &st.cnt[it.class]
		cnt.addResult(res, it.cfg)
		cnt.jsonBytes += int64(len(doc))
		switch {
		case it.cfg.Objective == bistpath.ParetoFront:
			tr.rename(call, "bist-search", "bist-search.pareto")
		case res.Stats.SearchStrategy == "stochastic":
			tr.rename(call, "bist-search", "bist-search.stochastic")
		}
	}
	st.record(s, err)
}

// check verifies the first output of every item (synthesizing, after the
// window, any item the window did not reach) and averages the BIST
// overhead over all items, so bist_overhead_pct covers the same fixed
// set on every run of a seed.
func (r *libRunner) check(ctx context.Context) (checkResult, error) {
	var chk checkResult
	var sum float64
	for i := range r.items {
		it := &r.items[i]
		e := r.outs.entries[it.key]
		var res *bistpath.Result
		if e != nil {
			res = e.first
		} else {
			var err error
			if res, err = r.synthesize(ctx, it); err != nil {
				chk.problems = append(chk.problems, err.Error())
				continue
			}
		}
		problem, err := verifyResult(ctx, res, it.cfg, it.golden)
		if err != nil {
			return chk, fmt.Errorf("%s: %w", it.key, err)
		}
		if problem != "" {
			chk.problems = append(chk.problems, it.key+": "+problem)
			if e != nil {
				chk.failedOps += e.ops - e.bad
			}
		}
		sum += res.OverheadPct
	}
	chk.overheadPct = sum / float64(len(r.items))
	chk.problems = append(chk.problems, r.outs.mismatches()...)
	return chk, nil
}

func (r *libRunner) layerPass(ctx context.Context) (layerStats, error) {
	inputs := make([]layerInput, len(r.items))
	for i, it := range r.items {
		inputs[i] = layerInput{design: it.design, cfg: it.cfg}
	}
	return layerPass(ctx, inputs)
}

func (r *libRunner) extra() (map[string]float64, error) { return nil, nil }

// paperFlowRandom is the size of paper-flow's RandomDesign pool.
const paperFlowRandom = 512

// setupPaperFlow builds the paper's own flow: the five DAC'95 benchmarks
// in testable and traditional mode with their paper module maps, plus a
// seeded pool of RandomDesign designs, synthesized by one client on one
// Synthesizer with the default configuration (no cache, exact search,
// MinArea). Half the ops draw a paper design, half a random one.
//
// One client leaves a core to the garbage collector and to every other
// process on the machine. With one client per core, every core ran an op
// at all times, so they took their time from an op; on a shared two-core
// machine ten runs of the same code then spread their median latency by
// 25-27% (interquartile range over median), where one client spreads it
// by 5%.
func setupPaperFlow(ctx context.Context, seed int64) (runner, error) {
	paper, err := paperDesigns()
	if err != nil {
		return nil, err
	}
	var items []libItem
	for _, d := range paper {
		golden, err := goldenBISTArea(d.name)
		if err != nil {
			return nil, err
		}
		for _, mode := range []bistpath.Mode{bistpath.Testable, bistpath.TraditionalHLS} {
			cfg := bistpath.DefaultConfig()
			cfg.Mode = mode
			it := libItem{key: d.name + "/" + mode.String(), class: classPaper, design: d, cfg: cfg}
			if mode == bistpath.Testable {
				it.golden = golden
			}
			items = append(items, it)
		}
	}
	nPaper := len(items)
	rng := rand.New(rand.NewSource(seed))
	for _, s := range drawSeeds(rng, randomFirst, randomCount, paperFlowRandom, excludedRandom) {
		d, err := randomDesign(s)
		if err != nil {
			return nil, err
		}
		items = append(items, libItem{key: d.name, class: classRandom, design: d, cfg: bistpath.DefaultConfig()})
	}
	if len(items)-nPaper != paperFlowRandom {
		return nil, errors.New("paper-flow: random candidate range too small")
	}
	crng := rand.New(rand.NewSource(seed << 8))
	picker := func() int {
		if crng.Intn(2) == 0 {
			return crng.Intn(nPaper)
		}
		return nPaper + crng.Intn(len(items)-nPaper)
	}
	warm := make([]int, len(items))
	for i := range warm {
		warm[i] = i
	}
	return newLibRunner(ctx, items, []func() int{picker}, warm)
}

// setupLargeDesigns builds the large-design workload: one client over
// three classes. The dfgen l and xl instances run under the default exact
// search (the node budget runs out on some, which then fall back to
// greedy); the same l instances run under SearchAuto, which resolves to
// the generation-bounded stochastic search seeded with the workload seed;
// and the five paper benchmarks run as ParetoFront.
//
// The exact searches run at the default worker count. With
// Config.Workers at the core count the search took every core in bursts,
// and on a shared two-core machine the workload's latency and throughput
// then spread by up to 35% from seed to seed.
//
// One op here costs from under a millisecond to most of a second, so a
// seed-drawn design pool would move every latency figure with the seed.
// The pool is therefore fixed (lSeeds, xlSeeds); the seed orders the ops
// and seeds the stochastic search. The client works in rounds, each a
// fresh seeded permutation of the pool, and the window closes only
// between rounds, so every pair runs equally often in every run.
func setupLargeDesigns(ctx context.Context, seed int64) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	var items []libItem
	for _, s := range lSeeds {
		d, err := presetDesign("l", s)
		if err != nil {
			return nil, err
		}
		exact := bistpath.DefaultConfig()
		auto := bistpath.DefaultConfig()
		auto.Search = bistpath.SearchAuto
		auto.Seed = seed
		items = append(items,
			libItem{key: d.name + "/exact", class: classLExact, design: d, cfg: exact},
			libItem{key: d.name + "/auto", class: classLStochastic, design: d, cfg: auto})
	}
	for _, s := range xlSeeds {
		d, err := presetDesign("xl", s)
		if err != nil {
			return nil, err
		}
		items = append(items, libItem{key: d.name + "/exact", class: classXLExact, design: d, cfg: bistpath.DefaultConfig()})
	}
	paper, err := paperDesigns()
	if err != nil {
		return nil, err
	}
	var warm []int
	for _, d := range paper {
		golden, err := goldenBISTArea(d.name)
		if err != nil {
			return nil, err
		}
		cfg := bistpath.DefaultConfig()
		cfg.Objective = bistpath.ParetoFront
		warm = append(warm, len(items))
		items = append(items, libItem{key: d.name + "/pareto", class: classPareto, design: d, cfg: cfg, golden: golden})
	}
	var round []int
	picker := func() int {
		if len(round) == 0 {
			round = rng.Perm(len(items))
		}
		i := round[0]
		round = round[1:]
		return i
	}
	r, err := newLibRunner(ctx, items, []func() int{picker}, warm)
	if err != nil {
		return nil, err
	}
	return &roundRunner{libRunner: r, served: make([]int, 1)}, nil
}
