package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bistpath"
)

// span is one timed interval of an op. Spans of one op share op; parent
// indexes the enclosing span in the same client's list (-1 for the op's
// root span).
type span struct {
	op         int64
	parent     int32
	class      uint8
	name       string
	start, end int64 // ns since the run's origin
}

// tracer records one client's spans. Only the client's goroutine touches
// it, so recording takes no lock; the spans stay in memory until the run
// ends. Every method is a no-op on a nil tracer, which is how untraced
// ops skip recording.
type tracer struct {
	origin time.Time
	client int
	spans  []span
	op     int64
	class  uint8
}

// startOp makes the following spans belong to the client's seq-th op.
func (t *tracer) startOp(seq int, class uint8) {
	if t == nil {
		return
	}
	t.op = int64(t.client)<<40 | int64(seq)
	t.class = class
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// add records a finished interval and returns its index.
func (t *tracer) add(name string, parent int32, start, end int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{op: t.op, parent: parent, class: t.class, name: name, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent int32) int32 {
	now := t.now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = t.now()
}

// rename renames the children of parent called from to to.
func (t *tracer) rename(parent int32, from, to string) {
	if t == nil || parent < 0 {
		return
	}
	for i := int(parent) + 1; i < len(t.spans); i++ {
		if t.spans[i].parent == parent && t.spans[i].name == from {
			t.spans[i].name = to
		}
	}
}

// phaseObserver turns the pipeline's PhaseStart/PhaseEnd events into
// child spans of parent. Both events arrive on the synthesizing
// goroutine, which is the client's own because Pool.Do runs the job
// inline, so the tracer needs no lock. Other events (search progress
// from worker goroutines) are ignored.
func (t *tracer) phaseObserver(parent int32) bistpath.Observer {
	open := int32(-1)
	return func(e bistpath.Event) {
		switch e.Kind {
		case bistpath.PhaseStart:
			open = t.begin(e.Phase.String(), parent)
		case bistpath.PhaseEnd:
			t.end(open)
			open = -1
		}
	}
}

// spanKey names one aggregate row: an op class and a span name.
type spanKey struct {
	class uint8
	name  string
}

type spanTotals struct {
	n         int64
	dur, self time.Duration
}

// aggregate folds one client's spans into per-(class, name) totals. A
// span's self time is its duration minus the part of it its children
// cover.
func aggregate(spans []span, into map[spanKey]*spanTotals) {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	for i, s := range spans {
		k := spanKey{s.class, s.name}
		t := into[k]
		if t == nil {
			t = &spanTotals{}
			into[k] = t
		}
		t.n++
		t.dur += time.Duration(s.end - s.start)
		t.self += time.Duration(s.end - s.start - covered(spans, children[i], s.start, s.end))
	}
}

// covered is the length of the union of the kids' intervals within
// [lo, hi].
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		if a, b := max(spans[k].start, lo), min(spans[k].end, hi); b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, a, b int64
	for i, x := range iv {
		switch {
		case i == 0:
			a, b = x[0], x[1]
		case x[0] > b:
			sum += b - a
			a, b = x[0], x[1]
		case x[1] > b:
			b = x[1]
		}
	}
	if len(iv) > 0 {
		sum += b - a
	}
	return sum
}

// writeSpans stores every span of the run as tab-separated rows.
func writeSpans(path string, states []*clientState) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tspan\tparent\tclass\tname\tstart_ns\tend_ns")
	for _, st := range states {
		for i, s := range st.tr.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", s.op, i, s.parent, classNames[s.class], s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics assembles the per-layer report of a traced run. Times
// inside the pipeline come from spans (observer phase events in the
// library workloads, SSE phase frames in service-mix); allocation and
// effort counts come from the direct-call pass and from Result.Stats.
// A layer the workload does not reach reads 0.
func layerMetrics(tot map[spanKey]*spanTotals, by [numClasses]counters, lp layerStats, chk checkResult, extra map[string]float64, samples []sample, spans int) []metric {
	var cnt counters
	for i := range by {
		cnt.add(&by[i])
	}
	sum := func(names ...string) (n int64, dur, self time.Duration) {
		for k, t := range tot {
			for _, nm := range names {
				if k.name == nm {
					n += t.n
					dur += t.dur
					self += t.self
				}
			}
		}
		return
	}
	meanUS := func(names ...string) float64 {
		n, dur, _ := sum(names...)
		return ratio(float64(dur)/1e3, float64(n))
	}
	perUS := func(d time.Duration, n int64) float64 { return ratio(float64(d)/1e3, float64(n)) }
	per := func(a, n int64) float64 { return ratio(float64(a), float64(n)) }
	_, opDur, _ := sum("op")
	share := func(names ...string) float64 {
		_, dur, _ := sum(names...)
		return ratio(float64(dur), float64(opDur))
	}
	selfN, _, self := sum("synthesize")
	encode := meanUS("resultjson.encode")
	if chk.encodes > 0 {
		encode = perUS(chk.encode, chk.encodes)
	}
	exhausted := per(cnt.exhausted, cnt.exactOps)
	if cnt.exactOps == 0 {
		exhausted = per(lp.exhausted, lp.exactCalls)
	}
	var traced, untraced []sample
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	p50t := quantile(latenciesMS(traced, func(sample) bool { return true }), 0.5)
	p50u := quantile(latenciesMS(untraced, func(sample) bool { return true }), 0.5)

	m := []metric{
		{"dfg.parse_us", "us", perUS(lp.parse, lp.designs)},
		{"dfg.validate_us", "us", meanUS("validate")},
		{"modassign.bind_us", "us", perUS(lp.fromMap, lp.designs)},
		{"regassign.bind_us", "us", meanUS("register-bind")},
		{"regassign.lemma2_checks", "count", per(lp.lemma2, lp.binds)},
		{"regassign.allocs", "count", per(lp.bindAllocs, lp.binds)},
		{"interconnect.bind_us", "us", meanUS("interconnect")},
		{"interconnect.mux_inputs", "count", per(lp.muxInputs, lp.designs)},
		{"datapath.build_us", "us", meanUS("datapath")},
		{"datapath.registers", "count", per(lp.registers, lp.designs)},
		{"bist.exact_us", "us", meanUS("bist-search")},
		{"bist.exact_cpu_us", "us", perUS(lp.exactCPU, lp.exactCalls)},
		{"bist.exact_nodes", "count", per(lp.exactNodes, lp.exactCalls)},
		{"bist.prune_ratio", "ratio", per(lp.exactPrunes, lp.exactNodes)},
		{"bist.budget_exhausted_frac", "ratio", exhausted},
		{"bist.exact_allocs", "count", per(lp.exactAllocs, lp.exactCalls)},
		{"bist.stochastic_us", "us", meanUS("bist-search.stochastic")},
		{"bist.evaluations", "count", per(cnt.evals, cnt.stochOps)},
		{"bist.pareto_us", "us", meanUS("bist-search.pareto")},
		{"bist.pareto_nodes", "count", per(cnt.paretoNodes, cnt.paretoOps)},
		{"bist.pareto_allocs", "count", per(lp.paretoAllocs, lp.paretoCalls)},
		{"bist.pareto_front_size", "count", per(cnt.front, cnt.paretoOps)},
		{"pipeline.self_us", "us", perUS(self, selfN)},
		{"pipeline.unattributed_frac", "ratio", ratio(cnt.unattributed, float64(cnt.statOps))},
		{"resultjson.encode_us", "us", encode},
		{"resultjson.bytes", "bytes", per(cnt.jsonBytes, cnt.ops)},
		{"cache.hit_us", "us", meanUS("run.hit")},
		{"cache.hit_ratio", "ratio", extra["cache.hit_ratio"]},
		{"cache.coalesced", "count", extra["cache.coalesced"]},
		{"cache.bytes", "bytes", extra["cache.bytes"]},
		{"session.resynth_us", "us", meanUS("run.patch")},
		{"session.fast_path_frac", "ratio", per(cnt.paths, cnt.patches)},
		{"server.submit_us", "us", meanUS("http.submit")},
		{"server.queue_wait_us", "us", meanUS("queue")},
		{"server.run_us", "us", meanUS("run", "run.hit", "run.patch")},
		{"server.result_us", "us", meanUS("http.result")},
		{"server.non2xx", "count", float64(cnt.non2xx)},
		{"server.sse_dropped", "count", extra["server.sse_dropped"]},
		{"regassign.op_share", "ratio", share("register-bind")},
		{"interconnect.op_share", "ratio", share("interconnect")},
		{"bist.op_share", "ratio", share("bist-search", "bist-search.stochastic", "bist-search.pareto")},
		{"trace.overhead_pct", "%", 100 * ratio(p50t-p50u, p50u)},
		{"trace.spans", "count", float64(spans)},
	}
	for cl := uint8(0); cl < numClasses; cl++ {
		lats := latenciesMS(samples, func(s sample) bool { return s.class == cl })
		m = append(m,
			metric{"class." + classNames[cl] + ".p50_ms", "ms", quantile(lats, 0.5)},
			metric{"class." + classNames[cl] + ".ops", "count", float64(len(lats))})
	}
	return m
}
