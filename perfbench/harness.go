package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"bistpath"
)

// Op classes. Each workload draws its ops from some of them; latency and
// layer time are also reported per class, so that a gain on one class
// that costs another shows even though the gate reads workload totals.
const (
	classPaper uint8 = iota
	classRandom
	classLExact
	classLStochastic
	classXLExact
	classPareto
	classNew
	classResubmit
	classPatch
	numClasses
)

var classNames = [numClasses]string{
	"paper", "random", "l-exact", "l-stochastic", "xl-exact", "pareto", "new", "resubmit", "patch",
}

// A run sets its workload up at least setupRepeats times, and goes on
// until setupMin has passed since the process started or it has made
// setupMax set-ups, so that a set-up of a few milliseconds is timed as
// often as one that takes most of a second. setup_s is the median, so
// one set-up slowed by the machine does not read as a regression; the
// last set-up is the one measured.
const (
	setupRepeats = 5
	setupMax     = 50
	setupMin     = time.Second
)

// runner is one workload, set up and ready to measure.
type runner interface {
	// clients is the number of closed-loop clients, one goroutine each.
	clients() int
	// do runs client c's next op and appends its sample to st; when
	// traced is set it also records the op's spans on st.tr.
	do(ctx context.Context, c int, st *clientState, traced bool)
	// check verifies the outputs of the window after it closed.
	check(ctx context.Context) (checkResult, error)
	// layerPass makes the direct per-layer calls of the traced report.
	layerPass(ctx context.Context) (layerStats, error)
	// extra returns per-layer metrics the runner measures itself (cache
	// and server counters), by name.
	extra() (map[string]float64, error)
	close() error
}

// checkResult is the outcome of a runner's output checks.
type checkResult struct {
	failedOps   int64    // ops whose output failed a check after the window
	overheadPct float64  // mean BIST overhead of the workload's fixed output set
	problems    []string // one line per failed check
	encode      time.Duration
	encodes     int64 // Result.JSON calls timed in encode (service-mix references)
}

// sample is one op as the client saw it.
type sample struct {
	lat    time.Duration
	at     time.Duration // completion, since the window opened
	class  uint8
	traced bool
	failed bool
}

// counters accumulate, per op class, what each op's output reports about
// the work behind it.
type counters struct {
	ops int64
	lat time.Duration // summed op latency
	// Library ops: sums over Result.Stats.
	statOps                   int64
	phase                     [5]time.Duration // validate, register bind, interconnect, data path, BIST search
	unattributed              float64          // Σ (Total - PhaseSum) / Total
	exactOps, exhausted       int64
	stochOps, evals           int64
	paretoOps, paretoNodes    int64
	front                     int64
	jsonBytes                 int64
	cacheHits, patches, paths int64 // service ops: cache hits, PATCHes, PATCHes on the fast path
	non2xx                    int64
}

func (c *counters) add(o *counters) {
	c.ops += o.ops
	c.lat += o.lat
	c.statOps += o.statOps
	for i := range c.phase {
		c.phase[i] += o.phase[i]
	}
	c.unattributed += o.unattributed
	c.exactOps += o.exactOps
	c.exhausted += o.exhausted
	c.stochOps += o.stochOps
	c.evals += o.evals
	c.paretoOps += o.paretoOps
	c.paretoNodes += o.paretoNodes
	c.front += o.front
	c.jsonBytes += o.jsonBytes
	c.cacheHits += o.cacheHits
	c.patches += o.patches
	c.paths += o.paths
	c.non2xx += o.non2xx
}

// addResult folds one library op's Result into the counters.
func (c *counters) addResult(res *bistpath.Result, cfg bistpath.Config) {
	st := res.Stats
	c.statOps++
	c.phase[0] += st.Validate
	c.phase[1] += st.RegisterBind
	c.phase[2] += st.Interconnect
	c.phase[3] += st.Datapath
	c.phase[4] += st.BISTSearch
	if st.Total > 0 {
		c.unattributed += float64(st.Total-st.PhaseSum()) / float64(st.Total)
	}
	switch {
	case cfg.Objective == bistpath.ParetoFront:
		c.paretoOps++
		c.paretoNodes += st.SearchNodes
		c.front += int64(len(res.Pareto))
	case st.SearchStrategy == "stochastic":
		c.stochOps++
		c.evals += st.Evaluations
	default:
		c.exactOps++
		if !res.PlanExact() {
			c.exhausted++
		}
	}
}

// clientState is what one client records during the window. Only the
// client's goroutine touches it.
type clientState struct {
	samples []sample
	cnt     [numClasses]counters
	tr      *tracer // nil in untraced runs
	errs    []string
}

// record appends one op's sample and counts it.
func (st *clientState) record(s sample, err error) {
	if err != nil {
		s.failed = true
		if len(st.errs) < 3 {
			st.errs = append(st.errs, fmt.Sprintf("%s op: %v", classNames[s.class], err))
		}
	}
	st.samples = append(st.samples, s)
	st.cnt[s.class].ops++
	st.cnt[s.class].lat += s.lat
}

type metric struct {
	name, unit string
	value      float64
}

// report is the outcome of one run.
type report struct {
	attempted, failed int64
	metrics           []metric
	rows              []string // human-readable lines printed before the result
	problems          []string
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// resultLine renders the JSON object the run ends with.
func (r *report) resultLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]value, len(r.metrics))
	for _, x := range r.metrics {
		v := x.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", x.name, v)
		}
		m[x.name] = value{v, x.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, m})
}

// execute sets the workload up, measures it for one window and checks
// its outputs. In a traced run it also makes the direct per-layer calls
// and writes the spans to .bench_build/trace.
func execute(ctx context.Context, name string, setup func(context.Context, int64) (runner, error), seed int64, window time.Duration, traced bool, start time.Time) (*report, error) {
	var r runner
	var setups []float64
	for i, began := 0, start; i < setupMax && (i < setupRepeats || time.Since(began) < setupMin); i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		var err error
		if r, err = setup(ctx, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		start = time.Now()
	}
	defer r.close()
	n := r.clients()
	if n < 1 || n > runtime.NumCPU() {
		return nil, fmt.Errorf("%d load-generating clients for %d cores", n, runtime.NumCPU())
	}

	states := make([]*clientState, n)
	origin := time.Now()
	for c := range states {
		states[c] = &clientState{}
		if traced {
			states[c].tr = &tracer{origin: origin, client: c}
		}
	}
	runtime.GC()
	rr, rounds := r.(rounder)
	more := func(int) bool { return false }
	if rounds {
		more = rr.midRound
	}
	start = time.Now()
	// A traced run traces every other op of each client; the untraced ops
	// in between measure what tracing costs.
	snaps := closedLoop(n, start, window, rounds, more, func(c, seq int) {
		st := states[c]
		r.do(ctx, c, st, traced && seq%2 == 0)
		st.samples[len(st.samples)-1].at = time.Since(start)
	})
	rss := peakRSSMB()
	wall := snaps[len(snaps)-1].at

	chk, err := r.check(ctx)
	if err != nil {
		return nil, fmt.Errorf("checking outputs: %w", err)
	}
	var samples []sample
	var cnt [numClasses]counters
	rep := &report{problems: chk.problems}
	for _, st := range states {
		samples = append(samples, st.samples...)
		for i := range cnt {
			cnt[i].add(&st.cnt[i])
		}
		rep.problems = append(rep.problems, st.errs...)
	}
	rep.attempted = int64(len(samples))
	for _, s := range samples {
		if s.failed {
			rep.failed++
		}
	}
	rep.failed = min(rep.failed+chk.failedOps, rep.attempted)

	lats := latenciesMS(samples, func(sample) bool { return true })
	sl := cutSlices(samples, snaps)
	rep.rows = append(rep.rows,
		fmt.Sprintf("# run workload=%s seed=%d clients=%d window_s=%.3f slices=%d ops=%d beyond_p90=%d beyond_p99=%d failed_frac=%.6f setups_s=%s",
			name, seed, n, wall.Seconds(), len(sl), len(samples), beyond(lats, 0.9), beyond(lats, 0.99),
			float64(rep.failed)/float64(len(samples)), joinFloats(setups)),
		workloadRow(cnt))
	p50 := func(s slice) float64 { return quantile(s.lats, 0.50) }
	p90 := func(s slice) float64 { return quantile(s.lats, 0.90) }
	p99 := func(s slice) float64 { return quantile(s.lats, 0.99) }
	opsS := func(s slice) float64 { return float64(len(s.lats)) / s.wall.Seconds() }
	cpuMS := func(s slice) float64 { return float64(s.cpu) / 1e6 / float64(len(s.lats)) }
	allocMB := func(s slice) float64 { return float64(s.alloc) / 1e6 / float64(len(s.lats)) }
	rep.rows = append(rep.rows, "# slices ops_s="+joinFloats(sl.values(opsS))+" p50_ms="+joinFloats(sl.values(p50))+
		" p99_ms="+joinFloats(sl.values(p99))+" cpu_ms="+joinFloats(sl.values(cpuMS)))
	// Each figure is taken per slice and then summarized over the slices
	// by the median, which a few seconds in which other tenants of the
	// machine slow it down barely move. In a time slice of thousands of
	// ops the tail latency is set by the few ops such a burst stalls for
	// milliseconds, so p99 takes the best slice: the least disturbed
	// reading of the same work. A change that slows the code slows every
	// slice, the best one included. A round holds a single op of each
	// pair, so its best is one lucky round, not a quiet stretch; with
	// rounds p99 takes the median too.
	tail := min64
	if rounds {
		tail = median
	}
	e2e := []metric{
		{"setup_s", "s", median(setups)},
		{"latency_p50_ms", "ms", median(sl.values(p50))},
		{"latency_p90_ms", "ms", median(sl.values(p90))},
		{"latency_p99_ms", "ms", tail(sl.values(p99))},
		{"throughput_ops_s", "ops/s", median(sl.values(opsS))},
		{"cpu_ms_per_op", "ms", median(sl.values(cpuMS))},
		{"alloc_mb_per_op", "MB", median(sl.values(allocMB))},
		{"peak_rss_mb", "MB", rss},
		{"bist_overhead_pct", "%", chk.overheadPct},
	}
	for _, m := range e2e {
		rep.rows = append(rep.rows, fmt.Sprintf("# e2e %s=%.6g %s", m.name, m.value, m.unit))
	}
	if !traced {
		rep.metrics = e2e
		rep.rows = append(rep.rows, classRows(samples, nil)...)
		return rep, nil
	}

	lp, err := r.layerPass(ctx)
	if err != nil {
		return nil, fmt.Errorf("per-layer pass: %w", err)
	}
	extra, err := r.extra()
	if err != nil {
		return nil, err
	}
	tot := make(map[spanKey]*spanTotals)
	spans := 0
	for _, st := range states {
		aggregate(st.tr.spans, tot)
		spans += len(st.tr.spans)
	}
	rep.metrics = layerMetrics(tot, cnt, lp, chk, extra, samples, spans)
	rep.rows = append(rep.rows, classRows(samples, tot)...)
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.tsv", name, seed))
	if err := writeSpans(path, states); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.rows = append(rep.rows, fmt.Sprintf("# trace spans=%d file=%s", spans, path))
	return rep, nil
}

// rounder is a runner whose clients work in rounds; a client stops only
// once the window has closed and it is between rounds.
type rounder interface {
	midRound(c int) bool
}

// timeSlices is how many slices a window without rounds is cut into.
const timeSlices = 20

// snapshot is the process's cumulative CPU time and allocation at one
// slice boundary of the window.
type snapshot struct {
	at    time.Duration // since the window opened
	cpu   time.Duration
	alloc uint64
}

func takeSnapshot(start time.Time) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{at: time.Since(start), cpu: cpuTime(), alloc: ms.TotalAlloc}
}

// closedLoop runs n clients from start until the window closes and
// more(c) turns false. Each client sends its next op only after the
// previous one completed. Client 0 closes a slice after each of its
// rounds, or else every window/timeSlices. It returns the snapshots at
// the start, at each slice boundary and at the end.
func closedLoop(n int, start time.Time, window time.Duration, rounds bool, more func(c int) bool, do func(c, seq int)) []snapshot {
	deadline := start.Add(window)
	snaps := []snapshot{takeSnapshot(start)}
	var wg sync.WaitGroup
	wg.Add(n)
	for c := 0; c < n; c++ {
		go func(c int) {
			defer wg.Done()
			next := 1
			for seq := 0; time.Now().Before(deadline) || more(c); seq++ {
				do(c, seq)
				if c != 0 {
					continue
				}
				if rounds && !more(0) || !rounds && next < timeSlices && time.Since(start) >= time.Duration(next)*window/timeSlices {
					snaps = append(snaps, takeSnapshot(start))
					next++
				}
			}
		}(c)
	}
	wg.Wait()
	return append(snaps, takeSnapshot(start))
}

// slice is the part of the window between two snapshots: the latencies
// (in ms) of the ops that completed in it, its wall time, and the CPU
// time and allocation the process spent in it.
type slice struct {
	lats  []float64
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

type sliceSet []slice

// cutSlices cuts the samples at the snapshots, dropping empty slices.
func cutSlices(samples []sample, snaps []snapshot) sliceSet {
	var out sliceSet
	for i := 1; i < len(snaps); i++ {
		a, b := snaps[i-1], snaps[i]
		lats := latenciesMS(samples, func(s sample) bool { return s.at > a.at && s.at <= b.at })
		if len(lats) > 0 {
			out = append(out, slice{lats: lats, wall: b.at - a.at, cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc})
		}
	}
	return out
}

// values evaluates f on every slice.
func (ss sliceSet) values(f func(slice) float64) []float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = f(s)
	}
	return v
}

func min64(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = min(m, x)
	}
	return m
}

// workloadRow reports the workload properties later claims depend on:
// where op time goes, how often the BIST search gives up, and how much
// of the service traffic the cache and the session fast path absorb.
func workloadRow(by [numClasses]counters) string {
	var c counters
	for i := range by {
		c.add(&by[i])
	}
	var b strings.Builder
	b.WriteString("# workload")
	if c.statOps > 0 {
		share := func(d time.Duration) float64 { return ratio(float64(d), float64(c.lat)) }
		fmt.Fprintf(&b, " regassign_share=%.4f interconnect_share=%.4f bist_share=%.4f",
			share(c.phase[1]), share(c.phase[2]), share(c.phase[4]))
	}
	if c.exactOps > 0 {
		fmt.Fprintf(&b, " budget_exhausted_share=%.4f", ratio(float64(c.exhausted), float64(c.exactOps)))
	}
	if posts := by[classNew].ops + by[classResubmit].ops; posts > 0 {
		fmt.Fprintf(&b, " cache_hit_share=%.4f", ratio(float64(c.cacheHits), float64(posts)))
	}
	if c.patches > 0 {
		fmt.Fprintf(&b, " fast_path_share=%.4f", ratio(float64(c.paths), float64(c.patches)))
	}
	return b.String()
}

// classRows prints one row per op class: its sample count and latency
// quantiles and, for a traced run, the mean self time of each span name
// per traced op of the class.
func classRows(samples []sample, tot map[spanKey]*spanTotals) []string {
	var rows []string
	for cl := uint8(0); cl < numClasses; cl++ {
		lats := latenciesMS(samples, func(s sample) bool { return s.class == cl })
		if len(lats) == 0 {
			continue
		}
		row := fmt.Sprintf("# class %s ops=%d p50_ms=%.4f p90_ms=%.4f", classNames[cl], len(lats), quantile(lats, 0.5), quantile(lats, 0.9))
		if tot != nil {
			traced := 0
			for _, s := range samples {
				if s.class == cl && s.traced {
					traced++
				}
			}
			var names []string
			for k := range tot {
				if k.class == cl {
					names = append(names, k.name)
				}
			}
			sort.Strings(names)
			row += fmt.Sprintf(" traced=%d self_us:", traced)
			for _, nm := range names {
				t := tot[spanKey{cl, nm}]
				row += fmt.Sprintf(" %s=%.2f", nm, ratio(float64(t.self)/1e3, float64(traced)))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func latenciesMS(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, float64(s.lat)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of sorted values by the nearest-rank
// rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// beyond counts the samples above the q-quantile.
func beyond(sorted []float64, q float64) int {
	v := quantile(sorted, q)
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func joinFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, ",")
}

// cpuTime is the user plus system CPU time of the whole process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MiB (Linux
// reports it in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
