package bistpath

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// Every benchmark must come back with populated, internally consistent
// stats: phases were timed, the search and binder counters moved, and a
// default (sequential) run reports one worker.
func TestStatsInvariants(t *testing.T) {
	for _, n := range BenchmarkNames() {
		d, mods, _ := Benchmark(n)
		res, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		if s.Total <= 0 {
			t.Errorf("%s: Total not timed: %v", n, s.Total)
		}
		if ps := s.PhaseSum(); ps <= 0 || ps > s.Total {
			t.Errorf("%s: PhaseSum %v outside (0, Total=%v]", n, ps, s.Total)
		}
		for _, c := range []struct {
			name string
			v    int64
		}{
			{"SearchNodes", s.SearchNodes},
			{"EmbeddingsEnumerated", s.EmbeddingsEnumerated},
			{"IncumbentUpdates", s.IncumbentUpdates},
			{"Lemma2Checks", s.Lemma2Checks},
		} {
			if c.v <= 0 {
				t.Errorf("%s: %s = %d, want > 0", n, c.name, c.v)
			}
		}
		if s.SearchWorkers != 1 {
			t.Errorf("%s: SearchWorkers = %d, want 1 for a default run", n, s.SearchWorkers)
		}
		if s.String() == "" {
			t.Errorf("%s: empty Stats.String()", n)
		}
	}
}

// Sequential runs are pure functions of the input: every counter (not
// the wall times) must repeat exactly.
func TestStatsCounterDeterminism(t *testing.T) {
	for _, n := range BenchmarkNames() {
		d, mods, _ := Benchmark(n)
		counters := func(s Stats) [7]int64 {
			return [7]int64{s.SearchNodes, s.BoundPrunes, s.IncumbentUpdates,
				s.EmbeddingsEnumerated, int64(s.SearchWorkers), s.Lemma2Checks, s.CaseOverrides}
		}
		a, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if counters(a.Stats) != counters(b.Stats) {
			t.Errorf("%s: sequential counters differ:\n  %+v\n  %+v", n, a.Stats, b.Stats)
		}
	}
}

// The determinism contract extends across Config.Workers: reports must
// be byte-identical whether the BIST search runs on 1 or 4 goroutines.
func TestReportTextIdenticalAcrossWorkers(t *testing.T) {
	for _, n := range BenchmarkNames() {
		var reports []string
		for _, w := range []int{1, 4} {
			d, mods, _ := Benchmark(n)
			cfg := DefaultConfig()
			cfg.Workers = w
			res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.SearchWorkers < 1 {
				t.Errorf("%s workers=%d: SearchWorkers = %d", n, w, res.Stats.SearchWorkers)
			}
			reports = append(reports, res.ReportText())
		}
		if reports[0] != reports[1] {
			t.Errorf("%s: ReportText differs between 1 and 4 workers", n)
		}
	}
}

// The observer must see each phase open and close in pipeline order,
// with search progress (if any fires — the benchmarks are too small to
// cross the 1024-node reporting stride) confined to the BIST window.
func TestObserverEventOrdering(t *testing.T) {
	d, mods, _ := Benchmark("paulin")
	var mu sync.Mutex
	var events []Event
	cfg := DefaultConfig()
	cfg.Observer = func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total <= 0 {
		t.Fatal("stats missing on observed run")
	}

	wantOrder := []Phase{PhaseValidate, PhaseRegisterBind, PhaseInterconnect, PhaseDatapath, PhaseBISTSearch}
	var phasePairs []Event
	open := map[Phase]bool{}
	for _, e := range events {
		if e.Design != "paulin" {
			t.Errorf("event for wrong design %q", e.Design)
		}
		switch e.Kind {
		case PhaseStart:
			if open[e.Phase] {
				t.Errorf("phase %v started twice", e.Phase)
			}
			open[e.Phase] = true
			phasePairs = append(phasePairs, e)
		case PhaseEnd:
			if !open[e.Phase] {
				t.Errorf("phase %v ended without starting", e.Phase)
			}
			open[e.Phase] = false
			if e.Elapsed < 0 {
				t.Errorf("phase %v negative elapsed %v", e.Phase, e.Elapsed)
			}
		case SearchProgress:
			if !open[PhaseBISTSearch] {
				t.Error("SearchProgress outside the BIST search window")
			}
			if e.SearchNodes <= 0 {
				t.Errorf("SearchProgress with nodes %d", e.SearchNodes)
			}
		}
	}
	if len(phasePairs) != len(wantOrder) {
		t.Fatalf("got %d phase starts, want %d (%v)", len(phasePairs), len(wantOrder), phasePairs)
	}
	for i, e := range phasePairs {
		if e.Phase != wantOrder[i] {
			t.Errorf("phase %d = %v, want %v", i, e.Phase, wantOrder[i])
		}
	}
	for p, o := range open {
		if o {
			t.Errorf("phase %v never ended", p)
		}
	}
}

// A failing run must still emit the PhaseEnd event for the phase that
// failed, so observers can bracket every start with an end.
func TestObserverSeesFailingPhase(t *testing.T) {
	// add2 at step 1 reads x produced at step 2: the builder accepts
	// this, the module map resolves, and the graph only fails inside the
	// pipeline's validate phase — after the observer saw it start.
	d := NewDFG("bad")
	for _, err := range []error{
		d.AddInput("a", "b"),
		d.AddOp("add1", "+", 2, "x", "a", "b"),
		d.AddOp("add2", "+", 1, "y", "x", "b"),
		d.MarkOutput("y"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	var events []Event
	cfg := DefaultConfig()
	cfg.Observer = func(e Event) { events = append(events, e) }
	_, err := d.SynthesizeCtx(context.Background(), map[string]string{"add1": "M1", "add2": "M2"}, cfg)
	if err == nil {
		t.Fatal("step-order violation accepted")
	}
	var se *SynthesisError
	if !errors.As(err, &se) || se.Phase != PhaseValidate {
		t.Fatalf("err = %v, want *SynthesisError in validate phase", err)
	}
	if len(events) != 2 || events[0].Kind != PhaseStart || events[1].Kind != PhaseEnd ||
		events[0].Phase != PhaseValidate || events[1].Phase != PhaseValidate {
		t.Fatalf("events = %+v, want validate start+end", events)
	}
}

func TestTypedErrors(t *testing.T) {
	if _, _, err := Benchmark("nope"); !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("Benchmark(nope) = %v, want ErrUnknownBenchmark", err)
	}

	unsched := func() *DFG {
		d := NewDFG("u")
		if err := d.AddInput("a", "b"); err != nil {
			t.Fatal(err)
		}
		if err := d.AddOp("add1", "+", 0, "c", "a", "b"); err != nil {
			t.Fatal(err)
		}
		if err := d.MarkOutput("c"); err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Both the automatic and the explicit module-binding paths must
	// report an unscheduled graph as ErrUnscheduled, attributed to the
	// validate phase.
	for name, run := range map[string]func(*DFG) error{
		"auto": func(d *DFG) error { _, err := d.SynthesizeCtx(context.Background(), nil, DefaultConfig()); return err },
		"explicit": func(d *DFG) error {
			_, err := d.SynthesizeCtx(context.Background(), map[string]string{"add1": "M1"}, DefaultConfig())
			return err
		},
	} {
		err := run(unsched())
		if !errors.Is(err, ErrUnscheduled) {
			t.Errorf("%s: err = %v, want ErrUnscheduled", name, err)
		}
		var se *SynthesisError
		if !errors.As(err, &se) {
			t.Errorf("%s: err %v is not a *SynthesisError", name, err)
		} else {
			if se.Phase != PhaseValidate {
				t.Errorf("%s: phase = %v, want validate", name, se.Phase)
			}
			if se.Design != "u" {
				t.Errorf("%s: design = %q", name, se.Design)
			}
		}
	}

	// Context errors pass through unwrapped so callers can compare with
	// == as well as errors.Is.
	d, mods, _ := Benchmark("ex1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.SynthesizeCtx(ctx, mods, DefaultConfig()); err != context.Canceled {
		t.Errorf("cancelled ctx: err = %v, want context.Canceled (unwrapped)", err)
	}

	// A nil-DFG job fails with the ErrNoDFG sentinel.
	rs, _ := SynthesizeAll(context.Background(), []Job{{Name: "hole"}}, BatchOptions{})
	if len(rs) != 1 || !errors.Is(rs[0].Err, ErrNoDFG) {
		t.Errorf("nil-DFG job: %+v, want ErrNoDFG", rs)
	}
}

// A nil map selects the same automatic binding on every entry point:
// the free DFG.SynthesizeCtx and the handle's Synthesize agree exactly.
func TestNilMapIsAutoBinding(t *testing.T) {
	build := func() *DFG {
		d, err := ParseDFG("dfg auto\ninput a b c\nop add1 + a b -> x @1\nop add2 + x c -> y @2\noutput y\n")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ra, err := build().SynthesizeCtx(context.Background(), nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig())
	defer s.Close()
	rb, err := s.Synthesize(context.Background(), build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ra.ReportText() != rb.ReportText() {
		t.Error("DFG.SynthesizeCtx(nil map) differs from Synthesizer.Synthesize(nil map)")
	}
}

func TestBatchStats(t *testing.T) {
	var jobs []Job
	for _, n := range BenchmarkNames() {
		d, mods, _ := Benchmark(n)
		jobs = append(jobs, Job{DFG: d, Modules: mods, Config: DefaultConfig()})
	}
	results, bs := SynthesizeAll(context.Background(), jobs, BatchOptions{Workers: 2})
	if bs.Workers != 2 {
		t.Errorf("Workers = %d, want 2", bs.Workers)
	}
	if bs.Wall <= 0 || bs.Busy <= 0 {
		t.Errorf("unmeasured batch: wall %v busy %v", bs.Wall, bs.Busy)
	}
	if u := bs.Utilization(); u <= 0 || u > 1 {
		t.Errorf("Utilization = %v, want (0, 1]", u)
	}
	var busy time.Duration
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Duration <= 0 {
			t.Errorf("%s: job Duration not measured", r.Name)
		}
		busy += r.Duration
	}
	if busy != bs.Busy {
		t.Errorf("Busy %v != summed durations %v", bs.Busy, busy)
	}
	if (BatchStats{}).Utilization() != 0 {
		t.Error("zero BatchStats should have zero utilization")
	}
}

// sortSessions must deep-copy (the input aliases the optimizer's plan)
// and survive empty sessions instead of indexing [0].
func TestSortSessions(t *testing.T) {
	in := [][]string{{"M2"}, {}, {"M1", "M3"}}
	out := sortSessions(in)
	want := [][]string{{}, {"M1", "M3"}, {"M2"}}
	if len(out) != len(want) {
		t.Fatalf("got %v", out)
	}
	for i := range want {
		if len(out[i]) != len(want[i]) {
			t.Fatalf("got %v, want %v", out, want)
		}
		for j := range want[i] {
			if out[i][j] != want[i][j] {
				t.Fatalf("got %v, want %v", out, want)
			}
		}
	}
	if in[0][0] != "M2" || len(in[1]) != 0 || in[2][0] != "M1" {
		t.Errorf("input mutated: %v", in)
	}
	out[2][0] = "changed"
	if in[0][0] != "M2" {
		t.Error("output aliases input backing arrays")
	}
}

func TestStatsInReportAbsent(t *testing.T) {
	d, mods, _ := Benchmark("ex1")
	res, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// ReportText is the determinism anchor; it must never leak the
	// timing-dependent stats.
	if rep := res.ReportText(); res.Stats.Total > 0 && strings.Contains(rep, res.Stats.Total.String()) {
		t.Error("ReportText appears to include timing data")
	}
}
