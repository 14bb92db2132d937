package bistpath

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchJobs builds the standard test batch: every built-in benchmark in
// both binding modes, plus a session-minimizing variant.
func benchJobs(t testing.TB) []Job {
	t.Helper()
	var jobs []Job
	for _, name := range BenchmarkNames() {
		d, mods, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgT := DefaultConfig()
		cfgR := DefaultConfig()
		cfgR.Mode = TraditionalHLS
		cfgS := DefaultConfig()
		cfgS.MinimizeSessions = true
		jobs = append(jobs,
			Job{Name: name + "/testable", DFG: d, Modules: mods, Config: cfgT},
			Job{Name: name + "/traditional", DFG: d, Modules: mods, Config: cfgR},
			Job{Name: name + "/minsessions", DFG: d, Modules: mods, Config: cfgS},
		)
	}
	return jobs
}

// reportsOf renders every successful result; errors fail the test.
func reportsOf(t testing.TB, rs []BatchResult) []string {
	t.Helper()
	out := make([]string, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("job %d (%s): %v", i, r.Name, r.Err)
		}
		out[i] = r.Result.ReportText()
	}
	return out
}

// The batch determinism guarantee: any worker count produces reports that
// are byte-identical to the sequential path, in the same order. Run under
// -race this also proves the pool and the parallel branch and bound are
// race-clean.
func TestSynthesizeAllDeterministicAcrossWorkers(t *testing.T) {
	jobs := benchJobs(t)
	rs, _ := SynthesizeAll(context.Background(), jobs, BatchOptions{Workers: 1})
	seq := reportsOf(t, rs)

	// The sequential batch must also match the plain one-at-a-time API.
	for i, j := range jobs {
		res, err := j.DFG.SynthesizeCtx(context.Background(), j.Modules, j.Config)
		if err != nil {
			t.Fatal(err)
		}
		if res.ReportText() != seq[i] {
			t.Fatalf("job %s: batch report differs from direct Synthesize", j.Name)
		}
	}

	for _, workers := range []int{2, 3, 8} {
		rs, _ := SynthesizeAll(context.Background(), jobs, BatchOptions{Workers: workers})
		par := reportsOf(t, rs)
		for i := range seq {
			if par[i] != seq[i] {
				t.Errorf("workers=%d job %s: report differs from workers=1:\n--- sequential\n%s\n--- parallel\n%s",
					workers, jobs[i].Name, seq[i], par[i])
			}
		}
	}
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (the scheduler needs a moment to retire exiting goroutines).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A batch given an already-cancelled context returns promptly with
// ctx.Err() on every job and leaks no goroutines.
func TestSynthesizeAllCancelledContext(t *testing.T) {
	jobs := benchJobs(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rs, _ := SynthesizeAll(ctx, jobs, BatchOptions{Workers: 4})
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("cancelled batch took %v, want prompt return", el)
	}
	if len(rs) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(rs), len(jobs))
	}
	for i, r := range rs {
		if r.Err == nil {
			t.Errorf("job %d (%s): no error from cancelled batch", i, r.Name)
			continue
		}
		if r.Err != context.Canceled {
			t.Errorf("job %d (%s): err = %v, want context.Canceled", i, r.Name, r.Err)
		}
		if r.Name != jobs[i].Name {
			t.Errorf("job %d: name %q, want %q", i, r.Name, jobs[i].Name)
		}
	}
	waitGoroutines(t, base)
}

// Cancelling mid-batch stops the remaining jobs; every result is either
// a complete Result or a context error, never both, and the pool drains.
func TestSynthesizeAllCancelMidBatch(t *testing.T) {
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, benchJobs(t)...)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []BatchResult, 1)
	go func() {
		rs, _ := SynthesizeAll(ctx, jobs, BatchOptions{Workers: 2})
		done <- rs
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	rs := <-done
	var completed, cancelled int
	for i, r := range rs {
		switch {
		case r.Err == nil && r.Result != nil:
			completed++
		case r.Err == context.Canceled && r.Result == nil:
			cancelled++
		default:
			t.Errorf("job %d (%s): inconsistent result (res=%v err=%v)", i, r.Name, r.Result != nil, r.Err)
		}
	}
	if completed+cancelled != len(jobs) {
		t.Errorf("completed %d + cancelled %d != %d jobs", completed, cancelled, len(jobs))
	}
	waitGoroutines(t, base)
}

// malformedDFG returns a DFG whose only op reads a variable the graph
// never declared, which the public DFG methods cannot produce: synthesis
// panics on it inside the validate phase, so it drives the batch
// layer's panic recovery.
func malformedDFG(t *testing.T) *DFG {
	t.Helper()
	d := NewDFG("bad")
	if err := d.AddInput("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddOp("x", "+", 1, "y", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := d.MarkOutput("y"); err != nil {
		t.Fatal(err)
	}
	d.g.Op("x").Args[0] = "undeclared"
	return d
}

// A panicking job degrades to an error; the rest of the batch completes.
func TestSynthesizeAllPanicRecovery(t *testing.T) {
	good, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Name: "good-1", DFG: good, Modules: mods, Config: DefaultConfig()},
		{Name: "bad", DFG: malformedDFG(t), Config: DefaultConfig()},
		{Name: "good-2", DFG: good, Modules: mods, Config: DefaultConfig()},
	}
	rs, _ := SynthesizeAll(context.Background(), jobs, BatchOptions{Workers: 2})
	if rs[0].Err != nil || rs[2].Err != nil {
		t.Fatalf("good jobs failed: %v / %v", rs[0].Err, rs[2].Err)
	}
	if rs[1].Err == nil || !strings.Contains(rs[1].Err.Error(), "panicked") {
		t.Fatalf("bad job: err = %v, want recovered panic", rs[1].Err)
	}
	if rs[1].Result != nil {
		t.Error("bad job: Result and Err both set")
	}
}

// The panic-recovery terminal-event contract: a recovered job's
// observer receives exactly one PanicRecovered event and nothing after
// it, so a streaming subscriber is never left waiting for a conclusion
// that cannot come. (Regression: a panicking job used to end with no
// terminal event at all.)
func TestRunJobPanicTerminalEvent(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	cfg := DefaultConfig()
	cfg.Observer = func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	s := New(DefaultConfig())
	defer s.Close()
	br := s.RunJob(context.Background(), Job{Name: "bad", DFG: malformedDFG(t), Config: cfg})
	if br.Err == nil || !strings.Contains(br.Err.Error(), "panicked") {
		t.Fatalf("err = %v, want recovered panic", br.Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("observer saw no events; want a terminal PanicRecovered")
	}
	terminals := 0
	for _, e := range events {
		if e.Kind == PanicRecovered {
			terminals++
		}
	}
	if terminals != 1 {
		t.Fatalf("observer saw %d PanicRecovered events, want exactly 1", terminals)
	}
	if last := events[len(events)-1]; last.Kind != PanicRecovered || last.Design != "bad" {
		t.Fatalf("last event = %+v, want terminal PanicRecovered for %q", last, "bad")
	}
}

// An observer that itself panics mid-run is the realistic server-side
// trigger (it runs inline with synthesis). The batch layer must still
// attempt the terminal event — and survive the observer panicking again
// while receiving it.
func TestSynthesizeAllObserverPanicTerminalEvent(t *testing.T) {
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []Event
	panicked := false
	cfg := DefaultConfig()
	cfg.Observer = func(e Event) {
		mu.Lock()
		events = append(events, e)
		fire := e.Kind == PhaseEnd && !panicked
		if fire {
			panicked = true
		}
		mu.Unlock()
		if fire {
			panic("observer boom")
		}
	}
	rs, _ := SynthesizeAll(context.Background(),
		[]Job{{DFG: d, Modules: mods, Config: cfg}}, BatchOptions{Workers: 1})
	if rs[0].Err == nil || !strings.Contains(rs[0].Err.Error(), "panicked") {
		t.Fatalf("err = %v, want recovered panic", rs[0].Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if last := events[len(events)-1]; last.Kind != PanicRecovered {
		t.Fatalf("last event kind = %v, want PanicRecovered", last.Kind)
	}
}

// Pool is the persistent form of the batch pool: slots survive panics
// and refuse work only on the caller's own cancellation.
func TestPoolDo(t *testing.T) {
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig())
	defer s.Close()
	p := s.NewPool(2)
	if p.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", p.Workers())
	}
	br := p.Do(context.Background(), Job{DFG: d, Modules: mods, Config: DefaultConfig()})
	if br.Err != nil {
		t.Fatalf("Do: %v", br.Err)
	}
	if br.Name != "ex1" {
		t.Errorf("Name = %q, want ex1 (defaulted from the DFG)", br.Name)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if br := p.Do(ctx, Job{DFG: d, Modules: mods, Config: DefaultConfig()}); !errors.Is(br.Err, context.Canceled) {
		t.Fatalf("cancelled Do: err = %v, want context.Canceled", br.Err)
	}

	// Slots are released even when jobs panic: more panicking jobs than
	// slots, then a good job, must not wedge.
	for i := 0; i < 5; i++ {
		if br := p.Do(context.Background(), Job{Name: "bad", DFG: malformedDFG(t), Config: DefaultConfig()}); br.Err == nil {
			t.Fatal("panicking job reported success")
		}
	}
	if br := p.Do(context.Background(), Job{DFG: d, Modules: mods, Config: DefaultConfig()}); br.Err != nil {
		t.Fatalf("pool wedged after panics: %v", br.Err)
	}
}

// Nil DFGs fail their own job only; nil Modules selects auto binding.
func TestSynthesizeAllJobShapes(t *testing.T) {
	d, _, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Name: "missing"},
		{DFG: d, Config: DefaultConfig()}, // auto binding, name from DFG
	}
	rs, _ := SynthesizeAll(context.Background(), jobs, BatchOptions{})
	if rs[0].Err == nil {
		t.Error("nil-DFG job succeeded")
	}
	if rs[1].Err != nil {
		t.Fatalf("auto-binding job failed: %v", rs[1].Err)
	}
	if rs[1].Name != "ex1" {
		t.Errorf("default name = %q, want ex1", rs[1].Name)
	}
	if got, _ := SynthesizeAll(context.Background(), nil, BatchOptions{}); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}

// BenchmarkSynthesizeAll measures the batch worker pool over the full
// benchmark suite (all designs, both flows, session tuning) at several
// worker counts; on a multi-core machine the 4-worker run should be at
// least twice as fast as the sequential one while producing byte-
// identical output (asserted by TestSynthesizeAllDeterministicAcrossWorkers).
func BenchmarkSynthesizeAll(b *testing.B) {
	jobs := benchJobs(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs, _ := SynthesizeAll(context.Background(), jobs, BatchOptions{Workers: workers})
				for _, r := range rs {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
