package bistpath

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// A reused Synthesizer must be invisible in the results: repeated
// sequential runs on one handle are byte-identical to fresh-handle runs
// of the same inputs, report and JSON alike.
func TestSynthesizerReuseByteIdentical(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	for _, name := range BenchmarkNames() {
		d, mods, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(DefaultConfig()).Synthesize(context.Background(), d, mods)
		if err != nil {
			t.Fatal(err)
		}
		freshJSON, err := fresh.JSON()
		if err != nil {
			t.Fatal(err)
		}
		// Three passes: the first warms the arenas, the later ones reuse
		// them — all three must match the fresh-handle run.
		for pass := 0; pass < 3; pass++ {
			res, err := s.Synthesize(context.Background(), d, mods)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.ReportText(), fresh.ReportText(); got != want {
				t.Fatalf("%s pass %d: reused-handle report diverged:\ngot  %s\nwant %s", name, pass, got, want)
			}
			gotJSON, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(stripStats(t, gotJSON)) != string(stripStats(t, freshJSON)) {
				t.Fatalf("%s pass %d: reused-handle JSON diverged", name, pass)
			}
		}
	}
}

// Concurrent runs on one handle draw distinct scratches and must stay
// byte-identical to fresh-handle runs. Run under -race this also proves
// the freelist and lifetime accounting are race-clean.
func TestSynthesizerConcurrentReuse(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	jobs := benchJobs(t)
	seq, _ := SynthesizeAll(context.Background(), jobs, BatchOptions{Workers: 1})
	want := reportsOf(t, seq)

	const rounds = 4
	var wg sync.WaitGroup
	got := make([][]string, rounds)
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rs, _ := s.SynthesizeAll(context.Background(), jobs, BatchOptions{Workers: 4})
			out := make([]string, len(rs))
			for i, br := range rs {
				if br.Err != nil {
					out[i] = "error: " + br.Err.Error()
					continue
				}
				out[i] = br.Result.ReportText()
			}
			got[r] = out
		}(r)
	}
	wg.Wait()
	for r := 0; r < rounds; r++ {
		for i := range want {
			if got[r][i] != want[i] {
				t.Fatalf("round %d job %d (%s): concurrent reused-handle report diverged:\ngot  %s\nwant %s",
					r, i, jobs[i].Name, got[r][i], want[i])
			}
		}
	}
}

// Synthesize on the handle uses the handle's Config.
func TestSynthesizerUsesHandleConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = TraditionalHLS
	s := New(cfg)
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Synthesize(context.Background(), d, mods)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != TraditionalHLS {
		t.Fatalf("Mode = %v, want TraditionalHLS from the handle Config", res.Mode)
	}
}

// A closed handle refuses new runs with ErrSynthesizerClosed; Close is
// idempotent; a nil-DFG Synthesize fails with ErrNoDFG.
func TestSynthesizerClosed(t *testing.T) {
	s := New(DefaultConfig())
	if _, err := s.Synthesize(context.Background(), nil, nil); !errors.Is(err, ErrNoDFG) {
		t.Fatalf("nil DFG err = %v, want ErrNoDFG", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Synthesize(context.Background(), d, mods); !errors.Is(err, ErrSynthesizerClosed) {
		t.Fatalf("Synthesize after Close = %v, want ErrSynthesizerClosed", err)
	}
	if br := s.NewPool(1).Do(context.Background(), Job{DFG: d, Modules: mods, Config: DefaultConfig()}); !errors.Is(br.Err, ErrSynthesizerClosed) {
		t.Fatalf("Pool.Do after Close = %v, want ErrSynthesizerClosed", br.Err)
	}
}

// Every entry point fails a missing design with ErrNoDFG instead of
// panicking: a nil *DFG receiver or argument, and a zero DFG that never
// got a graph.
func TestMissingDFGReturnsErrNoDFG(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	ctx := context.Background()
	for _, d := range []*DFG{nil, {}} {
		calls := map[string]func() error{
			"DFG.SynthesizeCtx": func() error { _, err := d.SynthesizeCtx(ctx, nil, DefaultConfig()); return err },
			"DFG.SynthesizeParetoCtx": func() error {
				_, err := d.SynthesizeParetoCtx(ctx, nil, DefaultConfig())
				return err
			},
			"Synthesizer.Synthesize":       func() error { _, err := s.Synthesize(ctx, d, nil); return err },
			"Synthesizer.SynthesizePareto": func() error { _, err := s.SynthesizePareto(ctx, d, nil); return err },
			"Synthesizer.NewSession":       func() error { _, err := s.NewSession(d, nil); return err },
			"Synthesizer.RunJob":           func() error { return s.RunJob(ctx, Job{DFG: d, Config: DefaultConfig()}).Err },
		}
		for name, call := range calls {
			if err := call(); !errors.Is(err, ErrNoDFG) {
				t.Errorf("%s on %#v: err = %v, want ErrNoDFG", name, d, err)
			}
		}
	}
}

// Close with a run in flight cancels it cleanly: the run comes back with
// ErrSynthesizerClosed, Close itself returns (no wedged waiters), and
// the package-default handle behind the free functions keeps working
// afterwards.
func TestSynthesizerCloseMidFlight(t *testing.T) {
	d, mods, err := Benchmark("paulin")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg.Observer = func(e Event) {
		if e.Kind == PhaseStart {
			once.Do(func() {
				close(started)
				<-release
			})
		}
	}
	s := New(cfg)

	runErr := make(chan error, 1)
	go func() {
		_, err := s.Synthesize(context.Background(), d, mods)
		runErr <- err
	}()

	<-started
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Wait until Close has actually cancelled the handle's lifetime, then
	// let the pipeline proceed into its next context poll.
	<-s.baseCtx.Done()
	close(release)

	select {
	case err := <-runErr:
		if !errors.Is(err, ErrSynthesizerClosed) {
			t.Fatalf("mid-flight run err = %v, want ErrSynthesizerClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run wedged after Close")
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged waiting for in-flight run")
	}

	// The package-default handle is unaffected by closing an explicit one.
	if _, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig()); err != nil {
		t.Fatalf("default-handle SynthesizeCtx after explicit Close: %v", err)
	}
}

// A caller whose own context is already cancelled sees that context's
// error, not ErrSynthesizerClosed, even when Close races the run.
func TestSynthesizerCallerContextWins(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Synthesize(ctx, d, mods); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Pools bound to an explicit handle keep their slot discipline across a
// mid-flight Close: Do returns, Acquire/Release still work.
func TestSynthesizerPoolSurvivesClose(t *testing.T) {
	s := New(DefaultConfig())
	p := s.NewPool(2)
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	if br := p.Do(context.Background(), Job{DFG: d, Modules: mods, Config: DefaultConfig()}); br.Err != nil {
		t.Fatal(br.Err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire after Close: %v", err)
	}
	p.Release()
	if br := p.Do(context.Background(), Job{DFG: d, Modules: mods, Config: DefaultConfig()}); !errors.Is(br.Err, ErrSynthesizerClosed) {
		t.Fatalf("Do after Close = %v, want ErrSynthesizerClosed", br.Err)
	}
}

// The handle's Config.Cache is inherited by jobs that bring none of
// their own, so one handle gives a whole workload a shared cache.
func TestSynthesizerCacheInheritance(t *testing.T) {
	c, err := NewCache(CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cache = c
	s := New(cfg)
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	job := Job{DFG: d, Modules: mods, Config: DefaultConfig()} // no cache of its own
	if rs, _ := s.SynthesizeAll(context.Background(), []Job{job}, BatchOptions{}); rs[0].Err != nil {
		t.Fatal(rs[0].Err)
	}
	br := s.RunJob(context.Background(), job)
	if br.Err != nil {
		t.Fatal(br.Err)
	}
	if !br.Result.Stats.CacheHit {
		t.Fatal("second run missed the handle's inherited cache")
	}
}
