package bistpath

import (
	"context"
	"os"
	"slices"
	"testing"
	"time"
)

// benchEditSession opens a session on ex1 (the Table II running
// example) primed with one cold run, ready for the alternating
// single-step edit: mul2 moves between steps 4 and 5, which preserves
// every lifetime overlap and the data-path structure, so the bind and
// search phases are reusable — the best case the incremental API is
// built for, and the one the CI gate measures.
func benchEditSession(tb testing.TB, s *Synthesizer) *Session {
	tb.Helper()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		tb.Fatal(err)
	}
	ss, err := s.NewSession(d, mods)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := ss.Resynthesize(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return ss
}

// BenchmarkResynthesizeSmallEdit measures the incremental path against
// the from-scratch path on the same alternating single-step edit. The
// warm/cold ns/op ratio is the speedup the incremental CI gate asserts.
func BenchmarkResynthesizeSmallEdit(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		s := New(DefaultConfig())
		defer s.Close()
		d, mods, err := Benchmark("ex1")
		if err != nil {
			b.Fatal(err)
		}
		d = &DFG{g: d.g.Clone()} // never mutate the shared benchmark graph
		if _, err := s.Synthesize(context.Background(), d, mods); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.g.Op("mul2").Step = 4 + (i+1)%2
			if _, err := s.Synthesize(context.Background(), d, mods); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := New(DefaultConfig())
		defer s.Close()
		ss := benchEditSession(b, s)
		defer ss.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ss.SetStep("mul2", 4+(i+1)%2); err != nil {
				b.Fatal(err)
			}
			if _, err := ss.Resynthesize(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResynthesizeFirstEdit measures a session's first run after
// one edit: a new session on ex1, one SetStep, Resynthesize. With no
// previous run to reuse, this is a cold synthesis whose Result the
// session keeps for the next edit — the shape of a service PATCH that
// opens a new lineage.
func BenchmarkResynthesizeFirstEdit(b *testing.B) {
	s := New(DefaultConfig())
	defer s.Close()
	d, mods, err := Benchmark("ex1")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, err := s.NewSession(d, mods)
		if err != nil {
			b.Fatal(err)
		}
		if err := ss.SetStep("mul2", 5); err != nil {
			b.Fatal(err)
		}
		if _, err := ss.Resynthesize(context.Background()); err != nil {
			b.Fatal(err)
		}
		ss.Close()
	}
}

// BenchmarkResynthesizeGeneralEdit is BenchmarkResynthesizeSmallEdit's
// alternating step edit with a no-op RemapModule riding along, which
// keeps the batch off the steps-only fast path: every run re-enters the
// pipeline with the previous run as its prior and splices the plan.
func BenchmarkResynthesizeGeneralEdit(b *testing.B) {
	s := New(DefaultConfig())
	defer s.Close()
	ss := benchEditSession(b, s)
	defer ss.Close()
	module := ss.opToModule["mul2"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ss.SetStep("mul2", 4+(i+1)%2); err != nil {
			b.Fatal(err)
		}
		if err := ss.RemapModule("mul2", module); err != nil {
			b.Fatal(err)
		}
		if _, err := ss.Resynthesize(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestIncrementalSpeedupGate is the CI gate on the tentpole's headline
// number: on the alternating single-step edit, Session.Resynthesize
// must beat from-scratch synthesis by at least 3x. Both sides first run
// untimed, so the timed calls see a heap that has stopped growing.
// Then each call is timed on its own, the two sides alternate over five
// rounds (switching which goes first), and the gate compares per-call
// medians: a GC pause or a burst of load on the machine lands in one
// side's tail instead of its total, and the cold side, which allocates
// more, gains more from dropping pauses than the session does.
// Wall-clock ratios are still too noisy for the ordinary test run, so
// the gate only arms when CI's incremental step sets
// BISTPATH_INCR_GATE=1.
func TestIncrementalSpeedupGate(t *testing.T) {
	if os.Getenv("BISTPATH_INCR_GATE") == "" {
		t.Skip("set BISTPATH_INCR_GATE=1 to run the incremental speedup gate")
	}
	const warmup, rounds, perRound = 300, 5, 200

	s := New(DefaultConfig())
	defer s.Close()

	// From-scratch side: the same alternating edit, full pipeline.
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	d = &DFG{g: d.g.Clone()}
	ss := benchEditSession(t, s)
	defer ss.Close()

	// Each side counts its edits, so mul2 keeps alternating between
	// steps 4 and 5 across the warm-up and the rounds.
	var cold, warm []time.Duration
	var coldEdits, warmEdits int
	var reused []string
	coldRun := func(n int, record bool) {
		for i := 0; i < n; i++ {
			start := time.Now()
			coldEdits++
			d.g.Op("mul2").Step = 4 + coldEdits%2
			if _, err := s.Synthesize(context.Background(), d, mods); err != nil {
				t.Fatal(err)
			}
			if record {
				cold = append(cold, time.Since(start))
			}
		}
	}
	warmRun := func(n int, record bool) {
		for i := 0; i < n; i++ {
			start := time.Now()
			warmEdits++
			if err := ss.SetStep("mul2", 4+warmEdits%2); err != nil {
				t.Fatal(err)
			}
			res, err := ss.Resynthesize(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if record {
				warm = append(warm, time.Since(start))
				reused = res.Stats.ReusedPhases
			}
		}
	}
	coldRun(warmup, false)
	warmRun(warmup, false)
	for r := 0; r < rounds; r++ {
		if r%2 == 0 {
			coldRun(perRound, true)
			warmRun(perRound, true)
		} else {
			warmRun(perRound, true)
			coldRun(perRound, true)
		}
	}

	coldMed, warmMed := medianDuration(cold), medianDuration(warm)
	speedup := float64(coldMed) / float64(warmMed)
	t.Logf("per-call medians over %d edits each: cold %v, warm %v: %.2fx", len(cold), coldMed, warmMed, speedup)
	if !hasPhase(Stats{ReusedPhases: reused}, PhaseRegisterBind) ||
		!hasPhase(Stats{ReusedPhases: reused}, PhaseBISTSearch) {
		t.Errorf("gate edit did not reuse the expensive phases: %v", reused)
	}
	if speedup < 3 {
		t.Errorf("incremental speedup %.2fx < required 3x (median cold %v, warm %v)", speedup, coldMed, warmMed)
	}
}

// medianDuration returns the median of ds (the upper one for an even
// count); it sorts ds in place.
func medianDuration(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}
