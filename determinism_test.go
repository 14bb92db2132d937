package bistpath

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// Config.Workers is inert: the full JSON serialization (modulo the
// wall-time *_ns stats fields), every search counter included, and the
// report text are byte-identical whatever value it carries.
func TestResultJSONIdenticalAcrossWorkers(t *testing.T) {
	for _, name := range BenchmarkNames() {
		var baseJSON []byte
		var baseReport string
		for _, workers := range []int{1, 2, 8} {
			d, mods, err := Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Workers = workers
			res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			raw, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got := normalizeResultJSON(t, raw)
			if workers == 1 {
				baseJSON, baseReport = got, res.ReportText()
				continue
			}
			if string(got) != string(baseJSON) {
				t.Errorf("%s: JSON with Workers=%d differs from Workers=1:\n%s\nvs\n%s",
					name, workers, got, baseJSON)
			}
			if r := res.ReportText(); r != baseReport {
				t.Errorf("%s: report with Workers=%d differs from Workers=1:\n%s\nvs\n%s",
					name, workers, r, baseReport)
			}
		}
	}
}

// checkProgressEvents asserts the SearchProgress delivery contract on one
// run's event sequence: every progress event falls between the
// bist-search phase's PhaseStart and PhaseEnd, with strictly increasing
// SearchNodes. It returns the number of progress events.
func checkProgressEvents(t *testing.T, label string, events []Event) int {
	t.Helper()
	inSearch, last, n := false, int64(0), 0
	for _, e := range events {
		switch {
		case e.Phase == PhaseBISTSearch && e.Kind == PhaseStart:
			inSearch = true
		case e.Phase == PhaseBISTSearch && e.Kind == PhaseEnd:
			inSearch = false
		case e.Kind == SearchProgress:
			if !inSearch || e.Phase != PhaseBISTSearch {
				t.Errorf("%s: progress event %+v outside the bist-search phase", label, e)
			}
			if e.SearchNodes <= last {
				t.Errorf("%s: SearchNodes %d after %d, want strictly increasing", label, e.SearchNodes, last)
			}
			last = e.SearchNodes
			n++
		}
	}
	return n
}

// Cancelling a synthesis mid-search must leave no trace: a fresh run
// afterwards produces exactly the result an undisturbed run would. The
// design is dfgen m-2, whose exact search expands ~12.9k nodes, well
// past the 1024-node progress stride, so the observer's cancel on the
// first SearchProgress event lands mid-search and every cancelled run
// must return context.Canceled. Every run's events are also checked
// against the progress delivery contract.
func TestCancellationRetryDeterministic(t *testing.T) {
	d, mods := presetDesign(t, "m", 2)
	var events []Event
	cfg := DefaultConfig()
	cfg.Observer = func(e Event) { events = append(events, e) }
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := checkProgressEvents(t, "undisturbed", events); n < 2 {
		t.Fatalf("undisturbed run emitted %d progress events, want >= 2", n)
	}
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	baseline := normalizeResultJSON(t, raw)

	for run := 0; run < 3; run++ {
		ctx, cancel := context.WithCancel(context.Background())
		events = events[:0]
		cfg := DefaultConfig()
		cfg.Observer = func(e Event) {
			events = append(events, e)
			if e.Kind == SearchProgress {
				cancel()
			}
		}
		_, err := d.SynthesizeCtx(ctx, mods, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run %d: err = %v, want context.Canceled", run, err)
		}
		if n := checkProgressEvents(t, fmt.Sprintf("cancelled run %d", run), events); n == 0 {
			t.Errorf("cancelled run %d emitted no progress event", run)
		}

		retry, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
		if err != nil {
			t.Fatalf("retry %d after cancellation: %v", run, err)
		}
		raw, err := retry.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if got := normalizeResultJSON(t, raw); string(got) != string(baseline) {
			t.Errorf("retry %d after cancellation drifted from baseline:\n%s\nvs\n%s", run, got, baseline)
		}
	}
}

// Regression test for latent map-iteration nondeterminism: every stage
// feeding the optimizer (style enumeration, embedding enumeration,
// session packing) must iterate in sorted order, so repeated synthesis
// of the same design yields byte-identical reports. Twenty runs per
// configuration gives Go's randomized map iteration ample opportunity
// to expose an unsorted walk.
func TestSynthesizeRepeatedlyDeterministic(t *testing.T) {
	const runs = 20
	for _, name := range BenchmarkNames() {
		for _, mode := range []struct {
			label string
			cfg   func() Config
		}{
			{"testable", DefaultConfig},
			{"traditional", func() Config {
				c := DefaultConfig()
				c.Mode = TraditionalHLS
				return c
			}},
			{"minsessions", func() Config {
				c := DefaultConfig()
				c.MinimizeSessions = true
				return c
			}},
		} {
			var first string
			for run := 0; run < runs; run++ {
				// Rebuild the DFG and binding from scratch each run so
				// construction-order effects are exercised too.
				d, mods, err := Benchmark(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := d.SynthesizeCtx(context.Background(), mods, mode.cfg())
				if err != nil {
					t.Fatalf("%s/%s run %d: %v", name, mode.label, run, err)
				}
				rep := res.ReportText()
				if run == 0 {
					first = rep
					continue
				}
				if rep != first {
					t.Fatalf("%s/%s: run %d report differs from run 0:\n--- run 0\n%s\n--- run %d\n%s",
						name, mode.label, run, first, run, rep)
				}
			}
		}
	}
}
