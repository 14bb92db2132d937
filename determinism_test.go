package bistpath

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// The parallel search must be invisible in the output: the full JSON
// serialization (the strongest observable, modulo wall-time *_ns stats
// fields and the search_workers configuration echo) is byte-identical
// whatever the worker count — except the three search counters
// DESIGN.md §6 documents as timing-dependent under Workers > 1 (bound
// propagation timing changes how much of the tree is cut), which every
// comparison here involves and so zeroes.
func TestResultJSONIdenticalAcrossWorkers(t *testing.T) {
	normalize := func(raw []byte) []byte {
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		stats := doc["stats"].(map[string]any)
		for _, k := range []string{"search_workers", "search_nodes", "bound_prunes", "incumbent_updates"} {
			stats[k] = 0
		}
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return normalizeResultJSON(t, out)
	}
	for _, name := range BenchmarkNames() {
		var baseline []byte
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
			got := normalize(raw)
			if workers == 1 {
				baseline = got
				continue
			}
			if string(got) != string(baseline) {
				t.Errorf("%s: JSON with %d workers differs from sequential run:\n%s\nvs\n%s",
					name, workers, got, baseline)
			}
		}
	}
}

// Cancelling a synthesis mid-search must leave no trace: a fresh run
// afterwards produces exactly the result an undisturbed run would. The
// observer cancels on the first progress event from inside the branch
// and bound, which lands mid-search whenever the design is large enough
// to emit one (paulin's search is; if a future change makes it finish
// below the progress granularity the cancellation part degrades to a
// no-op and only the equality assertion remains).
func TestCancellationRetryDeterministic(t *testing.T) {
	d, mods, err := Benchmark("paulin")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	baseline := normalizeResultJSON(t, raw)

	for run := 0; run < 3; run++ {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := DefaultConfig()
		cfg.Workers = 2
		cfg.Observer = func(e Event) {
			if e.Kind == SearchProgress {
				cancel()
			}
		}
		_, err := d.SynthesizeCtx(ctx, mods, cfg)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run %d: %v", run, err)
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
