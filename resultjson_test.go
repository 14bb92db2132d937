package bistpath

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite JSON golden files")

// normalizeResultJSON zeroes the *_ns stats fields, which are wall-time
// measurements and differ run to run; everything else in the schema is
// deterministic and compared byte-for-byte after canonical re-marshal.
func normalizeResultJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	stats, ok := doc["stats"].(map[string]any)
	if !ok {
		t.Fatal("schema missing stats object")
	}
	for k := range stats {
		if len(k) > 3 && k[len(k)-3:] == "_ns" {
			stats[k] = 0
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func TestResultJSONGolden(t *testing.T) {
	for _, name := range BenchmarkNames() {
		d, mods, err := Benchmark(name)
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
		got := normalizeResultJSON(t, raw)
		path := filepath.Join("testdata", name+".golden.json")
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test -run ResultJSONGolden -update` to create)", err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: JSON output drifted from golden file %s;\nrun `go test -run ResultJSONGolden -update` if the change is intended.\ngot:\n%s", name, path, got)
		}
	}
}

// The schema invariants consumers rely on: version tag, required keys,
// and non-null containers even when empty.
func TestResultJSONSchema(t *testing.T) {
	d, mods, _ := Benchmark("ex1")
	res, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if v, ok := doc["schema"].(float64); !ok || int(v) != ResultSchemaVersion {
		t.Errorf("schema = %v, want %d", doc["schema"], ResultSchemaVersion)
	}
	for _, key := range []string{"name", "mode", "width", "registers", "modules",
		"mux_count", "mux_extra_inputs", "base_area", "bist_area", "overhead_pct",
		"style_counts", "sessions", "stats"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("schema missing key %q", key)
		}
	}
	if doc["sessions"] == nil || doc["style_counts"] == nil {
		t.Error("containers must marshal as [] / {} rather than null")
	}
	stats, _ := doc["stats"].(map[string]any)
	if stats["search_nodes"].(float64) <= 0 {
		t.Error("stats.search_nodes not populated in JSON")
	}
}
