package bistpath

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// resultKeyOrder is every key path of a Result.JSON() document, in the
// order it is written. A path joins object keys with "." and marks an
// array element with "[]"; the style-name keys inside style_counts are
// data, not schema, and are not listed.
var resultKeyOrder = []string{
	"schema", "name", "mode", "width",
	"registers", "registers[].name", "registers[].vars", "registers[].style", "registers[].sharing_degree",
	"modules", "modules[].name", "modules[].class", "modules[].ops", "modules[].embedding", "modules[].forced_cbilbo",
	"mux_count", "mux_extra_inputs", "base_area", "bist_area", "overhead_pct", "style_counts", "sessions",
	"objective",
	"weights", "weights.area", "weights.test_time", "weights.peak_power",
	"cost", "cost.area", "cost.test_time", "cost.peak_power",
	"pareto", "pareto[].cost", "pareto[].cost.area", "pareto[].cost.test_time", "pareto[].cost.peak_power",
	"pareto[].bist_area", "pareto[].overhead_pct", "pareto[].style_counts", "pareto[].sessions",
	"stats", "stats.total_ns", "stats.validate_ns", "stats.register_bind_ns", "stats.interconnect_ns",
	"stats.datapath_ns", "stats.bist_search_ns",
	"stats.search_nodes", "stats.bound_prunes", "stats.incumbent_updates", "stats.embeddings_enumerated",
	"stats.search_workers",
	"stats.lemma2_checks", "stats.case_overrides",
}

// jsonKeyPaths appends the key paths of the JSON value dec is positioned
// at, each once, in first-seen order.
func jsonKeyPaths(dec *json.Decoder, path string, seen map[string]bool, out *[]string) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	switch tok {
	case json.Delim('{'):
		for dec.More() {
			k, err := dec.Token()
			if err != nil {
				return err
			}
			key := k.(string)
			if path != "" {
				key = path + "." + key
			}
			if !seen[key] {
				seen[key] = true
				*out = append(*out, key)
			}
			if strings.HasSuffix(key, "style_counts") {
				err = dec.Decode(new(json.RawMessage))
			} else {
				err = jsonKeyPaths(dec, key, seen, out)
			}
			if err != nil {
				return err
			}
		}
		_, err = dec.Token()
	case json.Delim('['):
		for dec.More() {
			if err := jsonKeyPaths(dec, path+"[]", seen, out); err != nil {
				return err
			}
		}
		_, err = dec.Token()
	}
	return err
}

// The goldens compare documents re-marshalled with sorted keys, so they
// cannot see a field move. This pins the written order: each document's
// key sequence must be resultKeyOrder restricted to the keys it has, and
// together the documents must write every key.
func TestResultJSONKeyOrder(t *testing.T) {
	weighted := DefaultConfig()
	weighted.Objective = WeightedSum
	weighted.Weights = Weights{Area: 1, TestTime: 50, PeakPower: 2}
	pareto := DefaultConfig()
	pareto.Objective = ParetoFront
	ex1, ex1Mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	paulin, paulinMods, err := Benchmark("paulin")
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, tc := range []struct {
		d    *DFG
		mods map[string]string
		cfg  Config
	}{
		{ex1, ex1Mods, DefaultConfig()},
		{paulin, paulinMods, weighted},
		{paulin, paulinMods, pareto},
	} {
		res, err := tc.d.SynthesizeCtx(context.Background(), tc.mods, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		var got []string
		if err := jsonKeyPaths(json.NewDecoder(bytes.NewReader(raw)), "", seen, &got); err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, k := range resultKeyOrder {
			if seen[k] {
				want = append(want, k)
				covered[k] = true
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s %s: key order\n got %q\nwant %q", res.Name, tc.cfg.Objective, got, want)
		}
	}
	for _, k := range resultKeyOrder {
		if !covered[k] {
			t.Errorf("no document wrote %q", k)
		}
	}
}
