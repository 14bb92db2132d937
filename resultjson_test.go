package bistpath

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
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

// resultJSON is the reference encoding of the schema: the tagged struct
// that json.MarshalIndent turns into the document Result.JSON writes in
// one pass. The public types it holds keep their tags for users' own
// json.Marshal and for the cache's disk entries, so the writer is held
// byte-identical to this struct (TestResultJSONMatchesReference,
// FuzzResultJSON) and the two cannot drift apart.
type resultJSON struct {
	Schema         int            `json:"schema"`
	Name           string         `json:"name"`
	Mode           string         `json:"mode"`
	Width          int            `json:"width"`
	Registers      []RegisterInfo `json:"registers"`
	Modules        []ModuleInfo   `json:"modules"`
	MuxCount       int            `json:"mux_count"`
	MuxExtraInputs int            `json:"mux_extra_inputs"`
	BaseArea       int            `json:"base_area"`
	BISTArea       int            `json:"bist_area"`
	OverheadPct    float64        `json:"overhead_pct"`
	StyleCounts    map[string]int `json:"style_counts"`
	Sessions       [][]string     `json:"sessions"`
	Objective      string         `json:"objective,omitempty"`
	Weights        *Weights       `json:"weights,omitempty"`
	Cost           *CostVector    `json:"cost,omitempty"`
	Pareto         []ParetoPoint  `json:"pareto,omitempty"`
	Stats          Stats          `json:"stats"`
}

// referenceJSON encodes r through resultJSON and json.MarshalIndent.
func referenceJSON(r *Result) ([]byte, error) {
	doc := resultJSON{
		Schema:         ResultSchemaVersion,
		Name:           r.Name,
		Mode:           r.Mode.String(),
		Width:          r.Width,
		Registers:      r.Registers,
		Modules:        r.Modules,
		MuxCount:       r.MuxCount,
		MuxExtraInputs: r.MuxExtraInputs,
		BaseArea:       r.BaseArea,
		BISTArea:       r.BISTArea,
		OverheadPct:    r.OverheadPct,
		StyleCounts:    r.StyleCounts,
		Sessions:       r.Sessions,
		Stats:          r.Stats,
	}
	if doc.Registers == nil {
		doc.Registers = []RegisterInfo{}
	}
	if doc.Modules == nil {
		doc.Modules = []ModuleInfo{}
	}
	if doc.Sessions == nil {
		doc.Sessions = [][]string{}
	}
	if doc.StyleCounts == nil {
		doc.StyleCounts = map[string]int{}
	}
	if r.Cost != nil {
		doc.Objective = r.cfg.Objective.String()
		doc.Cost = r.Cost
		doc.Pareto = r.Pareto
		if r.cfg.Objective == WeightedSum {
			doc.Weights = &r.cfg.Weights
		}
	}
	return json.MarshalIndent(doc, "", "  ")
}

// checkReferenceJSON fails unless r.JSON() returns exactly referenceJSON's
// bytes, or the same error.
func checkReferenceJSON(t testing.TB, label string, r *Result) {
	t.Helper()
	got, gotErr := r.JSON()
	want, wantErr := referenceJSON(r)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, reference error %v", label, gotErr, wantErr)
	}
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-80, 0)
	t.Fatalf("%s: JSON differs from the reference at byte %d:\n got …%q\nwant …%q",
		label, i, got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
}

// edgeResults are hand-built Results that no synthesis run produces:
// empty and nil collections, extreme and non-finite floats, and the
// multi-objective fields under each objective.
func edgeResults() map[string]*Result {
	weighted := &Result{Name: "weighted", Cost: &CostVector{Area: 3, TestTime: 2, PeakPower: 1},
		Pareto: []ParetoPoint{}}
	weighted.cfg.Objective = WeightedSum
	weighted.cfg.Weights = Weights{Area: 1, TestTime: 50, PeakPower: 2}
	pareto := &Result{Name: "pareto", Cost: &CostVector{}, Pareto: []ParetoPoint{
		{OverheadPct: 1e-7},
		{Cost: CostVector{Area: 1}, StyleCounts: map[string]int{}, Sessions: [][]string{{}, nil, {"m1"}}},
	}}
	pareto.cfg.Objective = ParetoFront
	return map[string]*Result{
		"zero":  {},
		"empty": {Registers: []RegisterInfo{}, Modules: []ModuleInfo{}, Sessions: [][]string{}, StyleCounts: map[string]int{}},
		"nil-inner": {
			Mode:      TraditionalHLS,
			Registers: []RegisterInfo{{Name: "R1"}, {Name: "R2", Vars: []string{}}},
			Modules:   []ModuleInfo{{Name: "m1", ForcedCBILBO: true}, {Name: "m2", Ops: []string{}}},
			Sessions:  [][]string{nil, {}, {"m1", "m2"}},
		},
		"tiny":       {OverheadPct: 1e-7, StyleCounts: map[string]int{"TPG": 1, "CBILBO": 2, "SA": 0, "TPG/SA": -3}},
		"huge":       {OverheadPct: 1e21},
		"negative":   {OverheadPct: -2.5e-9},
		"neg-zero":   {OverheadPct: math.Copysign(0, -1)},
		"nan":        {OverheadPct: math.NaN()},
		"inf":        {OverheadPct: math.Inf(-1)},
		"pareto-nan": {Cost: &CostVector{}, Pareto: []ParetoPoint{{OverheadPct: math.NaN()}}},
		"stats": {Stats: Stats{Total: -1, SearchNodes: math.MaxInt64, CaseOverrides: math.MinInt64,
			CacheHit: true, ReusedPhases: []string{"bist-search"}, IncrementalSpeedup: math.NaN()}},
		"weighted": weighted,
		"pareto":   pareto,
	}
}

// Result.JSON writes exactly the bytes json.MarshalIndent writes for the
// tagged reference struct: on the paper designs under every objective and
// both modes, 200 sweep designs, dfgen s/m/l designs and hand-built edge
// Results.
func TestResultJSONMatchesReference(t *testing.T) {
	ctx := context.Background()
	weighted := DefaultConfig()
	weighted.Objective = WeightedSum
	weighted.Weights = Weights{Area: 1, TestTime: 50, PeakPower: 2}
	pareto := DefaultConfig()
	pareto.Objective = ParetoFront
	traditional := DefaultConfig()
	traditional.Mode = TraditionalHLS
	configs := map[string]Config{"default": DefaultConfig(), "traditional": traditional,
		"weighted": weighted, "pareto": pareto}
	for _, name := range BenchmarkNames() {
		d, mods, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for label, cfg := range configs {
			res, err := d.SynthesizeCtx(ctx, mods, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkReferenceJSON(t, name+" "+label, res)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		d, mods, err := RandomDesign(seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.SynthesizeCtx(ctx, mods, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkReferenceJSON(t, fmt.Sprintf("sweep seed %d", seed), res)
	}
	for _, preset := range []string{"s", "m", "l"} {
		for seed := int64(1); seed <= 3; seed++ {
			d, mods := presetDesign(t, preset, seed)
			res, err := d.SynthesizeCtx(ctx, mods, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			checkReferenceJSON(t, fmt.Sprintf("dfgen %s-%d", preset, seed), res)
		}
	}
	for label, res := range edgeResults() {
		checkReferenceJSON(t, label, res)
	}
	if _, err := edgeResults()["nan"].JSON(); err == nil {
		t.Error("a NaN overhead encoded without error")
	}
}

// FuzzResultJSON puts fuzz-chosen strings into every string field of a
// Result and a fuzz-chosen float into both overhead fields, and holds
// the writer to the reference encoding.
func FuzzResultJSON(f *testing.F) {
	f.Add("ex1", "R1", 18.0128)
	f.Add("<a&b>", "\u2028\u2029", 1e-7)
	f.Add("\x00\x1f\x7f\"\\", "\xff\xfe\xc3", 1e21)
	f.Add("\b\f\n\r\t", "é€😀", -2.5e-9)
	f.Add("", "", math.NaN())
	f.Fuzz(func(t *testing.T, a, b string, x float64) {
		r := &Result{
			Name:        a,
			Registers:   []RegisterInfo{{Name: a, Vars: []string{a, b}, Style: b}},
			Modules:     []ModuleInfo{{Name: b, Class: a, Ops: []string{b, a}, Embedding: a + b}},
			OverheadPct: x,
			StyleCounts: map[string]int{a: 1, b: 2},
			Sessions:    [][]string{{a}, {b, a}},
			Cost:        &CostVector{},
			Pareto: []ParetoPoint{{OverheadPct: x, StyleCounts: map[string]int{b: 3},
				Sessions: [][]string{{b}}}},
		}
		r.cfg.Objective = ParetoFront
		checkReferenceJSON(t, fmt.Sprintf("%q %q %v", a, b, x), r)
	})
}

// JSON is safe for concurrent use: goroutines encoding the same Results
// at once, as bistpathd's jobs and batch callers do, each get the bytes
// a lone call returns (run under -race).
func TestResultJSONConcurrent(t *testing.T) {
	var results []*Result
	var want [][]byte
	for _, name := range BenchmarkNames() {
		d, mods, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		doc, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		want = append(want, doc)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(results)
				doc, err := results[k].JSON()
				if err == nil && !bytes.Equal(doc, want[k]) {
					err = fmt.Errorf("%s: concurrent JSON differs from a lone call", results[k].Name)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
