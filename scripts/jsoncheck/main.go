// jsoncheck validates that stdin is well-formed JSON and that the
// bistpath schema essentials are present. CI pipes the machine-readable
// CLI outputs through it so a schema regression fails the build rather
// than a downstream consumer:
//
//	bistpath synth  -bench all -json | jsoncheck
//	bistpath verify -bench all -json | jsoncheck -kind verify
//
// Accepts either a single document or an array of them (the -bench all
// form). Exits non-zero with a diagnostic on any problem.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	kind := flag.String("kind", "synth", "document schema to enforce: synth (Result.JSON), verify (VerifyReport) or scaling (scalingbench)")
	flag.Parse()

	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		fatal("read stdin: %v", err)
	}
	var docs []map[string]any
	if err := json.Unmarshal(data, &docs); err != nil {
		var one map[string]any
		if err2 := json.Unmarshal(data, &one); err2 != nil {
			fatal("not valid JSON (neither array nor object): %v", err)
		}
		docs = []map[string]any{one}
	}
	if len(docs) == 0 {
		fatal("empty result set")
	}
	switch *kind {
	case "synth":
		checkSynth(docs)
	case "verify":
		checkVerify(docs)
	case "scaling":
		checkScaling(docs)
	default:
		fatal("unknown -kind %q (want synth, verify or scaling)", *kind)
	}
	fmt.Printf("jsoncheck: %d %s document(s) ok\n", len(docs), *kind)
}

func checkSynth(docs []map[string]any) {
	required := []string{"schema", "name", "mode", "width", "registers", "modules",
		"base_area", "bist_area", "overhead_pct", "sessions", "stats"}
	for i, doc := range docs {
		for _, key := range required {
			if _, ok := doc[key]; !ok {
				fatal("result %d: missing key %q", i, key)
			}
		}
		stats, ok := doc["stats"].(map[string]any)
		if !ok {
			fatal("result %d (%v): stats is not an object", i, doc["name"])
		}
		if v, _ := stats["search_nodes"].(float64); v <= 0 {
			fatal("result %d (%v): stats.search_nodes = %v, want > 0", i, doc["name"], stats["search_nodes"])
		}
	}
}

func checkVerify(docs []map[string]any) {
	required := []string{"design", "violations", "vectors", "plan_cost", "plan_exact",
		"embedding_oracle_ran", "rerun_oracle_ran", "binding_oracle_ran"}
	for i, doc := range docs {
		for _, key := range required {
			if _, ok := doc[key]; !ok {
				fatal("report %d: missing key %q", i, key)
			}
		}
		// violations must be an array (empty on a pass, and a CI run
		// validating schema expects passes — a violation here means the
		// pipeline should already have failed upstream).
		if _, ok := doc["violations"].([]any); !ok && doc["violations"] != nil {
			fatal("report %d (%v): violations is not an array", i, doc["design"])
		}
		if v, _ := doc["vectors"].(float64); v <= 0 {
			fatal("report %d (%v): vectors = %v, want > 0", i, doc["design"], doc["vectors"])
		}
	}
}

func checkScaling(docs []map[string]any) {
	if len(docs) != 1 {
		fatal("scaling: expected a single document, got %d", len(docs))
	}
	doc := docs[0]
	for _, key := range []string{"schema", "kind", "quick", "rows"} {
		if _, ok := doc[key]; !ok {
			fatal("scaling: missing key %q", key)
		}
	}
	if v, _ := doc["schema"].(float64); v != 2 {
		fatal("scaling: schema = %v, want 2", doc["schema"])
	}
	if k, _ := doc["kind"].(string); k != "scaling" {
		fatal("scaling: kind = %v, want \"scaling\"", doc["kind"])
	}
	rows, ok := doc["rows"].([]any)
	if !ok || len(rows) == 0 {
		fatal("scaling: rows missing or empty")
	}
	required := []string{"name", "design", "seed", "ops", "modules", "registers",
		"exact_area", "exact_provable", "search_nodes", "search_ms"}
	papers := 0
	for i, rv := range rows {
		r, ok := rv.(map[string]any)
		if !ok {
			fatal("scaling: row %d is not an object", i)
		}
		for _, key := range required {
			if _, ok := r[key]; !ok {
				fatal("scaling: row %d (%v): missing key %q", i, r["name"], key)
			}
		}
		if v, _ := r["exact_area"].(float64); v <= 0 {
			fatal("scaling: row %d (%v): exact_area = %v, want > 0", i, r["name"], r["exact_area"])
		}
		if v, _ := r["search_nodes"].(float64); v <= 0 {
			fatal("scaling: row %d (%v): search_nodes = %v, want > 0", i, r["name"], r["search_nodes"])
		}
		if d, _ := r["design"].(string); d == "paper" {
			papers++
		}
	}
	if papers != 5 {
		fatal("scaling: %d paper benchmark rows, want 5", papers)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "jsoncheck: "+format+"\n", args...)
	os.Exit(1)
}
