package bistpath

import "encoding/json"

// ResultSchemaVersion is the version tag embedded in Result.JSON()
// output ("schema"). It is bumped whenever a field is removed or changes
// meaning; adding fields is not a version bump.
const ResultSchemaVersion = 1

// The machine-readable result schema. Every field is stable and
// documented here and on the public types the document holds —
// RegisterInfo, ModuleInfo, Weights, CostVector, ParetoPoint and Stats —
// whose json tags are the wire names, in the order they are written.
// Result.JSON never leaks unexported state. All fields except "stats"
// are deterministic (same design, same config → same bytes); "stats"
// carries the timing-dependent measurements and the search counters
// described on Stats.
type resultJSON struct {
	Schema         int            `json:"schema"`
	Name           string         `json:"name"`
	Mode           string         `json:"mode"`  // "testable" | "traditional"
	Width          int            `json:"width"` // datapath bit width
	Registers      []RegisterInfo `json:"registers"`
	Modules        []ModuleInfo   `json:"modules"`
	MuxCount       int            `json:"mux_count"`
	MuxExtraInputs int            `json:"mux_extra_inputs"`
	BaseArea       int            `json:"base_area"` // gate equivalents before BIST
	BISTArea       int            `json:"bist_area"` // gate equivalents after BIST
	OverheadPct    float64        `json:"overhead_pct"`
	// BIST resource mix: non-normal style -> register count.
	StyleCounts map[string]int `json:"style_counts"`
	// Test session schedule: module names tested concurrently.
	Sessions [][]string `json:"sessions"`
	// Multi-objective fields, present only for the WeightedSum and
	// ParetoFront objectives (omitted entirely under MinArea, keeping
	// its documents byte-identical across releases; additive fields are
	// not a schema version bump).
	Objective string        `json:"objective,omitempty"` // "weighted" | "pareto"
	Weights   *Weights      `json:"weights,omitempty"`   // WeightedSum only
	Cost      *CostVector   `json:"cost,omitempty"`
	Pareto    []ParetoPoint `json:"pareto,omitempty"` // ParetoFront only
	Stats     Stats         `json:"stats"`
}

// JSON renders the result as an indented, machine-readable JSON document
// with a stable schema (see resultJSON above and the README's
// Observability section). Everything except the "stats" object is
// deterministic; consumers diffing results across runs should ignore
// stats' *_ns fields.
func (r *Result) JSON() ([]byte, error) {
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
	// Empty collections are written as [] and {}, never null.
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
