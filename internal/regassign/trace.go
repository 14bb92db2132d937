package regassign

import (
	"fmt"
	"sort"
	"strings"

	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
)

// Decision explains one step of the coloring: which register a variable
// went to and why — the ΔSD ranking, Case 1/2 diversions and Lemma-2
// avoidances of Section III.A.2, made inspectable (the paper walks
// through exactly this trace for its running example).
type Decision struct {
	Index int    // 1-based position in the coloring order
	Var   string // variable colored
	SD    int    // SD(v)

	NewRegister bool   // no candidate existed (or all forced a CBILBO within budget)
	Chosen      int    // register index chosen (0-based; -1 with NewRegister)
	DeltaSD     int    // ΔSD of the chosen register
	Candidates  []int  // non-conflicting register indices
	Diverted    bool   // a Case 1/2 override changed the primary choice
	Lemma2Skips int    // candidates rejected for forcing a CBILBO
	Note        string // human-readable summary
}

func (d Decision) String() string { return d.Note }

// BindTraced runs the paper's binder and records a Decision per
// variable. The binding is identical to Bind's.
func BindTraced(g *dfg.Graph, mb *modassign.Binding, opts Options) (*Binding, []Decision, error) {
	var trace []Decision
	b, err := bindInternal(g, mb, opts, &trace)
	return b, trace, err
}

// describe builds the Note text for a decision. chosenVars is the
// content of the chosen register before v joins it (nil for a fresh
// register).
func describe(d *Decision, chosenVars []string) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (SD=%d): ", d.Var, d.SD)
	if d.NewRegister {
		if len(d.Candidates) == 0 {
			fmt.Fprintf(&sb, "conflicts with every register -> new register R%d", d.Chosen+1)
		} else {
			fmt.Fprintf(&sb, "every candidate would force a CBILBO (Lemma 2) -> new register R%d", d.Chosen+1)
		}
		d.Note = sb.String()
		return
	}
	cands := make([]string, len(d.Candidates))
	for i, c := range d.Candidates {
		cands[i] = fmt.Sprintf("R%d", c+1)
	}
	sort.Strings(cands)
	fmt.Fprintf(&sb, "-> R%d {%s} (dSD=%+d; candidates %s",
		d.Chosen+1, strings.Join(chosenVars, ","), d.DeltaSD, strings.Join(cands, ","))
	if d.Diverted {
		sb.WriteString("; Case 1/2 diversion")
	}
	if d.Lemma2Skips > 0 {
		fmt.Fprintf(&sb, "; %d candidate(s) rejected by Lemma 2", d.Lemma2Skips)
	}
	sb.WriteString(")")
	d.Note = sb.String()
}
