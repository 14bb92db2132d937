package bistpath

import (
	"context"
	"math"
	"testing"
)

// The measured Table I–III quantities of the reproduction, pinned
// exactly. Unlike the golden JSON files (which track the full Result
// serialization), these tests pin the handful of numbers the paper's
// tables are built from, so a regression in any allocation heuristic
// fails with the specific quantity that moved rather than a JSON diff.
var tableNumbers = map[string]struct {
	regs               int
	tradOvh, testOvh   float64
	tradStyle, teStyle string
}{
	"ex1":    {3, 18.80, 10.26, "1 CBILBO, 1 TPG", "2 TPG, 1 SA"},
	"ex2":    {5, 16.08, 8.28, "2 CBILBO, 1 TPG/SA, 2 TPG", "3 TPG/SA, 2 TPG"},
	"tseng1": {5, 18.68, 10.12, "2 CBILBO, 3 TPG", "3 TPG/SA, 2 TPG"},
	"tseng2": {5, 13.98, 11.83, "1 CBILBO, 2 TPG", "3 TPG/SA, 1 TPG"},
	"paulin": {4, 8.84, 3.17, "1 CBILBO, 1 SA", "1 TPG, 1 SA"},
}

func synthMode(t *testing.T, name string, traditional bool) *Result {
	t.Helper()
	d, mods, err := Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if traditional {
		cfg.Mode = TraditionalHLS
	}
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Table I: register counts and BIST area overhead for both flows, and
// the paper's headline ordering (testable flow always cheaper).
func TestTableIPinned(t *testing.T) {
	for name, want := range tableNumbers {
		test := synthMode(t, name, false)
		trad := synthMode(t, name, true)
		if got := test.NumRegisters(); got != want.regs {
			t.Errorf("%s: %d registers, want %d", name, got, want.regs)
		}
		if got := trad.NumRegisters(); got != want.regs {
			t.Errorf("%s traditional: %d registers, want %d (both flows bind the minimum)", name, got, want.regs)
		}
		if math.Abs(trad.OverheadPct-want.tradOvh) > 0.005 {
			t.Errorf("%s: traditional overhead %.2f%%, want %.2f%%", name, trad.OverheadPct, want.tradOvh)
		}
		if math.Abs(test.OverheadPct-want.testOvh) > 0.005 {
			t.Errorf("%s: testable overhead %.2f%%, want %.2f%%", name, test.OverheadPct, want.testOvh)
		}
		if test.OverheadPct >= trad.OverheadPct {
			t.Errorf("%s: testable overhead %.2f%% not below traditional %.2f%%", name, test.OverheadPct, trad.OverheadPct)
		}
	}
}

// Table II: the minimal-area BIST solutions (style mix) of both flows.
func TestTableIIPinned(t *testing.T) {
	for name, want := range tableNumbers {
		if got := synthMode(t, name, true).StyleSummary(); got != want.tradStyle {
			t.Errorf("%s traditional: styles %q, want %q", name, got, want.tradStyle)
		}
		if got := synthMode(t, name, false).StyleSummary(); got != want.teStyle {
			t.Errorf("%s testable: styles %q, want %q", name, got, want.teStyle)
		}
	}
}

// Table III: the Paulin design comparison row for this system —
// register count and style census, the quantities compared against
// RALLOC and SYNTEST.
func TestTableIIIPinned(t *testing.T) {
	res := synthMode(t, "paulin", false)
	if got := res.NumRegisters(); got != 4 {
		t.Errorf("paulin: %d registers, want 4", got)
	}
	want := map[string]int{"TPG": 1, "SA": 1, "TPG/SA": 0, "CBILBO": 0}
	for style, n := range want {
		if got := res.StyleCounts[style]; got != n {
			t.Errorf("paulin: %d %s registers, want %d", got, style, n)
		}
	}
}
