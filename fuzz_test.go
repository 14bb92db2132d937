package bistpath

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// randomProgram emits a random single-assignment expression program: a
// pool of inputs, a few statements reusing earlier results, constants
// sprinkled in.
func randomProgram(rng *rand.Rand) string {
	inputs := []string{"a", "b", "c", "d", "e"}
	avail := append([]string(nil), inputs...)
	ops := []string{"+", "-", "*", "&", "|", "^"}
	var expr func(depth int) string
	expr = func(depth int) string {
		if depth <= 0 || rng.Intn(3) == 0 {
			if rng.Intn(6) == 0 {
				return fmt.Sprint(1 + rng.Intn(7))
			}
			return avail[rng.Intn(len(avail))]
		}
		return "(" + expr(depth-1) + " " + ops[rng.Intn(len(ops))] + " " + expr(depth-1) + ")"
	}
	var sb strings.Builder
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		target := fmt.Sprintf("t%d", i)
		// Guarantee at least one operator on the right-hand side.
		rhs := avail[rng.Intn(len(avail))] + " " + ops[rng.Intn(len(ops))] + " " + expr(2)
		fmt.Fprintf(&sb, "%s = %s\n", target, rhs)
		avail = append(avail, target)
	}
	return sb.String()
}

// TestEndToEndFuzz drives the whole public pipeline on random programs:
// compile (with and without CSE), optimize, balance, schedule under
// random resource limits, synthesize in both modes, and check that the
// RTL-level simulator AND the gate-level netlist agree with direct
// evaluation on random vectors.
func TestEndToEndFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(20260708))
	skips := 0
	for trial := 0; trial < 25; trial++ {
		src := randomProgram(rng)
		d, err := Compile(fmt.Sprintf("fuzz%d", trial), src, rng.Intn(2) == 0)
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		if rng.Intn(2) == 0 {
			if _, err := d.Optimize(); err != nil {
				t.Fatalf("trial %d: optimize: %v\n%s", trial, err, src)
			}
		}
		if rng.Intn(2) == 0 {
			if _, err := d.Balance(); err != nil {
				t.Fatalf("trial %d: balance: %v\n%s", trial, err, src)
			}
		}
		limits := map[string]int{"*": 1 + rng.Intn(2), "+": 1 + rng.Intn(2)}
		if err := d.AutoSchedule(limits); err != nil {
			t.Fatalf("trial %d: schedule: %v\n%s", trial, err, src)
		}
		cfg := DefaultConfig()
		if rng.Intn(2) == 0 {
			cfg.Mode = TraditionalHLS
		}
		res, err := d.SynthesizeCtx(context.Background(), nil, cfg)
		if err != nil {
			// A module can legitimately end up untestable when a binding
			// merges all of its operand variables into one register (no
			// distinct heads). Rare; tolerate a bounded number.
			if strings.Contains(err.Error(), "no BIST embedding") {
				skips++
				if skips > 5 {
					t.Fatalf("too many untestable designs (%d); last: %v\n%s", skips, err, src)
				}
				continue
			}
			t.Fatalf("trial %d: synthesize: %v\n%s", trial, err, src)
		}
		if err := res.SelfCheck(10, int64(trial)); err != nil {
			t.Fatalf("trial %d: RTL self-check: %v\n%s", trial, err, src)
		}
		// Gate level once per trial: DumpVCD runs the gate simulator and
		// returns the outputs; they must match the RTL simulator's.
		in := make(map[string]uint64)
		for _, name := range []string{"a", "b", "c", "d", "e"} {
			in[name] = uint64(rng.Intn(251))
		}
		for k := uint64(1); k <= 7; k++ {
			in[fmt.Sprintf("k%d", k)] = k
		}
		rtl, err := res.Simulate(in)
		if err != nil {
			t.Fatalf("trial %d: simulate: %v", trial, err)
		}
		gate, err := res.DumpVCD(in, io.Discard)
		if err != nil {
			t.Fatalf("trial %d: gate sim: %v", trial, err)
		}
		for o, v := range rtl {
			if gate[o] != v {
				t.Fatalf("trial %d: output %s: gate %d vs RTL %d\n%s", trial, o, gate[o], v, src)
			}
		}
	}
}

// TestFuzzProgramsCompile pins the generator itself: every emitted
// program is parseable and references only declared names.
func TestFuzzProgramsCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		src := randomProgram(rng)
		if _, err := Compile("p", src, true); err != nil {
			t.Fatalf("generator produced invalid program: %v\n%s", err, src)
		}
	}
}
