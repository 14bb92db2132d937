// Selftest: walk through the BIST methodology on the ex2 benchmark —
// the chosen embeddings (which register generates patterns for which
// module, which one compacts signatures), the test session schedule, and
// a behavioral fault-injection run proving the plan detects faults.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"bistpath"
)

func main() {
	d, mods, err := bistpath.Benchmark("ex2")
	check(err)
	res, err := d.SynthesizeCtx(context.Background(), mods, bistpath.DefaultConfig())
	check(err)

	fmt.Println("ex2 (1 divider, 2 multipliers, 2 adders, 1 AND) — BIST plan")
	fmt.Printf("test resources: %s\n\n", res.StyleSummary())

	fmt.Println("register roles:")
	for _, r := range res.Registers {
		fmt.Printf("  %-4s %-7s sharing degree %d  holds {%s}\n",
			r.Name, r.Style, r.SharingDegree, strings.Join(r.Vars, ","))
	}

	fmt.Println("\nBIST embeddings (pattern sources -> module -> signature register):")
	for _, m := range res.Modules {
		note := ""
		if m.ForcedCBILBO {
			note = "   (every embedding of this module needs a CBILBO — Lemma 2)"
		}
		fmt.Printf("  %s%s\n", m.Embedding, note)
	}

	fmt.Printf("\ntest sessions (%d):\n", len(res.Sessions))
	for i, s := range res.Sessions {
		fmt.Printf("  session %d tests %s\n", i+1, strings.Join(s, ", "))
	}

	fmt.Println("\nfault grading with 255 pseudo-random patterns per module:")
	rep, err := res.FaultCoverage(255, 0xC0FFEE)
	check(err)
	for _, mc := range rep.PerModule {
		bar := strings.Repeat("#", int(mc.Pct())/5)
		fmt.Printf("  %-4s %3d/%3d  %-20s %.1f%%\n", mc.Module, mc.Detected, mc.Faults, bar, mc.Pct())
	}
	f, det := rep.Totals()
	fmt.Printf("  overall %d/%d stuck-at faults detected (%.2f%%)\n", det, f, rep.Pct())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
