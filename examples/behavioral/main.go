// Behavioral entry: write the differential-equation solver the way the
// paper writes it, compile it to a DFG, schedule with force-directed
// scheduling, synthesize the BIST-aware data path, and emit Verilog.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"bistpath"
)

func main() {
	d, err := bistpath.Compile("hal", `
		x1 = x + dx
		u1 = u - 3*x*u*dx - 3*y*dx
		y1 = y + u*dx
		c  = x1 < a
	`, false) // no CSE: the classic benchmark recomputes u*dx
	check(err)

	// Latency-constrained force-directed scheduling: five steps suffice
	// for two multipliers.
	check(d.AutoScheduleForce(5))
	fmt.Printf("compiled %q: %d control steps\n", d.Name(), d.NumSteps())

	res, err := d.SynthesizeCtx(context.Background(), nil, bistpath.DefaultConfig())
	check(err)
	fmt.Printf("registers=%d  BIST=%s  overhead=%.2f%%\n",
		res.NumRegisters(), res.StyleSummary(), res.OverheadPct)
	check(res.SelfCheck(50, 99))

	// Compare against the same source with CSE enabled: sharing the
	// repeated u*dx saves a multiplication.
	dc, err := bistpath.Compile("hal_cse", `
		x1 = x + dx
		u1 = u - 3*x*(u*dx) - 3*y*dx
		y1 = y + u*dx
		c  = x1 < a
	`, true)
	check(err)
	check(dc.AutoScheduleForce(5))
	resc, err := dc.SynthesizeCtx(context.Background(), nil, bistpath.DefaultConfig())
	check(err)
	fmt.Printf("with CSE: base area %d vs %d (saved %d gate equivalents)\n",
		resc.BaseArea, res.BaseArea, res.BaseArea-resc.BaseArea)

	// The design leaves the toolchain as Verilog.
	v := res.VerilogRTL()
	fmt.Printf("\nemitted RTL: %d lines, module %s\n",
		strings.Count(v, "\n"), "dp_hal")
	fmt.Print(firstLines(v, 8))
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return "  " + strings.Join(lines, "\n  ") + "\n"
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
