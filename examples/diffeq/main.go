// The HAL differential-equation solver (the Paulin benchmark): the data
// path synthesized by the BIST-aware allocator is iterated as the Euler
// integrator it implements, and compared against the traditional
// allocation.
//
// The solver integrates y” + 3xy' + 3y = 0:
//
//	repeat { x1 = x+dx; u1 = u - 3*x*u*dx - 3*y*dx; y1 = y + u*dx }
package main

import (
	"context"
	"fmt"
	"log"

	"bistpath"
)

func main() {
	d, mods, err := bistpath.Benchmark("paulin")
	check(err)

	cfg := bistpath.DefaultConfig()
	cfg.Width = 16
	testable, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	check(err)
	cfg.Mode = bistpath.TraditionalHLS
	traditional, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	check(err)

	fmt.Println("differential-equation solver, 16-bit data path")
	for _, r := range []*bistpath.Result{traditional, testable} {
		fmt.Printf("  %-12s %d regs, %2d muxes, BIST %s, overhead %5.2f%%\n",
			r.Mode.String()+":", r.NumRegisters(), r.MuxCount, r.StyleSummary(), r.OverheadPct)
	}
	fmt.Printf("  reduction: %.1f%% of the BIST overhead removed by the testable allocation\n\n",
		(traditional.OverheadPct-testable.OverheadPct)/traditional.OverheadPct*100)

	// Drive the synthesized data path as the Euler integrator it is:
	// feed x1,u1,y1 back into x,u,y each iteration. Fixed-point with
	// dx = 1 in units of 1/8 would need scaling; integers keep it exact
	// for a few steps instead.
	x, u, y := uint64(0), uint64(20), uint64(1)
	const dx = 1
	fmt.Println("iterating the bound data path (x' u' y' per step):")
	for step := 0; step < 4; step++ {
		out, err := testable.Simulate(map[string]uint64{
			"x": x, "u": u, "y": y, "dx": dx, "a": 5, "k3": 3,
		})
		check(err)
		fmt.Printf("  step %d: x=%2d u=%6d y=%6d  (x1<a: c=%d)\n", step, out["x1"], out["u1"], out["y1"], out["c"])
		x, u, y = out["x1"], out["u1"], out["y1"]
	}

	// The BIST plan actually tests the hardware: grade every port
	// stuck-at fault under 255 pseudo-random patterns.
	rep, err := testable.FaultCoverage(255, 42)
	check(err)
	faults, detected := rep.Totals()
	fmt.Printf("\nBIST fault grading: %d/%d stuck-at faults detected (%.2f%%)\n",
		detected, faults, rep.Pct())
	for _, mc := range rep.PerModule {
		fmt.Printf("  %-4s %3d/%3d (%.1f%%)\n", mc.Module, mc.Detected, mc.Faults, mc.Pct())
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
