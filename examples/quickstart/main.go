// Quickstart: describe a small behavior, schedule it, synthesize a
// BIST-ready data path, and verify it against the behavioral model.
package main

import (
	"context"
	"fmt"
	"log"

	"bistpath"
)

func main() {
	// result = (a+b) * (c+d), diff = (a+b) - c
	d := bistpath.NewDFG("quickstart")
	check(d.AddInput("a", "b", "c", "d"))
	check(d.AddOp("sum1", "+", 0, "s1", "a", "b"))
	check(d.AddOp("sum2", "+", 0, "s2", "c", "d"))
	check(d.AddOp("prod", "*", 0, "result", "s1", "s2"))
	check(d.AddOp("diff", "-", 0, "delta", "s1", "c"))
	check(d.MarkOutput("result", "delta"))

	// Schedule with one adder, one multiplier, one subtractor.
	check(d.AutoSchedule(map[string]int{"+": 1, "*": 1, "-": 1}))
	fmt.Printf("scheduled %q into %d control steps\n\n", d.Name(), d.NumSteps())

	// Synthesize with the paper's BIST-aware allocator.
	res, err := d.SynthesizeCtx(context.Background(), nil, bistpath.DefaultConfig())
	check(err)

	fmt.Printf("registers: %d, muxes: %d\n", res.NumRegisters(), res.MuxCount)
	fmt.Printf("area: %d gates functional, %d with BIST (%.2f%% overhead)\n",
		res.BaseArea, res.BISTArea, res.OverheadPct)
	fmt.Printf("test resources: %s in %d session(s)\n\n", res.StyleSummary(), len(res.Sessions))
	fmt.Print(res.NetlistText())

	// The bound data path computes the same function as the behavior.
	out, err := res.Simulate(map[string]uint64{"a": 3, "b": 4, "c": 5, "d": 6})
	check(err)
	fmt.Printf("\nsimulation: result=%d (want 77), delta=%d (want 2)\n", out["result"], out["delta"])
	check(res.SelfCheck(100, 1))
	fmt.Println("self-check against the DFG passed on 100 random vectors")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
