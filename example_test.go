package bistpath_test

import (
	"context"
	"fmt"

	"bistpath"
)

// Example synthesizes the paper's running example (Fig. 2) with the
// BIST-aware allocator and prints the headline metrics.
func Example() {
	d, mods, _ := bistpath.Benchmark("ex1")
	res, err := d.SynthesizeCtx(context.Background(), mods, bistpath.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("registers: %d\n", res.NumRegisters())
	fmt.Printf("BIST resources: %s\n", res.StyleSummary())
	out, _ := res.Simulate(map[string]uint64{"a": 1, "b": 2, "e": 3, "g": 4})
	fmt.Printf("h = %d\n", out["h"])
	// Output:
	// registers: 3
	// BIST resources: 2 TPG, 1 SA
	// h = 60
}

// ExampleCompile builds a design from a behavioral description.
func ExampleCompile() {
	d, err := bistpath.Compile("mac", "acc = a*b + c\n", true)
	if err != nil {
		panic(err)
	}
	if err := d.AutoSchedule(nil); err != nil {
		panic(err)
	}
	res, err := d.SynthesizeCtx(context.Background(), nil, bistpath.DefaultConfig())
	if err != nil {
		panic(err)
	}
	out, _ := res.Simulate(map[string]uint64{"a": 6, "b": 7, "c": 8})
	fmt.Println(out["acc"])
	// Output:
	// 50
}

// ExampleResult_FaultCoverage grades the synthesized BIST plan by fault
// injection.
func ExampleResult_FaultCoverage() {
	d, mods, _ := bistpath.Benchmark("ex1")
	res, _ := d.SynthesizeCtx(context.Background(), mods, bistpath.DefaultConfig())
	rep, err := res.FaultCoverage(250, 1)
	if err != nil {
		panic(err)
	}
	faults, _ := rep.Totals()
	fmt.Printf("%d faults graded across %d modules\n", faults, len(rep.PerModule))
	// Output:
	// 96 faults graded across 2 modules
}
