// Sweep: explore how the BIST-aware allocation scales — across random
// scheduled DFGs of growing size, compare the BIST area overhead of the
// testable and traditional flows (the design-space exploration use case
// motivating the paper's introduction).
package main

import (
	"context"
	"fmt"
	"log"

	"bistpath"
	"bistpath/internal/benchdata"
)

func main() {
	fmt.Println("size sweep: mean BIST overhead, testable vs traditional (20 seeds each)")
	fmt.Printf("%-20s %12s %12s %10s\n", "DFG size", "testable", "traditional", "saved")
	for _, size := range []struct {
		steps, ops, inputs int
	}{
		{3, 2, 3}, {4, 2, 4}, {5, 3, 4}, {6, 3, 5}, {7, 4, 5},
	} {
		var test, trad float64
		n := 0
		for seed := int64(0); seed < 20; seed++ {
			g, err := benchdata.Random(benchdata.RandomConfig{
				Seed: seed, Steps: size.steps, OpsPerStep: size.ops, Inputs: size.inputs,
			})
			check(err)
			d, err := bistpath.ParseDFG(g.Text())
			check(err)
			cfg := bistpath.DefaultConfig()
			rt, err := d.SynthesizeCtx(context.Background(), nil, cfg)
			check(err)
			cfg.Mode = bistpath.TraditionalHLS
			rr, err := d.SynthesizeCtx(context.Background(), nil, cfg)
			check(err)
			test += rt.OverheadPct
			trad += rr.OverheadPct
			n++
		}
		test /= float64(n)
		trad /= float64(n)
		fmt.Printf("%2d steps ×%d ops %-4s %11.2f%% %11.2f%% %9.1f%%\n",
			size.steps, size.ops, fmt.Sprintf("(%din)", size.inputs),
			test, trad, (trad-test)/trad*100)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
