package bistpath

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bistpath/internal/benchdata"
)

// TestLargeDesignSoak is the nightly endurance run: it keeps generating
// seeded preset designs (m/l/xl round-robin), synthesizes each under the
// default config, and pushes every plan, budget-exhausted searches
// included, through the full verification harness until the
// BISTPATH_SOAK duration expires. Any violation is written to
// BISTPATH_SOAK_OUT as a replayable (preset, seed, DFG text) record,
// which the nightly workflow uploads as an artifact.
//
// The test is skipped unless BISTPATH_SOAK is set — it exists for the
// scheduled workflow, not the per-PR pipeline.
func TestLargeDesignSoak(t *testing.T) {
	spec := os.Getenv("BISTPATH_SOAK")
	if spec == "" {
		t.Skip("set BISTPATH_SOAK to a duration (e.g. 10m) to run the large-design soak")
	}
	dur, err := time.ParseDuration(spec)
	if err != nil {
		t.Fatalf("bad BISTPATH_SOAK %q: %v", spec, err)
	}
	outDir := os.Getenv("BISTPATH_SOAK_OUT")

	record := func(preset string, seed int64, detail string) {
		if outDir == "" {
			return
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			t.Errorf("soak: mkdir %s: %v", outDir, err)
			return
		}
		name := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.txt", preset, seed))
		if err := os.WriteFile(name, []byte(detail), 0o644); err != nil {
			t.Errorf("soak: write %s: %v", name, err)
		}
	}

	presets := []string{"m", "l", "xl"}
	deadline := time.Now().Add(dur)
	verified, skipped := 0, 0
	for seed := int64(1); time.Now().Before(deadline); seed++ {
		preset := presets[int(seed)%len(presets)]
		cfg, ok := benchdata.Preset(preset, seed)
		if !ok {
			t.Fatalf("unknown preset %q", preset)
		}
		g, mb, err := benchdata.RandomWithModules(cfg)
		if err != nil {
			skipped++ // degenerate shape for this seed; the next one differs
			continue
		}
		mods := make(map[string]string)
		for _, m := range mb.Modules {
			for _, op := range m.Ops {
				mods[op] = m.Name
			}
		}
		d := &DFG{g: g}
		res, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
		if err != nil {
			if errors.Is(err, ErrNoEmbedding) {
				skipped++ // a bounded fraction of random designs has no I-path
				continue
			}
			record(preset, seed, fmt.Sprintf("preset %s seed %d: synthesize: %v\n\n%s", preset, seed, err, g.Text()))
			t.Errorf("preset %s seed %d: synthesize: %v", preset, seed, err)
			continue
		}
		// Full harness minus the binding oracle (its enumeration is not
		// meaningful at these sizes): invariants, functional cross-check,
		// and the re-run of the search, which must return the same plan.
		rep, err := res.Verify(context.Background(), VerifyOptions{BindingLimit: -1})
		if err != nil {
			t.Fatalf("preset %s seed %d: verify: %v", preset, seed, err)
		}
		if !rep.OK() {
			record(preset, seed, fmt.Sprintf("preset %s seed %d\n\n%s\n%s", preset, seed, rep.Summary(), g.Text()))
			t.Errorf("preset %s seed %d:\n%s", preset, seed, rep.Summary())
		}
		verified++
	}
	if verified == 0 {
		t.Fatalf("soak verified no designs in %s (%d skipped)", dur, skipped)
	}
	t.Logf("soak: %d plans verified, %d seeds skipped", verified, skipped)
}
