package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"bistpath"
	"bistpath/internal/bist"
	"bistpath/internal/dfg"
)

// TestMain runs the tests from the repository root, where the benchmark
// runs and testdata lives.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestInjectedWrongAnswerCountsAsFailure shows that each library check
// turns a wrong answer into a failed op: a repeat whose document differs
// from the first output of its key, and a first output that contradicts
// the BIST area testdata pins.
func TestInjectedWrongAnswerCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	paper, err := paperDesigns()
	if err != nil {
		t.Fatal(err)
	}
	ex1 := paper[0]
	golden, err := goldenBISTArea(ex1.name)
	if err != nil {
		t.Fatal(err)
	}
	item := libItem{key: "ex1/testable", class: classPaper, design: ex1, cfg: bistpath.DefaultConfig(), golden: golden}
	r, err := newLibRunner(ctx, []libItem{item}, []func() int{func() int { return 0 }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	st := &clientState{}
	for i := 0; i < 3; i++ {
		r.do(ctx, 0, st, false)
	}
	chk, err := r.check(ctx)
	if err != nil || chk.failedOps != 0 || len(chk.problems) != 0 {
		t.Fatalf("clean run: failed=%d problems=%v err=%v", chk.failedOps, chk.problems, err)
	}

	res := r.outs.entries[item.key].first
	doc, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wrong := bytes.Replace(doc, []byte(fmt.Sprintf(`"bist_area": %d`, golden)), []byte(`"bist_area": 1`), 1)
	if bytes.Equal(wrong, doc) {
		t.Fatal("injection left the document unchanged")
	}
	if r.outs.record(item.key, res, wrong) {
		t.Error("a repeat with a wrong BIST area matched the first output")
	}
	slower := bytes.Replace(doc, []byte(`"total_ns": `), []byte(`"total_ns": 9`), 1)
	if !r.outs.record(item.key, res, slower) {
		t.Error("a repeat differing only in its stats failed the check")
	}

	// A pinned area the run does not reproduce fails every op of the key.
	r.items[0].golden = golden + 8
	chk, err = r.check(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if chk.failedOps != 4 || len(chk.problems) != 2 {
		t.Errorf("wrong golden: failed=%d problems=%v, want 4 failed ops and 2 problems", chk.failedOps, chk.problems)
	}
}

// TestServiceWrongAnswerCountsAsFailure runs a few service-mix ops and
// then corrupts what one served design looked like: the comparison with
// the cold library reference must count its ops failed.
func TestServiceWrongAnswerCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	run, err := setupServiceMix(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := run.(*svcRunner)
	defer r.close()
	st := &clientState{}
	for i := 0; i < 400; i++ {
		r.do(ctx, 0, st, false)
	}
	if len(st.errs) > 0 {
		t.Fatalf("ops failed: %v", st.errs)
	}
	chk, err := r.check(ctx)
	if err != nil || chk.failedOps != 0 || len(chk.problems) != 0 {
		t.Fatalf("clean run: failed=%d problems=%v err=%v", chk.failedOps, chk.problems, err)
	}
	if st.cnt[classPatch].patches < 40 {
		t.Errorf("400 ops drew %d PATCHes", st.cnt[classPatch].patches)
	}
	var victim *outEntry
	for _, e := range r.outs.entries {
		victim = e
		break
	}
	victim.hash[0] ^= 1
	chk, err = r.check(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if chk.failedOps != victim.ops || len(chk.problems) != 1 {
		t.Errorf("corrupted output: failed=%d problems=%v, want %d failed ops and 1 problem", chk.failedOps, chk.problems, victim.ops)
	}
}

// TestStepMovesKeepDesignsValid applies every move stepMoves offers on a
// sample of service-mix designs and requires the edited design to pass
// validation.
func TestStepMovesKeepDesignsValid(t *testing.T) {
	for seed := int64(serviceFirst); seed < serviceFirst+50; seed++ {
		d, err := randomDesign(seed)
		if err != nil {
			t.Fatal(err)
		}
		gen := &mixGen{rng: rand.New(rand.NewSource(seed)), last: &lineage{text: d.text, mods: d.mods}}
		if _, _, err := gen.patch(); err != nil {
			t.Fatal(err)
		}
		// The edited text is the edited graph, in the submitted op order.
		g, err := dfg.ParseString(gen.last.text)
		if err != nil {
			t.Fatal(err)
		}
		if g.Text() != gen.last.g.Text() || g.Ops()[0].Name != gen.last.g.Ops()[0].Name {
			t.Errorf("seed %d: edited text\n%s\ndoes not match the edited graph\n%s", seed, gen.last.text, gen.last.g.Text())
		}
		for _, mv := range stepMoves(gen.last.g, d.mods) {
			g := gen.last.g.Clone()
			g.Op(mv.op).Step = mv.step
			if err := g.Validate(); err != nil {
				t.Errorf("seed %d: moving %s to step %d: %v", seed, mv.op, mv.step, err)
			}
		}
	}
}

// TestExcludedSeeds regenerates and synthesizes every candidate seed and
// requires the failing ones to be exactly those excludedRandom lists; the
// fixed dfgen instances must all succeed.
func TestExcludedSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes every candidate design")
	}
	ctx := context.Background()
	synth := bistpath.New(bistpath.DefaultConfig())
	defer synth.Close()
	fails := func(d design, err error, cfgs ...bistpath.Config) bool {
		if err != nil {
			return true
		}
		for _, cfg := range cfgs {
			br := synth.NewPool(1).Do(ctx, bistpath.Job{DFG: d.d, Modules: d.mods, Config: cfg})
			if errors.Is(br.Err, bist.ErrNoEmbedding) {
				return true
			}
			if br.Err != nil {
				t.Errorf("%s: %v", d.name, br.Err)
			}
		}
		return false
	}
	scan := func(seeds []int64, skip map[int64]bool, gen func(int64) (design, error), cfgs ...bistpath.Config) {
		var mu sync.Mutex
		var got []int64
		var wg sync.WaitGroup
		workers := runtime.NumCPU()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(seeds); i += workers {
					if d, err := gen(seeds[i]); fails(d, err, cfgs...) {
						mu.Lock()
						got = append(got, seeds[i])
						mu.Unlock()
					}
				}
			}(w)
		}
		wg.Wait()
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		var want []int64
		for _, s := range seeds {
			if skip[s] {
				want = append(want, s)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("seeds %d..%d: failing %v, excluded %v", seeds[0], seeds[len(seeds)-1], got, want)
		}
	}
	span := func(first int64, count int) []int64 {
		out := make([]int64, count)
		for i := range out {
			out[i] = first + int64(i)
		}
		return out
	}
	def := bistpath.DefaultConfig()
	auto := def
	auto.Search = bistpath.SearchAuto
	preset := func(p string) func(int64) (design, error) {
		return func(s int64) (design, error) { return presetDesign(p, s) }
	}
	scan(lSeeds, nil, preset("l"), def, auto)
	scan(xlSeeds, nil, preset("xl"), def)
	scan(span(randomFirst, randomCount), excludedRandom, randomDesign, def)
	scan(span(serviceFirst, serviceCount), excludedRandom, randomDesign, def)
}
