package regassign

import (
	"testing"

	"bistpath/internal/benchdata"
)

// Fig. 3 guard: the binder's sharing-degree check (SD ranking, ΔSD
// candidate scoring and the Case 1/2 diversions — the machinery behind
// the paper's Fig. 3 shared-head/tail discovery) runs over the scratch's
// bitset graphs, so a full Bind with a warm Scratch must stay within a
// small pinned allocation budget: what remains is the returned Binding
// (register sets, Validate bookkeeping), never the per-candidate
// scoring.
func TestBindScratchSteadyStateAllocs(t *testing.T) {
	b := benchdata.Ex1()
	mb, err := b.Modules()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Scratch = NewScratch()
	warm, err := Bind(b.Graph, mb, opts)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		rb, err := Bind(b.Graph, mb, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rb.NumRegisters() != warm.NumRegisters() {
			t.Fatalf("scratch reuse changed the binding: %d registers, want %d",
				rb.NumRegisters(), warm.NumRegisters())
		}
	})
	const budget = 40
	if avg > budget {
		t.Fatalf("Bind with warm Scratch allocates %.1f allocs/run, want <= %d", avg, budget)
	}
}

// Traditional runs on the binder's indexed state, so it too stays
// within a small pinned budget: the state's rows, the lifetimes map and
// the returned Binding.
func TestTraditionalAllocs(t *testing.T) {
	g := benchdata.Paulin().Graph
	avg := testing.AllocsPerRun(100, func() {
		if _, err := Traditional(g); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 100
	if avg > budget {
		t.Fatalf("Traditional allocates %.1f allocs/run, want <= %d", avg, budget)
	}
}

// Scratch reuse must be invisible in the result: bindings produced with
// a shared warm Scratch are identical to fresh-state bindings.
func TestBindScratchDeterminism(t *testing.T) {
	opts := DefaultOptions()
	opts.Scratch = NewScratch()
	for _, b := range benchdata.All() {
		mb, err := b.Modules()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Bind(b.Graph, mb, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		reused, err := Bind(b.Graph, mb, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reused.String(), fresh.String(); got != want {
			t.Fatalf("%s: scratch binding diverged:\ngot  %s\nwant %s", b.Name, got, want)
		}
	}
}
