package baselines

import (
	"testing"

	"bistpath/internal/area"
	"bistpath/internal/benchdata"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

func TestRALLOCOnPaulin(t *testing.T) {
	b := benchdata.Paulin()
	mb, err := b.Modules()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RALLOC(b.Graph, mb)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Binding.Validate(b.Graph); err != nil {
		t.Fatal(err)
	}
	ours, err := regassign.Bind(b.Graph, mb, regassign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Table III shape: RALLOC spends more registers than our binder and
	// ends BILBO-heavy with at least one CBILBO.
	if r.Binding.NumRegisters() <= ours.NumRegisters() {
		t.Errorf("RALLOC used %d registers, ours %d (paper: 5 vs 4)",
			r.Binding.NumRegisters(), ours.NumRegisters())
	}
	counts := r.StyleCount()
	if counts[area.CBILBO] < 1 {
		t.Errorf("RALLOC should keep >=1 CBILBO (Paulin has intra-module chains): %v", counts)
	}
	if counts[area.BILBO] < counts[area.TPG]+counts[area.SA] {
		t.Errorf("RALLOC should be BILBO-dominated: %v", counts)
	}
}

func TestSYNTESTOnPaulin(t *testing.T) {
	b := benchdata.Paulin()
	smb, err := modassign.FromMap(b.Graph, PaulinSyntestModules())
	if err != nil {
		t.Fatal(err)
	}
	r, err := SYNTEST(b.Graph, smb)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Binding.Validate(b.Graph); err != nil {
		t.Fatal(err)
	}
	// Table III shape: SYNTEST avoids CBILBOs entirely.
	if r.StyleCount()[area.CBILBO] != 0 {
		t.Errorf("SYNTEST produced CBILBOs: %v", r.StyleCount())
	}
}

func TestPaulinSyntestModulesValid(t *testing.T) {
	b := benchdata.Paulin()
	mb, err := modassign.FromMap(b.Graph, PaulinSyntestModules())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(mb.Modules); got != 3 {
		t.Errorf("SYNTEST allocation has %d modules, want 3 ALUs", got)
	}
	// The template requires no intra-module chaining: no variable may be
	// both an input and an output of the same ALU.
	sh := regassign.NewSharing(b.Graph, mb)
	for j, m := range sh.Modules {
		for _, v := range b.Graph.AllocVars() {
			if in, out := sh.Flags([]string{v}, j); in && out {
				t.Errorf("variable %s chains within %s (template violated)", v, m)
			}
		}
	}
}

func TestBaselinesOnAllBenchmarks(t *testing.T) {
	for _, b := range benchdata.All() {
		mb, err := b.Modules()
		if err != nil {
			t.Fatal(err)
		}
		r, err := RALLOC(b.Graph, mb)
		if err != nil {
			t.Fatalf("%s RALLOC: %v", b.Name, err)
		}
		if err := r.Binding.Validate(b.Graph); err != nil {
			t.Errorf("%s RALLOC: %v", b.Name, err)
		}
		s, err := SYNTEST(b.Graph, mb)
		if err != nil {
			t.Fatalf("%s SYNTEST: %v", b.Name, err)
		}
		if err := s.Binding.Validate(b.Graph); err != nil {
			t.Errorf("%s SYNTEST: %v", b.Name, err)
		}
		// Styles must only name real registers.
		for _, res := range []*Result{r, s} {
			for reg := range res.Styles {
				if res.Binding.Register(reg) == nil {
					t.Errorf("%s %s: style for unknown register %s", b.Name, res.System, reg)
				}
			}
		}
	}
}
