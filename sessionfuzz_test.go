package bistpath

import (
	"context"
	"testing"
)

// applyScriptEdit decodes one two-byte instruction into a Session edit
// and mirrors it on a plain graph + module map. Edits are chosen so
// decoding can never fail structurally — every byte pair maps to some
// valid mutator call (validity of the edited *design* is the fuzz
// property, checked by the differential comparison).
func applyScriptEdit(sel, arg byte, ss *Session, mirror *DFG, mirrorMods map[string]string) {
	ops := mirror.g.Ops()
	if len(ops) == 0 {
		return
	}
	op := ops[int(arg)%len(ops)]
	switch sel % 4 {
	case 0, 1: // reschedule, the common incremental edit
		step := 1 + (int(sel)/4)%(mirror.g.NumSteps()+1)
		if err := ss.SetStep(op.Name, step); err != nil {
			panic(err)
		}
		mirror.g.Op(op.Name).Step = step
	case 2: // toggle a port mark on a primary input
		var inputs []string
		for _, v := range mirror.g.Vars() {
			if v.IsInput {
				inputs = append(inputs, v.Name)
			}
		}
		if len(inputs) == 0 {
			return
		}
		name := inputs[int(arg)%len(inputs)]
		port := !mirror.g.Var(name).IsPort
		if err := ss.RetimePort(name, port); err != nil {
			panic(err)
		}
		mirror.g.Var(name).IsPort = port
	case 3: // remap an op to another module of the explicit map
		var pool []string
		seen := map[string]bool{}
		for _, m := range mirrorMods {
			if !seen[m] {
				seen[m] = true
				pool = append(pool, m)
			}
		}
		if len(pool) == 0 {
			return
		}
		// Deterministic pool order: module names from the map are
		// iteration-order dependent, so index into a sorted view.
		for i := 1; i < len(pool); i++ {
			for j := i; j > 0 && pool[j] < pool[j-1]; j-- {
				pool[j], pool[j-1] = pool[j-1], pool[j]
			}
		}
		target := pool[(int(sel)/4)%len(pool)]
		if err := ss.RemapModule(op.Name, target); err != nil {
			panic(err)
		}
		mirrorMods[op.Name] = target
	}
}

// FuzzSessionResynthesize is the tentpole's differential fuzz target: a
// random base design plus a fuzz-chosen edit script, with the session's
// incremental Resynthesize compared against a from-scratch synthesis of
// an identically edited mirror after every few edits. Any divergence —
// in synthesizability, ReportText, the stats-stripped JSON or the
// netlist with its control program — is a finding, as is any panic in
// the reuse machinery.
func FuzzSessionResynthesize(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(1), []byte{0, 0})
	f.Add(int64(7), []byte{0, 1, 4, 1})               // reschedule one op twice (undo shape)
	f.Add(int64(13), []byte{2, 0, 2, 0})              // port-mark toggle and back
	f.Add(int64(42), []byte{3, 2, 0, 5, 2, 1})        // remap + reschedule + port mark
	f.Add(int64(99), []byte{8, 3, 12, 3, 1, 0, 7, 2}) // longer mixed script
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		d, mods, err := RandomDesign(seed)
		if err != nil {
			t.Fatalf("seed %d: design generation failed: %v", seed, err)
		}
		s := New(DefaultConfig())
		defer s.Close()
		ss, err := s.NewSession(d, mods)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		defer ss.Close()
		mirror := &DFG{g: d.g.Clone()}
		mirrorMods := make(map[string]string, len(mods))
		for k, v := range mods {
			mirrorMods[k] = v
		}

		check := func(edits int) {
			got, errGot := ss.Resynthesize(context.Background())
			want, errWant := mirror.SynthesizeCtx(context.Background(), mirrorMods, DefaultConfig())
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("seed %d after %d edits: incremental err %v, from-scratch err %v\ndesign:\n%s",
					seed, edits, errGot, errWant, mirror.Text())
			}
			if errGot != nil {
				return // both rejected the edited design
			}
			if g, w := got.ReportText(), want.ReportText(); g != w {
				t.Fatalf("seed %d after %d edits (reused %v): ReportText diverges\n--- incremental ---\n%s\n--- from scratch ---\n%s",
					seed, edits, got.Stats.ReusedPhases, g, w)
			}
			if g, w := stripStatsJSON(t, got), stripStatsJSON(t, want); g != w {
				t.Fatalf("seed %d after %d edits (reused %v): JSON diverges\n--- incremental ---\n%s\n--- from scratch ---\n%s",
					seed, edits, got.Stats.ReusedPhases, g, w)
			}
			if g, w := got.NetlistText(), want.NetlistText(); g != w {
				t.Fatalf("seed %d after %d edits (reused %v): NetlistText diverges\n--- incremental ---\n%s\n--- from scratch ---\n%s",
					seed, edits, got.Stats.ReusedPhases, g, w)
			}
		}

		check(0) // the cold base run
		edits := 0
		for i := 0; i+1 < len(script); i += 2 {
			applyScriptEdit(script[i], script[i+1], ss, mirror, mirrorMods)
			edits++
			// Resynthesize mid-script every other edit (exercises stacked
			// deltas) and always after the last one.
			if edits%2 == 0 || i+3 >= len(script) {
				check(edits)
			}
		}
	})
}
