package bist

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bistpath/internal/area"
	"bistpath/internal/benchdata"
	"bistpath/internal/datapath"
)

// planOf builds a Plan directly from embeddings, deriving styles the
// way the optimizer does, without scheduling (tests call
// ScheduleSessions themselves).
func planOf(embs ...Embedding) *Plan {
	m := make(map[string]Embedding, len(embs))
	for _, e := range embs {
		m[e.Module] = e
	}
	return &Plan{Embeddings: m, Styles: stylesOf(m)}
}

func TestScheduleSessionsEmptyPlan(t *testing.T) {
	p := &Plan{Embeddings: map[string]Embedding{}, Styles: map[string]area.Style{}}
	if s := ScheduleSessions(p); len(s) != 0 {
		t.Fatalf("empty plan scheduled into %d sessions, want 0", len(s))
	}
	p.Sessions = ScheduleSessions(p)
	if len(p.Sessions) != 0 {
		t.Fatalf("%d sessions, want 0", len(p.Sessions))
	}
	if err := p.checkSession(nil); err != nil {
		t.Fatalf("empty session rejected: %v", err)
	}
}

func TestScheduleSessionsSingleModule(t *testing.T) {
	p := planOf(Embedding{Module: "m1", HeadL: "r1", HeadR: "r2", Tail: "r3"})
	s := ScheduleSessions(p)
	if len(s) != 1 || len(s[0]) != 1 || s[0][0] != "m1" {
		t.Fatalf("single-module plan scheduled as %v, want [[m1]]", s)
	}
}

func TestScheduleSessionsAllModulesOneSession(t *testing.T) {
	// Disjoint tails and no head-of-one == tail-of-another: every module
	// fits in the first session. Sharing a TPG head (r1 for m1 and m2)
	// is explicitly fine — both receive the same pseudo-random stream.
	p := planOf(
		Embedding{Module: "m1", HeadL: "r1", HeadR: "r2", Tail: "r3"},
		Embedding{Module: "m2", HeadL: "r1", HeadR: "r4", Tail: "r5"},
		Embedding{Module: "m3", HeadL: "r6", HeadR: "r7", Tail: "r8"},
	)
	s := ScheduleSessions(p)
	want := [][]string{{"m1", "m2", "m3"}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("schedule %v, want %v", s, want)
	}
}

func TestScheduleSessionsSharedTailSplits(t *testing.T) {
	// One signature register cannot compact responses for two modules at
	// once: a shared tail forces separate sessions.
	p := planOf(
		Embedding{Module: "m1", HeadL: "r1", HeadR: "r2", Tail: "r9"},
		Embedding{Module: "m2", HeadL: "r3", HeadR: "r4", Tail: "r9"},
	)
	s := ScheduleSessions(p)
	if len(s) != 2 {
		t.Fatalf("shared-tail modules scheduled into %d sessions, want 2", len(s))
	}
	if !p.sessionConflict("m1", "m2") || !p.sessionConflict("m2", "m1") {
		t.Fatal("sessionConflict not symmetric on a shared tail")
	}
}

func TestScheduleSessionsCrossedHeadTail(t *testing.T) {
	// r2 generates for m2 and compacts for m1. As a plain BILBO it can
	// only do one at a time, so the modules split...
	p := planOf(
		Embedding{Module: "m1", HeadL: "r1", Tail: "r2"},
		Embedding{Module: "m2", HeadL: "r2", Tail: "r3"},
	)
	if got := p.Styles["r2"]; got != area.BILBO {
		t.Fatalf("r2 style %v, want BILBO", got)
	}
	if s := ScheduleSessions(p); len(s) != 2 {
		t.Fatalf("BILBO-crossed modules scheduled into %d sessions, want 2", len(s))
	}

	// ...but when the same register is a CBILBO (head and tail of m1),
	// it generates and compacts concurrently, and one session suffices.
	q := planOf(
		Embedding{Module: "m1", HeadL: "r2", Tail: "r2"},
		Embedding{Module: "m2", HeadL: "r2", Tail: "r3"},
	)
	if got := q.Styles["r2"]; got != area.CBILBO {
		t.Fatalf("r2 style %v, want CBILBO", got)
	}
	if s := ScheduleSessions(q); len(s) != 1 {
		t.Fatalf("CBILBO-crossed modules scheduled into %d sessions, want 1", len(s))
	}
}

func TestScheduleSessionsPadHeadsNeverConflict(t *testing.T) {
	// Pad heads are directly controllable and upgrade no register; a pad
	// "crossing" a tail must not force a split.
	p := planOf(
		Embedding{Module: "m1", HeadL: "in:a", Tail: "r1"},
		Embedding{Module: "m2", HeadL: "r1", HeadR: "in:a", Tail: "r2"},
	)
	// m2's head r1 is m1's tail (r1 is TPG for m2, SA for m1 → BILBO):
	// that crossing is real. But swap so only the pad crosses:
	q := planOf(
		Embedding{Module: "m1", HeadL: "in:a", Tail: "r1"},
		Embedding{Module: "m2", HeadL: "r3", HeadR: "in:a", Tail: "r2"},
	)
	if s := ScheduleSessions(q); len(s) != 1 {
		t.Fatalf("pad-only interaction split the schedule: %v", s)
	}
	if s := ScheduleSessions(p); len(s) != 2 {
		t.Fatalf("real register crossing not split: %v", s)
	}
}

func TestScheduleSessionsDeterministicOrder(t *testing.T) {
	// First-fit walks modules in sorted name order, so the schedule is a
	// pure function of the plan regardless of map iteration order.
	p := planOf(
		Embedding{Module: "m3", HeadL: "r1", Tail: "r2"},
		Embedding{Module: "m1", HeadL: "r1", Tail: "r3"},
		Embedding{Module: "m2", HeadL: "r1", Tail: "r3"}, // shares m1's tail
	)
	want := ScheduleSessions(p)
	for i := 0; i < 20; i++ {
		if got := ScheduleSessions(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: schedule %v != %v", i, got, want)
		}
	}
	if len(want) != 2 {
		t.Fatalf("schedule %v, want 2 sessions", want)
	}
	if want[0][0] != "m1" {
		t.Fatalf("first session starts with %q, want m1 (sorted first-fit)", want[0][0])
	}
}

func TestCheckSessionRejectsConflict(t *testing.T) {
	p := planOf(
		Embedding{Module: "m1", HeadL: "r1", Tail: "r9"},
		Embedding{Module: "m2", HeadL: "r2", Tail: "r9"},
	)
	if err := p.checkSession([]string{"m1", "m2"}); err == nil {
		t.Fatal("conflicting session accepted")
	}
	if err := p.checkSession([]string{"m1"}); err != nil {
		t.Fatalf("singleton session rejected: %v", err)
	}
}

// TestInternedScheduleMatchesScheduleSessions holds the interned
// scheduler, which scores Pareto leaves and breaks MinimizeSessions
// ties, to ScheduleSessions. For random complete assignments on the
// paper designs (both binding modes) and DefaultRandomConfig designs,
// pads on and off, its sessions read back in name order must equal
// ScheduleSessions(PlanFromEmbeddings(...)) member for member and in
// order, and its peak power must equal PlanCost's, under the default
// weights and with one module overridden to a negative weight.
func TestInternedScheduleMatchesScheduleSessions(t *testing.T) {
	type design struct {
		name string
		dp   *datapath.Datapath
	}
	var designs []design
	for _, b := range benchdata.All() {
		for _, trad := range []bool{false, true} {
			dp, _, _ := buildBench(t, b, trad)
			designs = append(designs, design{fmt.Sprintf("%s trad=%v", b.Name, trad), dp})
		}
	}
	for seed := int64(1); seed <= 100; seed++ {
		designs = append(designs, design{fmt.Sprintf("random-%d", seed), buildRandomDP(t, benchdata.DefaultRandomConfig(seed))})
	}
	sc := NewScratch()
	rng := rand.New(rand.NewSource(1))
	for _, d := range designs {
		name, dp := d.name, d.dp
		for _, pads := range []bool{true, false} {
			opts := DefaultOptions(8)
			opts.AllowPadHeads = pads
			sp, err := prepareSpace(dp, opts, sc)
			if err != nil {
				continue // a module without embeddings has nothing to schedule
			}
			a := &sc.arena
			a.size(sp.nregs, len(sp.mods))
			a.prepareSchedule(&sp)
			genome := make([]int32, len(sp.mods))
			weights := make([]int, len(sp.mods))
			for trial := 0; trial < 40; trial++ {
				var override map[string]int
				if trial%2 == 1 {
					override = map[string]int{sp.mods[rng.Intn(len(sp.mods))]: -50}
				}
				power := PowerWeights(opts.Model, dp, override)
				for i, m := range sp.mods {
					genome[i] = int32(rng.Intn(len(sp.refs[i])))
					weights[i] = power[m]
				}
				n, peak := a.schedule(&sp, genome, weights)
				got := make([][]string, n)
				for _, i := range a.byName {
					got[a.sess[i]] = append(got[a.sess[i]], sp.mods[i])
				}
				p := PlanFromEmbeddings(opts.Model, sp.embeddingsOf(genome), true)
				if !reflect.DeepEqual(got, p.Sessions) {
					t.Fatalf("%s pads=%v genome %v: interned sessions %v, ScheduleSessions %v", name, pads, genome, got, p.Sessions)
				}
				if want := PlanCost(p, power).PeakPower; peak != want {
					t.Fatalf("%s pads=%v genome %v: interned peak power %d, PlanCost %d", name, pads, genome, peak, want)
				}
			}
		}
	}
}
