package regassign

import (
	"fmt"
	"reflect"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/dfg"
	"bistpath/internal/graph"
	"bistpath/internal/modassign"
)

// refBinder is the paper binder as it stood before its bookkeeping
// became incremental, kept as the oracle for the production binder. It
// shares binderState's interning and register rows, but rebuilds the
// conflict rows from g.Conflicts, reads MCS(v) and the register minimum
// from dfg, recomputes every sharing degree by scanning all modules,
// evaluates Lemma 2 over every module per trial, and re-tests every
// alive vertex at each PVES step.
type refBinder struct {
	bs *binderState
}

func (rb refBinder) sdVar(v int32) int {
	bs, sd := rb.bs, 0
	for mi := range bs.sh.Modules {
		if bs.sh.in.Row(mi).Has(int(v)) {
			sd++
		}
		if bs.sh.out.Row(mi).Has(int(v)) {
			sd++
		}
	}
	return sd
}

func (rb refBinder) sdReg(r int) int {
	bs, sd := rb.bs, 0
	regBits := bs.regBits.Row(r)
	for mi := range bs.sh.Modules {
		if regBits.Intersects(bs.sh.in.Row(mi)) {
			sd++
		}
		if regBits.Intersects(bs.sh.out.Row(mi)) {
			sd++
		}
	}
	return sd
}

func (rb refBinder) sdRegWith(r int, v int32) int {
	bs, sd := rb.bs, 0
	regBits := bs.regBits.Row(r)
	for mi := range bs.sh.Modules {
		if regBits.Intersects(bs.sh.in.Row(mi)) || bs.sh.in.Row(mi).Has(int(v)) {
			sd++
		}
		if regBits.Intersects(bs.sh.out.Row(mi)) || bs.sh.out.Row(mi).Has(int(v)) {
			sd++
		}
	}
	return sd
}

func (rb refBinder) deltaSD(r int, v int32) int { return rb.sdRegWith(r, v) - rb.sdReg(r) }

// assign commits v to r, maintaining only the rows the reference reads.
func (rb refBinder) assign(r int, v int32) {
	bs := rb.bs
	bs.regVars[r] = append(bs.regVars[r], v)
	bs.regBits.Row(r).Set(int(v))
	bs.regSrc.Row(r).Set(int(bs.srcOf[v]))
	bs.regDst.Row(r).Or(bs.dstBits.Row(int(v)))
}

func (rb refBinder) openRegister(v int32) {
	rb.bs.numRegs++
	rb.assign(rb.bs.numRegs-1, v)
}

func (rb refBinder) forcedCount() int {
	count := 0
	for mi := range rb.bs.sh.Modules {
		if rb.bs.forcedModule(mi) {
			count++
		}
	}
	return count
}

func (rb refBinder) forcedCountWith(r int, v int32) int {
	regBits := rb.bs.regBits.Row(r)
	regBits.Set(int(v))
	n := rb.forcedCount()
	regBits.Clear(int(v))
	return n
}

func (rb refBinder) pves() error {
	bs := rb.bs
	nv := len(bs.names)
	bs.alive.Reset()
	for v := 0; v < nv; v++ {
		bs.alive.Set(v)
	}
	for k := 0; k < nv; k++ {
		best := int32(-1)
		for v := 0; v < nv; v++ {
			if !bs.alive.Has(v) || !bs.simplicial(v) {
				continue
			}
			if best < 0 || bs.rank[v] < bs.rank[best] {
				best = int32(v)
			}
		}
		if best < 0 {
			return fmt.Errorf("graph is not chordal: no simplicial vertex among %d remaining", nv-k)
		}
		bs.scheme[k] = best
		bs.alive.Clear(int(best))
	}
	return nil
}

func refInsertionSort(xs []int, less func(a, b int) bool) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && less(x, xs[j]) {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

func (rb refBinder) diversion(cands []int, v int32, primary int) []int {
	bs := rb.bs
	sdPrimary := rb.sdRegWith(primary, v)
	isCand := make(map[int]bool, len(cands))
	for _, c := range cands {
		isCand[c] = true
	}
	seen := make(map[int]bool)
	// Case 1: v is an output variable of module Mj and some candidate
	// register already holds an output variable of Mj.
	for mi := range bs.sh.Modules {
		if !bs.sh.out.Row(mi).Has(int(v)) {
			continue
		}
		for r := 0; r < bs.numRegs; r++ {
			if r == primary || !isCand[r] || !bs.regBits.Row(r).Intersects(bs.sh.out.Row(mi)) {
				continue
			}
			if rb.sdReg(r) > sdPrimary {
				seen[r] = true
			}
		}
	}
	// Case 2: v is an input variable of Mj and two registers already
	// hold input variables of Mj.
	for mi := range bs.sh.Modules {
		if !bs.sh.in.Row(mi).Has(int(v)) {
			continue
		}
		touching := 0
		for r := 0; r < bs.numRegs; r++ {
			if bs.regBits.Row(r).Intersects(bs.sh.in.Row(mi)) {
				touching++
			}
		}
		if touching < 2 {
			continue
		}
		for r := 0; r < bs.numRegs; r++ {
			if r == primary || !isCand[r] || !bs.regBits.Row(r).Intersects(bs.sh.in.Row(mi)) {
				continue
			}
			if rb.sdReg(r) > sdPrimary {
				seen[r] = true
			}
		}
	}
	var out []int
	for r := 0; r < bs.numRegs; r++ {
		if seen[r] {
			out = append(out, r)
		}
	}
	refInsertionSort(out, func(ia, ib int) bool {
		da, db := rb.deltaSD(ia, v), rb.deltaSD(ib, v)
		if da != db {
			return da > db
		}
		ca, cb := bs.icScore(ia, v), bs.icScore(ib, v)
		if ca != cb {
			return ca < cb
		}
		sa, sb := rb.sdRegWith(ia, v), rb.sdRegWith(ib, v)
		if sa != sb {
			return sa > sb
		}
		return ia < ib
	})
	return out
}

func (rb refBinder) chooseRegister(cands []int, v int32, minRegs int, opts Options, d *Decision) int {
	bs := rb.bs
	ranked := append([]int(nil), cands...)
	if opts.SharingDegree {
		refInsertionSort(ranked, func(ia, ib int) bool {
			da, db := rb.deltaSD(ia, v), rb.deltaSD(ib, v)
			if da != db {
				return da > db
			}
			sa, sb := rb.sdReg(ia), rb.sdReg(ib)
			if sa != sb {
				return sa > sb
			}
			if opts.InterconnectTies {
				ca, cb := bs.icScore(ia, v), bs.icScore(ib, v)
				if ca != cb {
					return ca < cb
				}
			}
			return ia < ib
		})
	}
	primary := ranked[0]
	if opts.SharingDegree && opts.CaseOverrides {
		if div := rb.diversion(cands, v, primary); len(div) > 0 {
			inDiv := make(map[int]bool, len(div))
			for _, r := range div {
				inDiv[r] = true
			}
			reordered := append([]int(nil), div...)
			for _, r := range ranked {
				if !inDiv[r] {
					reordered = append(reordered, r)
				}
			}
			ranked = reordered
			if ranked[0] != primary {
				d.Diverted = true
			}
		}
	}
	if opts.AvoidCBILBO {
		checks := int64(1)
		defer func() {
			if opts.Metrics != nil {
				opts.Metrics.Lemma2Checks += checks
			}
		}()
		base := rb.forcedCount()
		for _, r := range ranked {
			checks++
			if rb.forcedCountWith(r, v) <= base {
				return r
			}
			d.Lemma2Skips++
		}
		if bs.numRegs < minRegs {
			return -1
		}
	}
	return ranked[0]
}

// referenceBind is the pre-incremental binder: same decisions, every
// quantity recomputed where it is queried.
func referenceBind(g *dfg.Graph, mb *modassign.Binding, opts Options, trace *[]Decision) (*Binding, error) {
	bs := new(binderState)
	if err := bs.initVars(g); err != nil {
		return nil, err
	}
	bs.initModules(g, mb)
	rb := refBinder{bs}
	nv := len(bs.names)

	conf, err := g.Conflicts()
	if err != nil {
		return nil, err
	}
	bs.conf.Grow(nv, nv)
	for i, u := range bs.names {
		for w := range conf[u] {
			bs.conf.Row(i).Set(bs.sh.id(w))
		}
	}
	mcs, err := g.MaxCliqueSize()
	if err != nil {
		return nil, err
	}
	for i, n := range bs.names {
		bs.sdv[i] = int32(rb.sdVar(int32(i)))
		bs.mcs[i] = int32(mcs[n])
	}

	ordered := make([]int, nv)
	for i := range ordered {
		ordered[i] = i
	}
	if opts.SharingDegree {
		refInsertionSort(ordered, func(a, b int) bool {
			if bs.sdv[a] != bs.sdv[b] {
				return bs.sdv[a] < bs.sdv[b]
			}
			if bs.mcs[a] != bs.mcs[b] {
				return bs.mcs[a] < bs.mcs[b]
			}
			return a < b
		})
	}
	for i, v := range ordered {
		bs.rank[v] = int32(i)
	}
	if err := rb.pves(); err != nil {
		return nil, fmt.Errorf("regassign: conflict graph of %q is not an interval graph: %v", g.Name, err)
	}

	minRegs, err := g.MinRegisters()
	if err != nil {
		return nil, err
	}
	for i := nv - 1; i >= 0; i-- {
		v := bs.scheme[i]
		d := Decision{Index: nv - i, Var: bs.names[v], SD: int(bs.sdv[v])}
		cands := append([]int(nil), bs.candidateRegs(v)...)
		if trace != nil {
			d.Candidates = append([]int(nil), cands...)
		}
		if len(cands) == 0 {
			d.NewRegister = true
			d.Chosen = bs.numRegs
			if trace != nil {
				describe(&d, nil)
				*trace = append(*trace, d)
			}
			rb.openRegister(v)
			continue
		}
		choice := rb.chooseRegister(cands, v, minRegs, opts, &d)
		if d.Diverted && opts.Metrics != nil {
			opts.Metrics.CaseOverrides++
		}
		if choice < 0 {
			d.NewRegister = true
			d.Chosen = bs.numRegs
			if trace != nil {
				describe(&d, nil)
				*trace = append(*trace, d)
			}
			rb.openRegister(v)
			continue
		}
		d.Chosen = choice
		d.DeltaSD = rb.deltaSD(choice, v)
		if trace != nil {
			describe(&d, bs.varNames(choice))
			*trace = append(*trace, d)
		}
		rb.assign(choice, v)
	}
	b := FromSets(bs.sets())
	return b, referenceValidate(b, g)
}

// referenceValidate is Binding.Validate over g.Conflicts' nested maps.
func referenceValidate(b *Binding, g *dfg.Graph) error {
	conf, err := g.Conflicts()
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	for _, r := range b.Registers {
		for i, u := range r.Vars {
			if g.Var(u) == nil {
				return fmt.Errorf("regassign: register %s holds unknown variable %q", r.Name, u)
			}
			if seen[u] {
				return fmt.Errorf("regassign: variable %q bound twice", u)
			}
			seen[u] = true
			if b.byVar[u] != r.Name {
				return fmt.Errorf("regassign: index inconsistent for %q", u)
			}
			for _, v := range r.Vars[i+1:] {
				if conf[u][v] {
					return fmt.Errorf("regassign: register %s holds conflicting variables %q and %q", r.Name, u, v)
				}
			}
		}
	}
	for _, v := range g.Vars() {
		if v.IsPort {
			if seen[v.Name] {
				return fmt.Errorf("regassign: port input %q must not be register-bound", v.Name)
			}
			continue
		}
		if !seen[v.Name] {
			return fmt.Errorf("regassign: variable %q unbound", v.Name)
		}
	}
	return nil
}

// optionsFromMask maps the low four bits to the binder's toggles.
func optionsFromMask(mask int) Options {
	return Options{
		SharingDegree:    mask&1 != 0,
		CaseOverrides:    mask&2 != 0,
		AvoidCBILBO:      mask&4 != 0,
		InterconnectTies: mask&8 != 0,
	}
}

// refDesign is one graph and module binding of the differential corpus.
type refDesign struct {
	name string
	g    *dfg.Graph
	mb   *modassign.Binding
}

// referenceCorpus returns the paper designs, the SweepConfig and
// DefaultRandomConfig shapes of seeds 1 to seeds, and the dfgen presets
// named in presets for seeds 1 to 6.
func referenceCorpus(t testing.TB, seeds int64, presets ...string) []refDesign {
	t.Helper()
	var out []refDesign
	for _, b := range benchdata.All() {
		mb, err := b.Modules()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, refDesign{b.Name, b.Graph, mb})
	}
	add := func(name string, cfg benchdata.RandomConfig) {
		g, mb, err := benchdata.RandomWithModules(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, refDesign{name, g, mb})
	}
	for seed := int64(1); seed <= seeds; seed++ {
		add(fmt.Sprintf("sweep-%d", seed), benchdata.SweepConfig(seed))
		add(fmt.Sprintf("random-%d", seed), benchdata.DefaultRandomConfig(seed))
	}
	for _, p := range presets {
		for seed := int64(1); seed <= 6; seed++ {
			cfg, _ := benchdata.Preset(p, seed)
			add(fmt.Sprintf("%s-%d", p, seed), cfg)
		}
	}
	return out
}

// checkBindMatchesReference binds d under opts with the reference and
// with the production binder, untraced on a fresh state and traced on
// sc, and requires identical bindings, decisions and Metrics.
func checkBindMatchesReference(t *testing.T, d refDesign, opts Options, sc *Scratch) {
	t.Helper()
	var wantM Metrics
	ro := opts
	ro.Metrics = &wantM
	var wantTrace []Decision
	want, wantErr := referenceBind(d.g, d.mb, ro, &wantTrace)
	for _, traced := range []bool{false, true} {
		var gotM Metrics
		o := opts
		o.Metrics = &gotM
		var got *Binding
		var gotTrace []Decision
		var err error
		if traced {
			o.Scratch = sc
			got, gotTrace, err = BindTraced(d.g, d.mb, o)
		} else {
			got, err = Bind(d.g, d.mb, o)
		}
		where := fmt.Sprintf("%s opts=%+v scratch=%v traced=%v", d.name, opts, o.Scratch != nil, traced)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, reference %v", where, err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got.Registers, want.Registers) || got.String() != want.String() {
			t.Fatalf("%s: binding\n got %v\nwant %v", where, got, want)
		}
		if gotM != wantM {
			t.Fatalf("%s: metrics %+v, reference %+v", where, gotM, wantM)
		}
		if traced && !reflect.DeepEqual(gotTrace, wantTrace) {
			for i := range wantTrace {
				if i >= len(gotTrace) || !reflect.DeepEqual(gotTrace[i], wantTrace[i]) {
					t.Fatalf("%s: decision %d differs", where, i+1)
				}
			}
			t.Fatalf("%s: trace has %d decisions, reference %d", where, len(gotTrace), len(wantTrace))
		}
	}
}

// TestBindMatchesReference pins the incremental binder to the
// scan-everything reference: on the paper designs, the SweepConfig and
// DefaultRandomConfig shapes of seeds 1–300 and dfgen s/m/l seeds 1–6
// under all 16 option combinations, and on dfgen xl seeds 1–6 under the
// default options, the Binding, every Decision and the Metrics agree,
// on a fresh state and on one Scratch shared by every bind.
func TestBindMatchesReference(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 40
	}
	sc := NewScratch()
	for _, d := range referenceCorpus(t, seeds, "s", "m", "l") {
		for mask := 0; mask < 16; mask++ {
			checkBindMatchesReference(t, d, optionsFromMask(mask), sc)
		}
	}
	if testing.Short() {
		return
	}
	for seed := int64(1); seed <= 6; seed++ {
		cfg, _ := benchdata.Preset("xl", seed)
		g, mb, err := benchdata.RandomWithModules(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkBindMatchesReference(t, refDesign{fmt.Sprintf("xl-%d", seed), g, mb}, DefaultOptions(), sc)
	}
}

// TestValidateMatchesConflicts checks that Validate, which reads
// lifetimes, reports exactly what the nested-map conflict relation
// reports: on each design's binding and on the bindings made by merging
// two of its registers, which usually conflict.
func TestValidateMatchesConflicts(t *testing.T) {
	for _, d := range referenceCorpus(t, 40, "s", "m") {
		rb, err := Bind(d.g, d.mb, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sets := rb.Sets()
		cases := [][][]string{sets}
		for i := 1; i < len(sets) && i < 4; i++ {
			merged := append([][]string{append(append([]string(nil), sets[0]...), sets[i]...)}, sets[1:i]...)
			cases = append(cases, append(merged, sets[i+1:]...))
		}
		// A register listing one variable twice: reported as bound twice.
		cases = append(cases, append([][]string{append(append([]string(nil), sets[0]...), sets[0][0])}, sets[1:]...))
		for _, c := range cases {
			b := FromSets(c)
			if got, want := fmt.Sprint(b.Validate(d.g)), fmt.Sprint(referenceValidate(b, d.g)); got != want {
				t.Fatalf("%s: Validate(%v) = %s, reference %s", d.name, b, got, want)
			}
		}
	}
}

// TestTraditionalMatchesChordalColoring pins Traditional, which runs on
// the binder's indexed state, to the map-based optimal chordal coloring
// it replaced, on TestBindMatchesReference's designs. Of the xl presets
// only seed 3 runs: the map-based coloring takes over a second on each.
func TestTraditionalMatchesChordalColoring(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 40
	}
	designs := referenceCorpus(t, seeds, "s", "m", "l")
	if !testing.Short() {
		cfg, _ := benchdata.Preset("xl", 3)
		g, mb, err := benchdata.RandomWithModules(cfg)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, refDesign{"xl-3", g, mb})
	}
	for _, d := range designs {
		got, err := Traditional(d.g)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		cg, err := ConflictGraph(d.g)
		if err != nil {
			t.Fatal(err)
		}
		colors, err := cg.OptimalChordalColor()
		if err != nil {
			t.Fatal(err)
		}
		want := FromSets(graph.ColorClasses(colors))
		if !reflect.DeepEqual(got.Registers, want.Registers) {
			t.Fatalf("%s: Traditional\n got %v\nwant %v", d.name, got, want)
		}
	}
}

// FuzzBindMatchesReference runs the differential check on fuzz-chosen
// designs: the seed, the generator shape (DefaultRandomConfig,
// SweepConfig or dfgen m), the option mask and whether the production
// binder reuses one Scratch across inputs.
func FuzzBindMatchesReference(f *testing.F) {
	f.Add(int64(1), byte(0), byte(15), true)
	sc := NewScratch()
	f.Fuzz(func(t *testing.T, seed int64, shape, mask byte, reuse bool) {
		var cfg benchdata.RandomConfig
		switch shape % 3 {
		case 0:
			cfg = benchdata.DefaultRandomConfig(seed)
		case 1:
			cfg = benchdata.SweepConfig(seed)
		default:
			cfg, _ = benchdata.Preset("m", seed)
		}
		g, mb, err := benchdata.RandomWithModules(cfg)
		if err != nil {
			t.Skip(err)
		}
		var s *Scratch
		if reuse {
			s = sc
		}
		name := fmt.Sprintf("seed=%d shape=%d", seed, shape%3)
		checkBindMatchesReference(t, refDesign{name, g, mb}, optionsFromMask(int(mask)), s)
	})
}
