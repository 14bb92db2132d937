package regassign

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"bistpath/internal/bitset"
	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
)

// binderState is the binder's indexed working set: every variable,
// module and interconnect endpoint is interned to a small integer once
// per Bind call, and every relation the coloring loop queries — the
// conflict graph, module input/output incidence in both directions,
// per-instance operand sets, register contents and register
// footprints — is a preallocated bitset row over those integers.
//
// Nothing the coloring loop asks is recomputed from scratch. Register
// footprints (module incidence, interconnect endpoints, Case 2's
// per-module register counts and the Lemma-2 forced-module flags) are
// maintained by assign; sharing degrees are popcounts of those rows, and
// a Lemma-2 trial re-evaluates only the modules the variable touches.
//
// The decision semantics are exactly those of the paper binder's
// original scan-everything implementation, kept as referenceBind in
// bindref_test.go; TestBindMatchesReference and the package-level golden
// tests pin the outputs bit for bit.
//
// A binderState is single-threaded. Reusing one across Bind calls (via
// Scratch) recycles the backing arrays; initVars and initModules
// re-dimension everything for the new graph.
type binderState struct {
	names []string                // var id -> name (lexicographic, so id order = name order)
	lts   map[string]dfg.Lifetime // the bind's one Lifetimes pass, reused by validate
	life  []dfg.Lifetime          // var id -> lifetime
	dens  []int32                 // scratch for dfg.CliqueSizes' density profile

	conf bitset.Matrix // var id -> conflicting var ids

	// Module incidence in both directions, over the same var ids and
	// sorted module ids: the Sharing index NewSharing builds.
	sh        Sharing
	instRow   bitset.Matrix // flattened per-instance operand sets
	instStart []int32       // module m's instances are rows [instStart[m], instStart[m+1])

	// Interconnect endpoints: sources are module indices or, for primary
	// inputs, nm + var id (each input pad is its own source); destinations
	// are module indices plus nm = "out".
	srcOf   []int32       // var id -> source id
	dstBits bitset.Matrix // var id -> destination ids

	// Registers, growing as the coloring opens them. Row capacity is
	// len(names) registers — the worst case of one variable per register.
	regVars [][]int32     // register -> var ids in assignment order
	regBits bitset.Matrix // register -> var ids
	regSrc  bitset.Matrix // register -> source ids
	regDst  bitset.Matrix // register -> destination ids
	regMIn  bitset.Matrix // register -> modules whose input set it touches
	regMOut bitset.Matrix // register -> modules whose output set it touches
	numRegs int
	inRegs  []int32 // module -> registers touching its input set

	// Lemma-2 state, maintained by assign only when lemma2 is set: the
	// modules the current registers force into a CBILBO, and their count.
	lemma2  bool
	forced  bitset.Set
	nForced int

	rank    []int32 // PVES elimination priority per var id (a permutation)
	ordered []int32 // rank -> var id
	mcs     []int32 // max clique size per var id
	sdv     []int32 // SD(v) per var id (Definition 4)

	// Reusable buffers for PVES and the per-variable decision.
	scheme []int32
	alive  bitset.Set // var ids not yet eliminated
	simp   bitset.Set // ranks of alive simplicial vertices
	nbr    bitset.Set
	cands  []int
	keys   []rankKey
	div    []rankKey
	busyIn bitset.Set // modules of v's input sets two registers already touch
}

// Scratch owns a reusable binderState. Passing one Scratch to
// successive Bind calls (Options.Scratch) recycles the bitset graphs
// and interning tables across runs — the zero-allocation discipline the
// batch pool and the daemon rely on. A Scratch is single-threaded; use
// one per worker.
type Scratch struct {
	bs binderState
}

// NewScratch returns an empty reusable binder scratch.
func NewScratch() *Scratch { return &Scratch{} }

// Sharing returns the module-incidence index that the last Bind or
// BindTraced call on s built for its graph and module binding: the one
// NewSharing would build. It belongs to s, so it is valid only until
// the next call that uses s, and nothing that outlives that call may
// keep it.
func (s *Scratch) Sharing() *Sharing { return &s.bs.sh }

// initVars interns the graph's register variables and derives the
// conflict rows from one Lifetimes pass, sizing the register rows and
// the PVES buffers. Traditional needs nothing more.
func (bs *binderState) initVars(g *dfg.Graph) error {
	names := g.AllocVars()
	nv := len(names)
	bs.names = names
	lts, err := g.Lifetimes()
	if err != nil {
		return err
	}
	bs.lts = lts
	if cap(bs.life) < nv {
		bs.life = make([]dfg.Lifetime, nv)
	}
	bs.life = bs.life[:nv]
	for i, n := range names {
		bs.life[i] = lts[n]
	}

	// Conflict graph straight from the lifetimes (the same relation
	// dfg.Conflicts materializes as nested maps).
	bs.conf.Grow(nv, nv)
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			if bs.life[i].Overlaps(bs.life[j]) {
				bs.conf.Row(i).Set(j)
				bs.conf.Row(j).Set(i)
			}
		}
	}

	// Register rows: at most one register per variable.
	bs.regBits.Grow(nv, nv)
	if cap(bs.regVars) < nv {
		bs.regVars = make([][]int32, nv)
	}
	bs.regVars = bs.regVars[:nv]
	for i := range bs.regVars {
		bs.regVars[i] = bs.regVars[i][:0]
	}
	bs.numRegs = 0

	bs.rank = growInt32(bs.rank, nv)
	bs.ordered = growInt32(bs.ordered, nv)
	bs.scheme = growInt32(bs.scheme, nv)
	bs.alive = growSet(bs.alive, nv)
	bs.simp = growSet(bs.simp, nv)
	bs.nbr = growSet(bs.nbr, nv)
	return nil
}

// initModules builds the module-incidence index through Sharing's own
// constructor, then the binder's rows over it: instance operand rows,
// interconnect endpoints and the register footprint rows, then SD(v) per
// variable.
func (bs *binderState) initModules(g *dfg.Graph, mb *modassign.Binding) {
	sh := &bs.sh
	sh.init(g, mb, bs.names)
	nv, nm := len(bs.names), len(sh.Modules)
	totalInst := 0
	for _, m := range mb.Modules {
		totalInst += len(m.Ops)
	}
	bs.instRow.Grow(totalInst, nv)
	bs.instStart = growInt32(bs.instStart, nm+1)
	row := int32(0)
	for mi, name := range sh.Modules {
		bs.instStart[mi] = row
		for _, opName := range mb.Module(name).Ops {
			// Port-fed operands have no register bit: they can never be
			// register-bound, exactly as in the map formulation.
			for _, a := range g.Op(opName).Args {
				if id := sh.id(a); id >= 0 {
					bs.instRow.Row(int(row)).Set(id)
				}
			}
			row++
		}
	}
	bs.instStart[nm] = row

	// Interconnect endpoint interning (the Fig. 6 estimator).
	bs.srcOf = growInt32(bs.srcOf, nv)
	bs.dstBits.Grow(nv, nm+1)
	for i, n := range bs.names {
		v := g.Var(n)
		if v.IsInput {
			bs.srcOf[i] = int32(nm + i) // each input pad is its own source
		} else {
			bs.srcOf[i] = int32(sh.module(mb.ModuleOf(v.Def).Name))
		}
		for _, u := range v.Uses {
			bs.dstBits.Row(i).Set(sh.module(mb.ModuleOf(u).Name))
		}
		if v.IsOutput {
			bs.dstBits.Row(i).Set(nm)
		}
	}

	bs.regSrc.Grow(nv, nm+nv)
	bs.regDst.Grow(nv, nm+1)
	bs.regMIn.Grow(nv, nm)
	bs.regMOut.Grow(nv, nm)
	bs.inRegs = growInt32(bs.inRegs, nm)
	bs.forced = growSet(bs.forced, nm)
	bs.nForced = 0
	bs.busyIn = growSet(bs.busyIn, nm)

	bs.mcs = growInt32(bs.mcs, nv)
	bs.sdv = growInt32(bs.sdv, nv)
	for v := 0; v < nv; v++ {
		bs.sdv[v] = int32(sh.sdVarID(v))
	}
}

func growSet(s bitset.Set, n int) bitset.Set {
	w := bitset.Words(n)
	if cap(s) < w {
		return bitset.Make(n)
	}
	s = s[:w]
	s.Reset()
	return s
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// instances returns the instance-operand rows of module mi.
func (bs *binderState) instances(mi int) (lo, hi int32) {
	return bs.instStart[mi], bs.instStart[mi+1]
}

// --- sharing degrees (Definitions 4 and 5) ---

// A register touches I_M exactly when one of its variables is in I_M,
// so SD(R) and SD(R, v) are popcounts of the register's module rows.

func (bs *binderState) sdReg(r int) int {
	return bs.regMIn.Row(r).Count() + bs.regMOut.Row(r).Count()
}

// sdRegWith returns SD(R, v): the register's sharing degree with v
// hypothetically added.
func (bs *binderState) sdRegWith(r int, v int32) int {
	return bs.regMIn.Row(r).OrCount(bs.sh.varIn.Row(int(v))) +
		bs.regMOut.Row(r).OrCount(bs.sh.varOut.Row(int(v)))
}

func (bs *binderState) deltaSD(r int, v int32) int {
	return bs.sdRegWith(r, v) - bs.sdReg(r)
}

// icScore is the Fig. 6 interconnect estimate: new sources plus new
// destinations the register acquires by absorbing v.
func (bs *binderState) icScore(r int, v int32) int {
	cost := 0
	if !bs.regSrc.Row(r).Has(int(bs.srcOf[v])) {
		cost++
	}
	cost += bs.dstBits.Row(int(v)).AndNotCount(bs.regDst.Row(r))
	return cost
}

// hold records v among register r's variables.
func (bs *binderState) hold(r int, v int32) {
	bs.regVars[r] = append(bs.regVars[r], v)
	bs.regBits.Row(r).Set(int(v))
}

// assign commits variable v to register r, maintaining every register
// footprint incrementally: interconnect endpoints, module rows, the
// per-module count of registers touching each input set and, under
// Lemma 2, the forced-module flags of v's modules.
func (bs *binderState) assign(r int, v int32) {
	bs.hold(r, v)
	bs.regSrc.Row(r).Set(int(bs.srcOf[v]))
	bs.regDst.Row(r).Or(bs.dstBits.Row(int(v)))
	in, rin := bs.sh.varIn.Row(int(v)), bs.regMIn.Row(r)
	for wi, w := range in {
		for fresh := w &^ rin[wi]; fresh != 0; fresh &= fresh - 1 {
			bs.inRegs[wi<<6+bits.TrailingZeros64(fresh)]++
		}
		rin[wi] |= w
	}
	bs.regMOut.Row(r).Or(bs.sh.varOut.Row(int(v)))
	if !bs.lemma2 {
		return
	}
	out := bs.sh.varOut.Row(int(v))
	for wi := range in {
		for w := in[wi] | out[wi]; w != 0; w &= w - 1 {
			mi := wi<<6 + bits.TrailingZeros64(w)
			if now := bs.forcedModule(mi); now != bs.forced.Has(mi) {
				if now {
					bs.forced.Set(mi)
					bs.nForced++
				} else {
					bs.forced.Clear(mi)
					bs.nForced--
				}
			}
		}
	}
}

// openRegister starts a fresh register holding v and returns its index.
func (bs *binderState) openRegister(v int32) int {
	r := bs.numRegs
	bs.numRegs++
	bs.assign(r, v)
	return r
}

// --- Lemma 2 over bits ---

// forcedModule reports whether the current (possibly trial) register
// contents force module mi into a CBILBO, mirroring forcedForModule's
// map formulation exactly: case (i) needs one register holding all
// output variables and an operand of every instance; case (ii) needs a
// pair that partitions the outputs, each member hitting every instance.
func (bs *binderState) forcedModule(mi int) bool {
	out := bs.sh.out.Row(mi)
	lo, hi := bs.instances(mi)
	if !out.Any() || lo == hi {
		return false
	}
	// Case (i): scan every register first, exactly as the original
	// reports case (i) in preference to case (ii).
	for r := 0; r < bs.numRegs; r++ {
		rb := bs.regBits.Row(r)
		if rb.Intersects(out) && rb.ContainsAll(out) && bs.hitsAllInstances(rb, lo, hi) {
			return true
		}
	}
	// Case (ii): a pair of registers, each holding a proper nonempty
	// part of O_M and an operand of every instance, together covering O_M.
	for i := 0; i < bs.numRegs; i++ {
		ri := bs.regBits.Row(i)
		if !ri.Intersects(out) || ri.ContainsAll(out) || !bs.hitsAllInstances(ri, lo, hi) {
			continue
		}
		for j := i + 1; j < bs.numRegs; j++ {
			rj := bs.regBits.Row(j)
			if !rj.Intersects(out) || rj.ContainsAll(out) || !bs.hitsAllInstances(rj, lo, hi) {
				continue
			}
			if bs.pairCoversOut(ri, rj, out) {
				return true
			}
		}
	}
	return false
}

func (bs *binderState) hitsAllInstances(rb bitset.Set, lo, hi int32) bool {
	for k := lo; k < hi; k++ {
		if !rb.Intersects(bs.instRow.Row(int(k))) {
			return false
		}
	}
	return true
}

func (bs *binderState) pairCoversOut(a, b, out bitset.Set) bool {
	for w := range out {
		if out[w]&^(a[w]|b[w]) != 0 {
			return false
		}
	}
	return true
}

// forcedWith returns the number of forced modules with v hypothetically
// added to register r — the Lemma-2 trial of the coloring loop. Adding v
// changes regBits[r] in bit v only, and forcedModule(M) reads register
// contents only through O_M and M's instance operand rows, which lie
// inside I_M; so only the modules v is an input or output of can change
// status, and the maintained count is corrected on those alone.
func (bs *binderState) forcedWith(r int, v int32) int {
	rb := bs.regBits.Row(r)
	rb.Set(int(v))
	n := bs.nForced
	in, out := bs.sh.varIn.Row(int(v)), bs.sh.varOut.Row(int(v))
	for wi := range in {
		for w := in[wi] | out[wi]; w != 0; w &= w - 1 {
			mi := wi<<6 + bits.TrailingZeros64(w)
			if bs.forced.Has(mi) {
				n--
			}
			if bs.forcedModule(mi) {
				n++
			}
		}
	}
	rb.Clear(int(v))
	return n
}

// --- PVES (Section III.A.1) over bits ---

// pves computes the perfect vertex elimination scheme that eliminates,
// at every step, the alive simplicial vertex of least rank. Simpliciality
// is hereditary — a simplicial vertex stays simplicial as others are
// eliminated, since a subset of a clique is a clique — and eliminating u
// changes only the alive neighbourhoods of u's alive neighbours. So every
// vertex is tested once, then only those neighbours are re-tested, and
// bs.simp (indexed by rank) yields the next vertex as its first set bit.
func (bs *binderState) pves() error {
	nv := len(bs.names)
	bs.alive.Reset()
	bs.simp.Reset()
	for v := 0; v < nv; v++ {
		bs.alive.Set(v)
	}
	for v := 0; v < nv; v++ {
		if bs.simplicial(v) {
			bs.simp.Set(int(bs.rank[v]))
		}
	}
	for k := 0; k < nv; k++ {
		pos := firstSet(bs.simp)
		if pos < 0 {
			return fmt.Errorf("graph is not chordal: no simplicial vertex among %d remaining", nv-k)
		}
		best := bs.ordered[pos]
		bs.scheme[k] = best
		bs.simp.Clear(pos)
		bs.alive.Clear(int(best))
		for wi, w := range bs.conf.Row(int(best)) {
			for w &= bs.alive[wi]; w != 0; w &= w - 1 {
				u := wi<<6 + bits.TrailingZeros64(w)
				if ru := int(bs.rank[u]); !bs.simp.Has(ru) && bs.simplicial(u) {
					bs.simp.Set(ru)
				}
			}
		}
	}
	return nil
}

// firstSet returns the lowest set bit of s, or -1.
func firstSet(s bitset.Set) int {
	for wi, w := range s {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// simplicial reports whether v's alive neighborhood induces a clique.
func (bs *binderState) simplicial(v int) bool {
	n := bs.nbr
	n.CopyFrom(bs.conf.Row(v))
	for i, w := range bs.alive {
		n[i] &= w
	}
	// Every alive neighbor u must be adjacent to all other alive
	// neighbors: N \ adj(u) must contain only u itself.
	for wi, w := range n {
		for w != 0 {
			u := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if n.AndNotCount(bs.conf.Row(u)) != 1 {
				return false
			}
		}
	}
	return true
}

// candidateRegs fills bs.cands with the indices of registers holding no
// variable conflicting with v, in ascending register order.
func (bs *binderState) candidateRegs(v int32) []int {
	bs.cands = bs.cands[:0]
	cv := bs.conf.Row(int(v))
	for r := 0; r < bs.numRegs; r++ {
		if !bs.regBits.Row(r).Intersects(cv) {
			bs.cands = append(bs.cands, r)
		}
	}
	return bs.cands
}

// rankKey holds one candidate register's ranking inputs for the variable
// being colored, computed once per candidate.
type rankKey struct {
	r     int // register index
	delta int // ΔSD^v(R)
	sd    int // SD(R)
	ic    int // Fig. 6 interconnect estimate
}

// divert applies the Case 1 / Case 2 diversion (Section III.A.2) to a
// primary ranking, in place. The candidates that already hold an output
// variable of a module v is an output of (Case 1), or an input variable
// of a module v is an input of whose TPG pair already exists (Case 2),
// and whose SD(R) exceeds SD(primary, v), move to the front, ordered by
// (ΔSD desc, interconnect asc, SD(R, v) desc, index); the rest keep
// their primary order. It reports whether any candidate moved: the
// primary itself never qualifies, so the first choice changes exactly
// then.
func (bs *binderState) divert(ranked []rankKey, v int32) bool {
	primary := ranked[0]
	sdPrimary := primary.sd + primary.delta
	// Because operators are binary, Case 2 applies only when two
	// registers already hold input variables of the module.
	busy := bs.busyIn
	for wi, w := range bs.sh.varIn.Row(int(v)) {
		busy[wi] = 0
		for ; w != 0; w &= w - 1 {
			if mi := wi<<6 + bits.TrailingZeros64(w); bs.inRegs[mi] >= 2 {
				busy[wi] |= w & -w
			}
		}
	}
	out := bs.sh.varOut.Row(int(v))
	div, n := bs.div[:0], 0
	for _, k := range ranked {
		if k.r != primary.r && k.sd > sdPrimary &&
			(bs.regMOut.Row(k.r).Intersects(out) || bs.regMIn.Row(k.r).Intersects(busy)) {
			div = append(div, k)
		} else {
			ranked[n] = k
			n++
		}
	}
	bs.div = div
	if len(div) == 0 {
		return false
	}
	slices.SortFunc(div, func(a, b rankKey) int {
		if c := cmp.Compare(b.delta, a.delta); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ic, b.ic); c != 0 {
			return c
		}
		if c := cmp.Compare(b.sd+b.delta, a.sd+a.delta); c != 0 {
			return c
		}
		return cmp.Compare(a.r, b.r)
	})
	copy(ranked[len(div):], ranked[:n])
	copy(ranked, div)
	return true
}

// varNames materializes a register's variable names (trace path only).
func (bs *binderState) varNames(r int) []string {
	out := make([]string, len(bs.regVars[r]))
	for i, id := range bs.regVars[r] {
		out[i] = bs.names[id]
	}
	return out
}

// sets materializes every register as ordered variable-name sets for
// FromSets — the one point the indexed state converts back to strings.
func (bs *binderState) sets() [][]string {
	out := make([][]string, bs.numRegs)
	for r := 0; r < bs.numRegs; r++ {
		out[r] = bs.varNames(r)
	}
	return out
}
