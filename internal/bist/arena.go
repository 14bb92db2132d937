package bist

import (
	"slices"
	"strings"

	"bistpath/internal/area"
	"bistpath/internal/datapath"
	"bistpath/internal/interconnect"
)

// embRef is an embedding with its registers interned to small ids:
// l/r are the head registers (-1 for pad heads and for the missing right
// head of a unary module), t is the tail register. The searches walk
// embRefs so that applying and undoing an embedding touches three int32
// counters instead of three map entries.
type embRef struct{ l, r, t int32 }

// srcRef names the embedding an embRef stands for: the source ids (see
// Scratch.internSource) of its left head, right head and tail. Source
// id 0 is the empty name, the missing right head of a unary module.
type srcRef struct{ l, r, t int32 }

// searchArena is one search's state: per-register duty counters indexed
// by interned register id, the current partial assignment (embedding
// index per module position), the incumbent assignment and, for the
// searches that schedule sessions, the scheduler's buffers. A Scratch
// holds one and recycles it across searches; size (and
// prepareSchedule) re-dimension and zero it for the current problem.
type searchArena struct {
	tpg, sa, cb []int32 // duty counters per interned register
	cur         []int32 // embedding index per module position
	bestCur     []int32 // incumbent assignment

	byName []int32 // module positions in name order
	cbilbo []bool  // per register: a CBILBO under the scheduled genome
	sess   []int32 // session per module position
	taken  []bool  // per session: conflicts with the module being placed
	load   []int   // per session: summed power weight
	power  []int   // per module position: power weight (Pareto leaves)

	// The exact search's lower-bound tables (prepareBound), carved from
	// one slab, and greedy's assignment (search.seed).
	slab    []int32
	tailOff []int32 // per module position: where its tails start in tails
	tails   []int32 // each module position's distinct tail registers
	packOff []int32 // per depth: where its packing starts in pack
	pack    []int32 // per depth i: positions in i..n-1 with pairwise disjoint tails
	// owner holds, per depth d, the register-indexed row
	// owner[d*nregs:(d+1)*nregs]: the index into pack of the module
	// packed at depth d that has the register among its tails, or -1.
	// The packed tails are pairwise disjoint, so there is at most one.
	owner []int32
	// least is parallel to pack: each packed module's least SA marginal,
	// cached by search.expand for the depth below it. Every depth has
	// its own slots, because every depth of the recursion has a live
	// cache at once.
	least  []int32
	greedy []int32 // greedy's embedding index per module position
}

func (a *searchArena) size(nregs, nmods int) {
	a.tpg = growInt32(a.tpg, nregs)
	a.sa = growInt32(a.sa, nregs)
	a.cb = growInt32(a.cb, nregs)
	a.cur = growInt32(a.cur, nmods)
	a.bestCur = growInt32(a.bestCur, nmods)
}

// prepareSchedule readies the scheduler's buffers for sp (see
// schedule), ordering the module positions by name, the order
// ScheduleSessions places modules in.
func (a *searchArena) prepareSchedule(sp *searchSpace) {
	n := len(sp.mods)
	a.byName = grow(a.byName, n)
	for i := range a.byName {
		a.byName[i] = int32(i)
	}
	slices.SortFunc(a.byName, func(x, y int32) int { return strings.Compare(sp.mods[x], sp.mods[y]) })
	a.cbilbo = grow(a.cbilbo, sp.nregs)
	clear(a.cbilbo)
	a.sess, a.taken, a.load, a.power = grow(a.sess, n), grow(a.taken, n), grow(a.load, n), grow(a.power, n)
}

// prepareBound builds search.lowerBound's tables for sp: each module
// position's distinct tail registers and, for each depth i, a packing
// of the positions i..n-1 whose tail sets are pairwise disjoint, taken
// greedily in canonical order, with its owner row and least slots.
func (a *searchArena) prepareBound(sp *searchSpace) {
	n := len(sp.mods)
	tailCap := 0
	for _, rr := range sp.refs {
		tailCap += min(len(rr), sp.nregs)
	}
	a.slab = grow(a.slab, 2*(n+1)+n*(n+1)+n*sp.nregs+sp.nregs+tailCap)
	rest := a.slab
	take := func(k int) []int32 {
		out := rest[:k:k]
		rest = rest[k:]
		return out
	}
	a.tailOff, a.packOff, a.pack = take(n+1), take(n+1), take(n*(n+1)/2)
	a.least, a.owner = take(n*(n+1)/2), take(n*sp.nregs)
	// mark[t] holds the stamp of the last pass that claimed register t:
	// i+1 while position i's tails are collected, n+1+d while depth d's
	// packing is built.
	mark := take(sp.nregs)
	clear(mark)
	a.tails = rest[:0]
	for i, rr := range sp.refs {
		a.tailOff[i] = int32(len(a.tails))
		for _, e := range rr {
			if mark[e.t] != int32(i+1) {
				mark[e.t] = int32(i + 1)
				a.tails = append(a.tails, e.t)
			}
		}
	}
	a.tailOff[n] = int32(len(a.tails))
	w := int32(0)
	for d := 0; d < n; d++ {
		a.packOff[d] = w
		stamp := int32(n + 1 + d)
		own := a.owner[d*sp.nregs : (d+1)*sp.nregs]
		for r := range own {
			own[r] = -1
		}
		for j := d; j < n; j++ {
			ts := a.tails[a.tailOff[j]:a.tailOff[j+1]]
			if slices.ContainsFunc(ts, func(t int32) bool { return mark[t] == stamp }) {
				continue
			}
			for _, t := range ts {
				mark[t] = stamp
				own[t] = w
			}
			a.pack[w] = int32(j)
			w++
		}
	}
	a.packOff[n] = w
}

// Scratch owns the optimizer's reusable memory: one search arena plus
// the search space a search builds before it starts (interning tables,
// per-module port lists and candidate refs). Passing one Scratch
// (Options.Scratch) to successive Optimize (or OptimizePareto) calls
// makes the whole search essentially allocation-free after the first
// call.
//
// A Scratch serves one Optimize call at a time, and one arena suffices
// within a call: the exact search runs its greedy seed on the arena's
// zeroed counters with its own path lifted off them, and the Pareto walk
// finishes before its empty-front fallback. Use one Scratch per
// synthesis worker.
type Scratch struct {
	arena searchArena

	srcID    map[string]int32 // source name -> source id
	srcNames []string         // source id -> register or pad name
	regOf    []int32          // source id -> register id (-1 for a pad or "")
	nregs    int32

	// One module's filtered port lists, as source ids (ports).
	left, right, dests []int32

	refStore [][]embRef // candidates per data-path module position
	srcStore [][]srcRef // parallel to refStore
	order    []int32    // data-path module positions in search order
	mods     []string   // the search space's views, in search order
	refs     [][]embRef
	srcs     [][]srcRef
	costs    []int   // standalone cost per candidate (orderByCost)
	perm     []int32 // cost-order permutation (orderByCost)
}

// NewScratch returns an empty reusable optimizer scratch.
func NewScratch() *Scratch { return &Scratch{} }

// internSource returns the id of a source name (a register or a pad),
// assigning one on first sight, and with a new register the next
// register id; pads get register id -1 (they carry no upgrade cost).
func (s *Scratch) internSource(name string) int32 {
	if id, ok := s.srcID[name]; ok {
		return id
	}
	id := int32(len(s.srcNames))
	s.srcID[name] = id
	s.srcNames = append(s.srcNames, name)
	reg := int32(-1)
	if !interconnect.IsPad(name) {
		reg = s.nregs
		s.nregs++
	}
	s.regOf = append(s.regOf, reg)
	return id
}

// resetIntern empties the interning tables but for source 0, the empty
// name of a unary module's missing right head, and sizes them for that
// many more sources (registers and pads), so that a cold Scratch
// allocates each once.
func (s *Scratch) resetIntern(sources int) {
	if s.srcID == nil {
		s.srcID = make(map[string]int32, sources+1)
	} else {
		clear(s.srcID)
	}
	s.srcID[""] = 0
	s.srcNames = append(grow(s.srcNames, sources+1)[:0], "")
	s.regOf = append(grow(s.regOf, sources+1)[:0], -1)
	s.nregs = 0
}

// ports interns a port list into dst as source ids, leaving pads out
// unless allowPads, in name order: a data path from datapath.Build
// keeps its port lists sorted, and the list of a hand-built one is
// sorted here, once, so that the candidates come out in Embeddings'
// canonical (HeadL, HeadR, Tail) order.
func (s *Scratch) ports(dst []int32, names []string, allowPads bool) []int32 {
	dst = dst[:0]
	for _, name := range names {
		if allowPads || !interconnect.IsPad(name) {
			dst = append(dst, s.internSource(name))
		}
	}
	byName := func(x, y int32) int { return strings.Compare(s.srcNames[x], s.srcNames[y]) }
	if !slices.IsSortedFunc(dst, byName) {
		slices.SortFunc(dst, byName)
	}
	return dst
}

// appendCandidates appends module m's candidate embeddings to refs and
// srcs, under eachEmbedding's rules and in Embeddings' canonical order,
// from its interned port lists: the nested loops run over source ids,
// so no Embedding is built and no name is compared per candidate.
func (s *Scratch) appendCandidates(dp *datapath.Datapath, m *datapath.Module, allowPads bool, refs []embRef, srcs []srcRef) ([]embRef, []srcRef) {
	s.left = s.ports(s.left, m.Left, allowPads)
	s.dests = s.ports(s.dests, m.Dests, true)
	diagonal := false
	if len(m.Right) == 0 {
		s.right = append(s.right[:0], 0) // unary module: no right head
	} else {
		s.right = s.ports(s.right, m.Right, allowPads)
		diagonal = dp.ModuleDiagonal(m.Name)
	}
	// Size both for the full port-list product, which bounds the
	// candidate count, so that a cold Scratch allocates each once.
	most := len(s.left) * len(s.right) * len(s.dests)
	refs, srcs = slices.Grow(refs, most), slices.Grow(srcs, most)
	for _, l := range s.left {
		for _, r := range s.right {
			if r == l && !diagonal {
				continue
			}
			for _, t := range s.dests {
				refs = append(refs, embRef{s.regOf[l], s.regOf[r], s.regOf[t]})
				srcs = append(srcs, srcRef{l, r, t})
			}
		}
	}
	return refs, srcs
}

// grow returns s resliced to length n, reallocated when its capacity is
// short; unlike growInt32 it leaves the contents as they are.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// extend returns s lengthened to at least n, keeping its contents.
func extend[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
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

// styleCosts holds the style upgrade costs, pre-resolved from the area
// model so that duty counters translate to cost without a Model call
// per touch.
type styleCosts struct{ exTPG, exSA, exBILBO, exCB int }

func newStyleCosts(m area.Model) styleCosts {
	return styleCosts{
		exTPG:   m.StyleExtra(area.TPG),
		exSA:    m.StyleExtra(area.SA),
		exBILBO: m.StyleExtra(area.BILBO),
		exCB:    m.StyleExtra(area.CBILBO),
	}
}

// standalone returns the upgrade area of an embedding considered in
// isolation — extraArea(model, stylesOf({e})) computed from register
// ids. orderByCost ranks each module's candidates by it, cheap ones
// first. A pad head (-1) is never the tail, and a diagonal module's
// shared head is one register, counted once.
func (c styleCosts) standalone(e embRef) int {
	cost := c.exSA
	if e.l == e.t || e.r == e.t {
		cost = c.exCB
	}
	if e.l >= 0 && e.l != e.t {
		cost += c.exTPG
	}
	if e.r >= 0 && e.r != e.t && e.r != e.l {
		cost += c.exTPG
	}
	return cost
}
