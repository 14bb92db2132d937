package bist

import (
	"slices"
	"strings"

	"bistpath/internal/area"
	"bistpath/internal/interconnect"
)

// embRef is an embedding with its registers interned to small ids:
// l/r are the head registers (-1 for pad heads and for the missing right
// head of a unary module), t is the tail register. The searches walk
// embRefs so that applying and undoing an embedding touches three int32
// counters instead of three map entries.
type embRef struct{ l, r, t int32 }

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
	greedy  []int32 // greedy's embedding index per module position
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
	slices.SortFunc(a.byName, func(x, y int32) int { return strings.Compare(sp.mods[x].name, sp.mods[y].name) })
	a.cbilbo = grow(a.cbilbo, sp.nregs)
	clear(a.cbilbo)
	a.sess, a.taken, a.load, a.power = grow(a.sess, n), grow(a.taken, n), grow(a.load, n), grow(a.power, n)
}

// prepareBound builds search.lowerBound's tables for sp: each module
// position's distinct tail registers and, for each depth i, a packing
// of the positions i..n-1 whose tail sets are pairwise disjoint, taken
// greedily in canonical order.
func (a *searchArena) prepareBound(sp *searchSpace) {
	n := len(sp.mods)
	tailCap := 0
	for _, rr := range sp.refs {
		tailCap += min(len(rr), sp.nregs)
	}
	a.slab = grow(a.slab, 2*(n+1)+n*(n+1)/2+sp.nregs+tailCap)
	rest := a.slab
	take := func(k int) []int32 {
		out := rest[:k:k]
		rest = rest[k:]
		return out
	}
	a.tailOff, a.packOff, a.pack = take(n+1), take(n+1), take(n*(n+1)/2)
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
		for j := d; j < n; j++ {
			ts := a.tails[a.tailOff[j]:a.tailOff[j+1]]
			if slices.ContainsFunc(ts, func(t int32) bool { return mark[t] == stamp }) {
				continue
			}
			for _, t := range ts {
				mark[t] = stamp
			}
			a.pack[w] = int32(j)
			w++
		}
	}
	a.packOff[n] = w
}

// Scratch owns the optimizer's reusable memory: one search arena plus
// the enumeration state (embedding slices, interning tables, compact
// refs) a search builds before it starts. Passing one Scratch
// (Options.Scratch) to successive Optimize (or OptimizePareto) calls
// makes the whole search essentially allocation-free after the first
// call.
//
// A Scratch serves one Optimize call at a time, and one arena suffices
// within a call: the exact search runs its greedy seed on the arena's
// zeroed counters with its own path lifted off them, the stochastic
// search's exact probe finishes before the genetic search starts, and
// the Pareto walk before its empty-front fallback. Use one Scratch per
// synthesis worker.
type Scratch struct {
	arena searchArena

	regID    map[string]int32
	regNames []string
	mods     []modEmb
	embStore [][]Embedding
	refStore [][]embRef
	costs    []int   // standalone cost per embedding (orderByCost)
	perm     []int32 // cost-order permutation (orderByCost)
}

// NewScratch returns an empty reusable optimizer scratch.
func NewScratch() *Scratch { return &Scratch{} }

// internReg returns the small id of a register name, assigning one on
// first sight; pad heads and the empty right head intern to -1 (they
// carry no upgrade cost).
func (s *Scratch) internReg(name string) int32 {
	if name == "" || interconnect.IsPad(name) {
		return -1
	}
	if id, ok := s.regID[name]; ok {
		return id
	}
	id := int32(len(s.regNames))
	s.regID[name] = id
	s.regNames = append(s.regNames, name)
	return id
}

func (s *Scratch) resetIntern() {
	if s.regID == nil {
		s.regID = make(map[string]int32)
	} else {
		clear(s.regID)
	}
	s.regNames = s.regNames[:0]
}

// grow returns s resliced to length n, reallocated when its capacity is
// short; unlike growInt32 it leaves the contents as they are.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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

// standaloneCost returns the upgrade area of an embedding considered in
// isolation — extraArea(model, stylesOf({e})) computed directly, without
// materializing the role maps. orderByCost ranks each module's
// embeddings by it, cheap embeddings first.
func standaloneCost(model area.Model, e Embedding) int {
	lReg := e.HeadL != "" && !interconnect.IsPad(e.HeadL)
	rReg := e.HeadR != "" && !interconnect.IsPad(e.HeadR)
	cost := 0
	if (lReg && e.HeadL == e.Tail) || (rReg && e.HeadR == e.Tail) {
		cost += model.StyleExtra(area.CBILBO)
	} else {
		cost += model.StyleExtra(area.SA)
	}
	if lReg && e.HeadL != e.Tail {
		cost += model.StyleExtra(area.TPG)
	}
	// A diagonal module's shared head is one register: count it once.
	if rReg && e.HeadR != e.Tail && !(lReg && e.HeadR == e.HeadL) {
		cost += model.StyleExtra(area.TPG)
	}
	return cost
}
