package bist

import (
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
// index per module position) and the incumbent assignment. A Scratch
// holds one and recycles it across searches; size re-dimensions (and
// zeroes) it for the current problem.
type searchArena struct {
	tpg, sa, cb []int32 // duty counters per interned register
	cur         []int32 // embedding index per module position
	bestCur     []int32 // incumbent assignment
}

func (a *searchArena) size(nregs, nmods int) {
	a.tpg = growInt32(a.tpg, nregs)
	a.sa = growInt32(a.sa, nregs)
	a.cb = growInt32(a.cb, nregs)
	a.cur = growInt32(a.cur, nmods)
	a.bestCur = growInt32(a.bestCur, nmods)
}

// Scratch owns the optimizer's reusable memory: one search arena plus
// the enumeration state (embedding slices, interning tables, compact
// refs) a search builds before it starts. Passing one Scratch
// (Options.Scratch) to successive Optimize calls makes the whole search
// essentially allocation-free after the first call.
//
// A Scratch serves one Optimize call at a time, and one arena suffices
// within a call: the exact search finishes before its greedy fallback
// starts, and the stochastic search's exact probe finishes before the
// genetic search starts. Use one Scratch per synthesis worker.
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
