// Package bitset provides fixed-capacity bit sets over []uint64 words,
// the memory substrate of the synthesis core's hot paths: conflict
// graphs, module variable sets and register contents are all dense sets
// over a small interned universe, and representing them as bit words
// turns the binder's inner loops (candidate filtering, sharing-degree
// counting, Lemma-2 evaluation) into a handful of AND/POPCNT
// instructions with no per-query allocation.
//
// Sets do not grow: callers size them once per universe (per DFG) with
// Words/Make and reuse the backing arrays across runs via the scratch
// arenas. A Matrix packs n same-width rows into one contiguous backing
// slice so a conflict graph or a module-variable incidence relation is
// a single allocation regardless of the universe size.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. Index i lives in word i/64.
type Set []uint64

// Words returns the number of 64-bit words needed for n bits.
func Words(n int) int { return (n + 63) / 64 }

// Make returns a zeroed set with capacity for n bits.
func Make(n int) Set { return make(Set, Words(n)) }

// Reset clears every bit, keeping the backing array.
func (s Set) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// Set sets bit i.
func (s Set) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s Set) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (s Set) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any bit is set.
func (s Set) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// CopyFrom overwrites s with t (equal word counts).
func (s Set) CopyFrom(t Set) { copy(s, t) }

// Or folds t into s.
func (s Set) Or(t Set) {
	for i, w := range t {
		s[i] |= w
	}
}

// Intersects reports whether s and t share a set bit.
func (s Set) Intersects(t Set) bool {
	for i, w := range t {
		if s[i]&w != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every bit of t is set in s (t ⊆ s).
func (s Set) ContainsAll(t Set) bool {
	for i, w := range t {
		if w&^s[i] != 0 {
			return false
		}
	}
	return true
}

// AndNotCount returns the number of bits set in s but not in t.
func (s Set) AndNotCount(t Set) int {
	n := 0
	for i, w := range s {
		n += bits.OnesCount64(w &^ t[i])
	}
	return n
}

// OrCount returns the number of bits set in s or t, |s ∪ t|, without
// materializing the union (equal word counts).
func (s Set) OrCount(t Set) int {
	n := 0
	for i, w := range s {
		n += bits.OnesCount64(w | t[i])
	}
	return n
}

// Matrix is n rows of equal-width bit sets in one contiguous backing
// array — one allocation for a whole adjacency or incidence relation.
type Matrix struct {
	words int
	data  []uint64
}

// Grow reuses m's backing array for a new shape when it fits, zeroing
// the active region; otherwise it allocates. Use it to recycle one
// scratch matrix across DFGs of different sizes.
func (m *Matrix) Grow(n, bitsPerRow int) {
	w := Words(bitsPerRow)
	need := n * w
	if cap(m.data) < need {
		m.data = make([]uint64, need)
		m.words = w
		return
	}
	m.data = m.data[:need]
	for i := range m.data {
		m.data[i] = 0
	}
	m.words = w
}

// Row returns the i-th row as a Set sharing the backing array.
func (m *Matrix) Row(i int) Set { return Set(m.data[i*m.words : (i+1)*m.words]) }
