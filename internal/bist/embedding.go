// Package bist allocates test resources for a bound data path: it plays
// the role of the USC BITS system in the paper's evaluation. For every
// module it enumerates the BIST embeddings reachable through the data
// path's I-paths, then chooses one embedding per module so that the
// total area of upgraded registers (TPG/SA/BILBO/CBILBO) is minimal,
// and finally schedules compatible module tests into sessions.
package bist

import (
	"sort"

	"bistpath/internal/area"
	"bistpath/internal/datapath"
	"bistpath/internal/interconnect"
)

// Embedding is one BIST configuration for a module: pattern sources for
// its input ports and the signature register for its output port
// (Section II of the paper). Heads are registers or — when the
// methodology permits — input pads, which are directly controllable and
// cost nothing (Definition 1 allows I-paths to start at primary inputs).
// The tail is always a register.
type Embedding struct {
	Module string
	HeadL  string
	HeadR  string // empty for unary modules
	Tail   string
}

// NeedsCBILBO reports whether this embedding makes some register generate
// patterns and compact responses for the same module simultaneously.
func (e Embedding) NeedsCBILBO() bool {
	return e.Tail == e.HeadL || (e.HeadR != "" && e.Tail == e.HeadR)
}

func (e Embedding) String() string {
	if e.HeadR == "" {
		return e.Module + ": L<=" + e.HeadL + " out=>" + e.Tail
	}
	return e.Module + ": L<=" + e.HeadL + " R<=" + e.HeadR + " out=>" + e.Tail
}

// Embeddings enumerates every BIST embedding of a module over the simple
// I-paths of the data path. The two heads must be distinct sources
// (correlated patterns on both ports cannot test the module) — except
// for diagonal modules (squarers: every instance reads one source on
// both ports), whose ports are never independently exercisable and may
// share a single generator. When allowPadHeads is false, only registers
// may act as heads.
func Embeddings(dp *datapath.Datapath, module string, allowPadHeads bool) []Embedding {
	return AppendEmbeddings(nil, dp, module, allowPadHeads)
}

// AppendEmbeddings is Embeddings appending into dst, reusing its
// capacity — the allocation-free form the optimizer's scratch arenas
// enumerate through. The appended run is in the same canonical
// (HeadL, HeadR, Tail) order Embeddings returns.
func AppendEmbeddings(dst []Embedding, dp *datapath.Datapath, module string, allowPadHeads bool) []Embedding {
	start := len(dst)
	eachEmbedding(dp, module, allowPadHeads, func(e Embedding) bool {
		dst = append(dst, e)
		return true
	})
	// Canonical order on both arities: the optimizer's deterministic
	// tie-break is defined over this order, so it must be a pure
	// function of the data path, never of construction order. Left,
	// Right and Dests are sorted by construction, so the nested loops
	// emit that order directly; the sort below only fires defensively
	// for a hand-built data path with unsorted source lists.
	if !embeddingsOrdered(dst[start:]) {
		sort.Slice(dst[start:], func(i, j int) bool {
			a, b := dst[start+i], dst[start+j]
			if a.HeadL != b.HeadL {
				return a.HeadL < b.HeadL
			}
			if a.HeadR != b.HeadR {
				return a.HeadR < b.HeadR
			}
			return a.Tail < b.Tail
		})
	}
	return dst
}

// eachEmbedding calls visit on every embedding of the module, in
// enumeration order, until visit returns false, and reports whether it
// reached the end. It is the one statement of the enumeration rules.
func eachEmbedding(dp *datapath.Datapath, module string, allowPadHeads bool, visit func(Embedding) bool) bool {
	m := dp.Module(module)
	if m == nil {
		return true
	}
	diagonal := dp.ModuleDiagonal(module)
	skip := func(s string) bool { return interconnect.IsPad(s) && !allowPadHeads }
	rights := m.Right
	if len(rights) == 0 {
		rights = []string{""} // unary module: no right head
	}
	for _, l := range m.Left {
		if skip(l) {
			continue
		}
		for _, r := range rights {
			if r != "" && (skip(r) || (l == r && !diagonal)) {
				continue
			}
			for _, t := range m.Dests {
				if !visit(Embedding{Module: module, HeadL: l, HeadR: r, Tail: t}) {
					return false
				}
			}
		}
	}
	return true
}

// embeddingsOrdered reports whether the run is already in canonical
// (HeadL, HeadR, Tail) order.
func embeddingsOrdered(es []Embedding) bool {
	for i := 1; i < len(es); i++ {
		a, b := es[i-1], es[i]
		if a.HeadL != b.HeadL {
			if a.HeadL > b.HeadL {
				return false
			}
			continue
		}
		if a.HeadR != b.HeadR {
			if a.HeadR > b.HeadR {
				return false
			}
			continue
		}
		if a.Tail > b.Tail {
			return false
		}
	}
	return true
}

// ForcedCBILBOByEnumeration reports whether every embedding of the module
// requires a CBILBO register (the brute-force ground truth for Lemma 2).
// It returns false if the module has no embedding at all. It walks the
// enumeration without materializing it and stops at the first embedding
// that needs no CBILBO, so it allocates nothing.
func ForcedCBILBOByEnumeration(dp *datapath.Datapath, module string, allowPadHeads bool) bool {
	found := false
	all := eachEmbedding(dp, module, allowPadHeads, func(e Embedding) bool {
		found = true
		return e.NeedsCBILBO()
	})
	return found && all
}

// roles accumulates the duties assigned to a register across modules.
type roles struct {
	tpgFor []string
	saFor  []string
	cbilbo bool // head and tail for the same module
}

// Style derives the register style from its duties.
func (r roles) style() area.Style {
	switch {
	case r.cbilbo:
		return area.CBILBO
	case len(r.tpgFor) > 0 && len(r.saFor) > 0:
		return area.BILBO
	case len(r.tpgFor) > 0:
		return area.TPG
	case len(r.saFor) > 0:
		return area.SA
	}
	return area.Normal
}

// applyEmbedding merges an embedding's duties into a roles map (register
// names only; pad heads carry no cost).
func applyEmbedding(rr map[string]roles, e Embedding) {
	addTPG := func(h string) {
		if h == "" || interconnect.IsPad(h) {
			return
		}
		r := rr[h]
		r.tpgFor = append(r.tpgFor, e.Module)
		if h == e.Tail {
			r.cbilbo = true
		}
		rr[h] = r
	}
	addTPG(e.HeadL)
	addTPG(e.HeadR)
	t := rr[e.Tail]
	t.saFor = append(t.saFor, e.Module)
	rr[e.Tail] = t
}

// stylesOf computes the per-register styles for a set of embeddings.
func stylesOf(embs map[string]Embedding) map[string]area.Style {
	rr := make(map[string]roles)
	for _, e := range embs {
		applyEmbedding(rr, e)
	}
	out := make(map[string]area.Style, len(rr))
	for reg, r := range rr {
		out[reg] = r.style()
	}
	return out
}

// extraArea sums the style upgrade costs.
func extraArea(m area.Model, styles map[string]area.Style) int {
	total := 0
	for _, s := range styles {
		total += m.StyleExtra(s)
	}
	return total
}
