package graph

import "fmt"

// IsSimplicial reports whether v's neighborhood induces a clique.
func (g *Undirected) IsSimplicial(v string) bool {
	return g.IsClique(g.Neighbors(v))
}

// SimplicialVertices returns all simplicial vertices, sorted.
func (g *Undirected) SimplicialVertices() []string {
	var out []string
	for _, v := range g.SortedVertices() {
		if g.IsSimplicial(v) {
			out = append(out, v)
		}
	}
	return out
}

// PVES constructs a perfect vertex elimination scheme: an ordering
// v1..vn such that each vi is simplicial in the subgraph induced by
// {vi..vn}. At every step the simplicial vertex minimizing the supplied
// priority is eliminated (ties broken lexicographically); this is the
// hook the paper's register binder uses to prefer low-SD / low-MCS
// variables early in the scheme (Section III.A.1).
//
// PVES fails (returns an error) iff the graph is not chordal.
func (g *Undirected) PVES(priority func(v string) int) ([]string, error) {
	if priority == nil {
		priority = func(string) int { return 0 }
	}
	work := g.Clone()
	scheme := make([]string, 0, g.NumVertices())
	for work.NumVertices() > 0 {
		simp := work.SimplicialVertices()
		if len(simp) == 0 {
			return nil, fmt.Errorf("graph is not chordal: no simplicial vertex among %d remaining", work.NumVertices())
		}
		best := simp[0]
		for _, v := range simp[1:] {
			if priority(v) < priority(best) {
				best = v
			}
		}
		scheme = append(scheme, best)
		work.RemoveVertex(best)
	}
	return scheme, nil
}

// VerifyPVES checks that the ordering is a valid perfect vertex
// elimination scheme for g.
func (g *Undirected) VerifyPVES(scheme []string) error {
	if len(scheme) != g.NumVertices() {
		return fmt.Errorf("scheme has %d vertices, graph has %d", len(scheme), g.NumVertices())
	}
	remaining := make(map[string]bool, len(scheme))
	for _, v := range scheme {
		if !g.HasVertex(v) {
			return fmt.Errorf("scheme vertex %q not in graph", v)
		}
		if remaining[v] {
			return fmt.Errorf("scheme repeats vertex %q", v)
		}
		remaining[v] = true
	}
	work := g.Clone()
	for _, v := range scheme {
		if !work.IsSimplicial(v) {
			return fmt.Errorf("vertex %q is not simplicial at its elimination point", v)
		}
		work.RemoveVertex(v)
	}
	return nil
}
