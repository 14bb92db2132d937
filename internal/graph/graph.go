// Package graph provides the undirected-graph machinery used by the
// allocation algorithms: conflict/compatibility graphs over string-named
// vertices, simplicial-vertex detection, perfect vertex elimination
// schemes (PVES) for chordal/interval graphs and greedy coloring.
package graph

import "sort"

// Undirected is a simple undirected graph with string vertices.
// The zero value is not usable; construct with NewUndirected.
type Undirected struct {
	order []string // insertion order
	adj   map[string]map[string]bool
}

// NewUndirected returns an empty graph.
func NewUndirected() *Undirected {
	return &Undirected{adj: make(map[string]map[string]bool)}
}

// AddVertex adds v if not present.
func (g *Undirected) AddVertex(v string) {
	if _, ok := g.adj[v]; ok {
		return
	}
	g.adj[v] = make(map[string]bool)
	g.order = append(g.order, v)
}

// AddEdge adds the edge {u,v}, creating vertices as needed.
// Self-loops are ignored.
func (g *Undirected) AddEdge(u, v string) {
	if u == v {
		return
	}
	g.AddVertex(u)
	g.AddVertex(v)
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// HasVertex reports whether v is present.
func (g *Undirected) HasVertex(v string) bool { _, ok := g.adj[v]; return ok }

// HasEdge reports whether {u,v} is an edge.
func (g *Undirected) HasEdge(u, v string) bool { return g.adj[u][v] }

// NumVertices returns the vertex count.
func (g *Undirected) NumVertices() int { return len(g.adj) }

// Vertices returns the vertices in insertion order.
func (g *Undirected) Vertices() []string { return append([]string(nil), g.order...) }

// SortedVertices returns the vertices sorted lexicographically.
func (g *Undirected) SortedVertices() []string {
	vs := g.Vertices()
	sort.Strings(vs)
	return vs
}

// Neighbors returns v's neighbors sorted lexicographically.
func (g *Undirected) Neighbors(v string) []string {
	var out []string
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy.
func (g *Undirected) Clone() *Undirected {
	c := NewUndirected()
	for _, v := range g.order {
		c.AddVertex(v)
	}
	for v, nb := range g.adj {
		for u := range nb {
			c.adj[v][u] = true
		}
	}
	return c
}

// RemoveVertex deletes v and all incident edges.
func (g *Undirected) RemoveVertex(v string) {
	for u := range g.adj[v] {
		delete(g.adj[u], v)
	}
	delete(g.adj, v)
	for i, w := range g.order {
		if w == v {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
}

// IsClique reports whether the given vertices are pairwise adjacent.
func (g *Undirected) IsClique(vs []string) bool {
	for i, v := range vs {
		for _, u := range vs[i+1:] {
			if !g.adj[v][u] {
				return false
			}
		}
	}
	return true
}
