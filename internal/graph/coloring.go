package graph

import (
	"fmt"
	"sort"
)

// GreedyColor colors vertices in the given order, assigning each vertex
// the smallest color not used by an already-colored neighbor. For a
// reverse perfect-elimination order of a chordal graph this is optimal
// (Golumbic); for arbitrary orders it is the standard greedy heuristic.
// Colors are 0-based.
func (g *Undirected) GreedyColor(order []string) (map[string]int, error) {
	if len(order) != g.NumVertices() {
		return nil, fmt.Errorf("order has %d vertices, graph has %d", len(order), g.NumVertices())
	}
	colors := make(map[string]int, len(order))
	for _, v := range order {
		if !g.HasVertex(v) {
			return nil, fmt.Errorf("order vertex %q not in graph", v)
		}
		if _, dup := colors[v]; dup {
			return nil, fmt.Errorf("order repeats vertex %q", v)
		}
		used := make(map[int]bool)
		for u := range g.adj[v] {
			if c, ok := colors[u]; ok {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors, nil
}

// OptimalChordalColor colors a chordal graph with the minimum number of
// colors by greedy coloring in reverse perfect-elimination order.
func (g *Undirected) OptimalChordalColor() (map[string]int, error) {
	scheme, err := g.PVES(nil)
	if err != nil {
		return nil, err
	}
	rev := make([]string, len(scheme))
	for i, v := range scheme {
		rev[len(scheme)-1-i] = v
	}
	return g.GreedyColor(rev)
}

// VerifyColoring checks that the coloring is proper and complete.
func (g *Undirected) VerifyColoring(colors map[string]int) error {
	for _, v := range g.Vertices() {
		if _, ok := colors[v]; !ok {
			return fmt.Errorf("vertex %q uncolored", v)
		}
	}
	for _, v := range g.Vertices() {
		for u := range g.adj[v] {
			if colors[v] == colors[u] {
				return fmt.Errorf("adjacent vertices %q and %q share color %d", v, u, colors[v])
			}
		}
	}
	return nil
}

// ColorClasses groups vertices by color; classes are sorted internally and
// ordered by color index.
func ColorClasses(colors map[string]int) [][]string {
	byColor := make(map[int][]string)
	maxC := -1
	for v, c := range colors {
		byColor[c] = append(byColor[c], v)
		if c > maxC {
			maxC = c
		}
	}
	out := make([][]string, 0, maxC+1)
	for c := 0; c <= maxC; c++ {
		class := byColor[c]
		sort.Strings(class)
		out = append(out, class)
	}
	return out
}
