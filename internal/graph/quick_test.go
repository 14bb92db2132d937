package graph

import (
	"fmt"
	"testing"
	"testing/quick"
)

// fromMask builds a graph on n vertices whose edges are the bits of mask.
func fromMask(n int, mask uint64) *Undirected {
	g := NewUndirected()
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("v%02d", i)
		g.AddVertex(names[i])
	}
	bit := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if mask&(1<<uint(bit%64)) != 0 {
				g.AddEdge(names[i], names[j])
			}
			bit++
		}
	}
	return g
}

// Clone produces an equal, independent graph.
func TestCloneEqualQuick(t *testing.T) {
	prop := func(mask uint64, nn uint8) bool {
		n := int(nn%6) + 2
		g := fromMask(n, mask)
		c := g.Clone()
		if c.NumVertices() != g.NumVertices() || numEdges(c) != numEdges(g) {
			return false
		}
		for _, u := range g.Vertices() {
			for _, v := range g.Vertices() {
				if u != v && g.HasEdge(u, v) != c.HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Greedy coloring in any order is proper, and for chordal graphs the
// optimal chordal coloring never uses more colors than greedy.
func TestGreedyProperQuick(t *testing.T) {
	prop := func(mask uint64, nn uint8) bool {
		n := int(nn%6) + 2
		g := fromMask(n, mask)
		colors, err := g.GreedyColor(g.SortedVertices())
		if err != nil {
			return false
		}
		if err := g.VerifyColoring(colors); err != nil {
			return false
		}
		if _, err := g.PVES(nil); err == nil {
			opt, err := g.OptimalChordalColor()
			if err != nil {
				return false
			}
			if len(ColorClasses(opt)) > len(ColorClasses(colors)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
