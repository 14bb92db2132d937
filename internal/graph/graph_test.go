package graph

import (
	"reflect"
	"testing"
)

// path returns the path graph a-b-c-d.
func path() *Undirected {
	g := NewUndirected()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("c", "d")
	return g
}

// k4 returns the complete graph on {a,b,c,d}.
func k4() *Undirected {
	g := NewUndirected()
	vs := []string{"a", "b", "c", "d"}
	for i, u := range vs {
		for _, v := range vs[i+1:] {
			g.AddEdge(u, v)
		}
	}
	return g
}

// numEdges counts g's edges through its neighbor lists.
func numEdges(g *Undirected) int {
	n := 0
	for _, v := range g.Vertices() {
		n += len(g.Neighbors(v))
	}
	return n / 2
}

// c4 returns the 4-cycle a-b-c-d-a (not chordal).
func c4() *Undirected {
	g := NewUndirected()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("c", "d")
	g.AddEdge("d", "a")
	return g
}

func TestBasicOps(t *testing.T) {
	g := path()
	if g.NumVertices() != 4 || numEdges(g) != 3 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), numEdges(g))
	}
	if !g.HasEdge("a", "b") || !g.HasEdge("b", "a") {
		t.Error("edge a-b missing or asymmetric")
	}
	if g.HasEdge("a", "c") {
		t.Error("phantom edge a-c")
	}
	g.AddEdge("a", "a") // self loop ignored
	if g.HasEdge("a", "a") {
		t.Error("self loop stored")
	}
	g.AddEdge("a", "b") // duplicate ignored
	if numEdges(g) != 3 {
		t.Error("duplicate edge changed count")
	}
	if got := g.Neighbors("b"); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Errorf("Neighbors(b) = %v", got)
	}
	if got := g.Neighbors("a"); !reflect.DeepEqual(got, []string{"b"}) {
		t.Errorf("Neighbors(a) = %v", got)
	}
}

func TestRemoveVertex(t *testing.T) {
	g := path()
	g.RemoveVertex("b")
	if g.HasVertex("b") || g.HasEdge("a", "b") || g.HasEdge("c", "b") {
		t.Error("b not fully removed")
	}
	if g.NumVertices() != 3 || numEdges(g) != 1 {
		t.Errorf("after removal: %v", g)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := path()
	c := g.Clone()
	c.AddEdge("a", "d")
	if g.HasEdge("a", "d") {
		t.Error("clone shares adjacency")
	}
	c.RemoveVertex("a")
	if !g.HasVertex("a") {
		t.Error("clone shares vertex list")
	}
}

func TestIsClique(t *testing.T) {
	g := k4()
	if !g.IsClique([]string{"a", "b", "c", "d"}) {
		t.Error("K4 not recognized as clique")
	}
	p := path()
	if p.IsClique([]string{"a", "b", "c"}) {
		t.Error("path accepted as clique")
	}
	if !p.IsClique([]string{"a"}) || !p.IsClique(nil) {
		t.Error("trivial cliques rejected")
	}
}

func TestSimplicial(t *testing.T) {
	g := path()
	if !g.IsSimplicial("a") || !g.IsSimplicial("d") {
		t.Error("path endpoints should be simplicial")
	}
	if g.IsSimplicial("b") {
		t.Error("internal path vertex should not be simplicial")
	}
	if got := g.SimplicialVertices(); !reflect.DeepEqual(got, []string{"a", "d"}) {
		t.Errorf("SimplicialVertices = %v", got)
	}
	// Every vertex of a complete graph is simplicial.
	if got := k4().SimplicialVertices(); len(got) != 4 {
		t.Errorf("K4 simplicial = %v", got)
	}
}

func TestPVES(t *testing.T) {
	g := path()
	scheme, err := g.PVES(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyPVES(scheme); err != nil {
		t.Errorf("invalid PVES %v: %v", scheme, err)
	}
	// C4 is not chordal.
	if _, err := c4().PVES(nil); err == nil {
		t.Error("PVES succeeded on C4")
	}
	for _, g := range []*Undirected{k4(), path()} {
		if _, err := g.PVES(nil); err != nil {
			t.Errorf("chordal graph %v rejected: %v", g, err)
		}
	}
}

func TestPVESPriority(t *testing.T) {
	// Both endpoints of the path are simplicial; priority must pick d first.
	g := path()
	pri := map[string]int{"a": 2, "b": 0, "c": 0, "d": 1}
	scheme, err := g.PVES(func(v string) int { return pri[v] })
	if err != nil {
		t.Fatal(err)
	}
	if scheme[0] != "d" {
		t.Errorf("scheme = %v, want d first", scheme)
	}
	if err := g.VerifyPVES(scheme); err != nil {
		t.Error(err)
	}
}

func TestVerifyPVESErrors(t *testing.T) {
	g := path()
	if err := g.VerifyPVES([]string{"a"}); err == nil {
		t.Error("short scheme accepted")
	}
	if err := g.VerifyPVES([]string{"a", "a", "b", "c"}); err == nil {
		t.Error("repeated vertex accepted")
	}
	if err := g.VerifyPVES([]string{"b", "a", "c", "d"}); err == nil {
		t.Error("non-simplicial elimination accepted")
	}
	if err := g.VerifyPVES([]string{"z", "a", "b", "c"}); err == nil {
		t.Error("foreign vertex accepted")
	}
}

func TestGreedyColor(t *testing.T) {
	g := path()
	colors, err := g.GreedyColor([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyColoring(colors); err != nil {
		t.Error(err)
	}
	if len(ColorClasses(colors)) != 2 {
		t.Errorf("path colored with %d colors", len(ColorClasses(colors)))
	}
}

func TestGreedyColorErrors(t *testing.T) {
	g := path()
	if _, err := g.GreedyColor([]string{"a", "b"}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := g.GreedyColor([]string{"a", "a", "b", "c"}); err == nil {
		t.Error("dup order accepted")
	}
	if _, err := g.GreedyColor([]string{"a", "b", "c", "z"}); err == nil {
		t.Error("foreign vertex accepted")
	}
}

func TestOptimalChordalColor(t *testing.T) {
	g := k4()
	colors, err := g.OptimalChordalColor()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyColoring(colors); err != nil {
		t.Error(err)
	}
	if len(ColorClasses(colors)) != 4 {
		t.Errorf("K4 colored with %d colors, want 4", len(ColorClasses(colors)))
	}
	p, err := path().OptimalChordalColor()
	if err != nil {
		t.Fatal(err)
	}
	if len(ColorClasses(p)) != 2 {
		t.Errorf("path colored with %d colors, want 2", len(ColorClasses(p)))
	}
}

func TestVerifyColoring(t *testing.T) {
	g := path()
	bad := map[string]int{"a": 0, "b": 0, "c": 1, "d": 0}
	if err := g.VerifyColoring(bad); err == nil {
		t.Error("improper coloring accepted")
	}
	if err := g.VerifyColoring(map[string]int{"a": 0}); err == nil {
		t.Error("partial coloring accepted")
	}
}

func TestColorClasses(t *testing.T) {
	classes := ColorClasses(map[string]int{"a": 0, "b": 1, "c": 0})
	want := [][]string{{"a", "c"}, {"b"}}
	if !reflect.DeepEqual(classes, want) {
		t.Errorf("classes = %v", classes)
	}
}

// Property: conflict graphs of random interval sets are chordal, their
// optimal coloring equals the max point density, and PVES verification
// accepts the scheme.
func TestRandomIntervalGraphProperties(t *testing.T) {
	lcg := uint64(12345)
	next := func(n int) int {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int(lcg>>33) % n
	}
	for trial := 0; trial < 30; trial++ {
		nIv := 5 + next(12)
		type iv struct{ lo, hi int }
		ivs := make([]iv, nIv)
		for i := range ivs {
			lo := next(20)
			ivs[i] = iv{lo, lo + 1 + next(6)}
		}
		g := NewUndirected()
		names := make([]string, nIv)
		for i := range ivs {
			names[i] = string(rune('A'+i%26)) + string(rune('a'+i/26))
			g.AddVertex(names[i])
		}
		for i := range ivs {
			for j := i + 1; j < nIv; j++ {
				if ivs[i].lo < ivs[j].hi && ivs[j].lo < ivs[i].hi {
					g.AddEdge(names[i], names[j])
				}
			}
		}
		scheme, err := g.PVES(nil)
		if err != nil {
			t.Fatalf("trial %d: interval graph not chordal: %v", trial, err)
		}
		if err := g.VerifyPVES(scheme); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		colors, err := g.OptimalChordalColor()
		if err != nil {
			t.Fatal(err)
		}
		if err := g.VerifyColoring(colors); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Max density = chromatic number for interval graphs.
		maxDens := 0
		for p := 0; p < 30; p++ {
			d := 0
			for _, v := range ivs {
				if v.lo <= p && p < v.hi {
					d++
				}
			}
			if d > maxDens {
				maxDens = d
			}
		}
		if len(ColorClasses(colors)) != maxDens {
			t.Errorf("trial %d: %d colors, density %d", trial, len(ColorClasses(colors)), maxDens)
		}
	}
}
