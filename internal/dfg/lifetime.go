package dfg

import (
	"fmt"
)

// Lifetime is the register-occupancy interval of a variable. A variable is
// born at the control step of its producer (the value is latched into a
// register at the end of that step) and dies at the step of its last
// consumer (the value is read during that step). Primary inputs arrive
// just in time: they are born one step before their first use (loaded from
// an input port). A primary output must survive at least one step past its
// production so the environment can sample it.
//
// The occupancy interval is the half-open (Born, Dies]: the variable holds
// a register from the end of step Born through step Dies.
type Lifetime struct {
	Var  string
	Born int
	Dies int
}

// Overlaps reports whether two occupancy intervals intersect, i.e. whether
// the variables conflict and may not share a register.
func (l Lifetime) Overlaps(m Lifetime) bool {
	return l.Born < m.Dies && m.Born < l.Dies
}

func (l Lifetime) String() string {
	return fmt.Sprintf("%s:(%d,%d]", l.Var, l.Born, l.Dies)
}

// Lifetimes computes the lifetime of every variable of a scheduled graph.
// The result is keyed by variable name.
func (g *Graph) Lifetimes() (map[string]Lifetime, error) {
	if !g.Scheduled() {
		return nil, fmt.Errorf("dfg %s: lifetimes require a complete schedule", g.Name)
	}
	out := make(map[string]Lifetime, len(g.vars))
	for _, v := range g.vars {
		if v.IsPort {
			continue // port-fed inputs never occupy a register
		}
		lt := Lifetime{Var: v.Name}
		if v.IsInput {
			first := 0
			for _, u := range v.Uses {
				if s := g.opIx[u].Step; first == 0 || s < first {
					first = s
				}
			}
			if first > 0 {
				lt.Born = first - 1
			}
		} else {
			lt.Born = g.opIx[v.Def].Step
		}
		lt.Dies = lt.Born
		for _, u := range v.Uses {
			if s := g.opIx[u].Step; s > lt.Dies {
				lt.Dies = s
			}
		}
		if lt.Dies == lt.Born {
			// Produced and never read internally (a primary output, or an
			// unused input): the value still occupies a register for one
			// step so the environment can sample it.
			lt.Dies = lt.Born + 1
		}
		out[v.Name] = lt
	}
	return out, nil
}

// Conflicts returns, for each variable, the set of variables whose
// lifetimes overlap with it. The relation is symmetric and irreflexive.
func (g *Graph) Conflicts() (map[string]map[string]bool, error) {
	lts, err := g.Lifetimes()
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]bool, len(g.vars))
	names := g.AllocVars()
	for _, v := range names {
		out[v] = make(map[string]bool)
	}
	for i, u := range names {
		for _, v := range names[i+1:] {
			if lts[u].Overlaps(lts[v]) {
				out[u][v] = true
				out[v][u] = true
			}
		}
	}
	return out, nil
}

// CliqueSizes measures the interval conflict graph of a set of lifetimes
// from its density profile, the number of lifetimes occupying a register
// during each control step. It writes into mcs[i] the size of the largest
// clique containing lts[i] — the maximum density over its occupancy
// interval, the MCS(v) measure of the paper (Section III.A.1) — and
// returns the maximum density overall, which is both the largest clique
// and the minimum number of registers any binding needs. mcs may be nil.
// dens is scratch for the profile; it comes back, possibly grown, for
// reuse.
func CliqueSizes(lts []Lifetime, mcs, dens []int32) (int, []int32) {
	last := 0
	for _, lt := range lts {
		last = max(last, lt.Dies)
	}
	// A difference array over steps, then prefix sums: a lifetime
	// occupies a register during steps Born+1 .. Dies.
	if cap(dens) < last+2 {
		dens = make([]int32, last+2)
	}
	dens = dens[:last+2]
	clear(dens)
	for _, lt := range lts {
		dens[lt.Born+1]++
		dens[lt.Dies+1]--
	}
	maxDens := int32(0)
	for t := 1; t <= last; t++ {
		dens[t] += dens[t-1]
		maxDens = max(maxDens, dens[t])
	}
	if mcs != nil {
		for i, lt := range lts {
			m := int32(0)
			for t := lt.Born + 1; t <= lt.Dies; t++ {
				m = max(m, dens[t])
			}
			mcs[i] = m
		}
	}
	return int(maxDens), dens
}

// lifetimeList returns the lifetimes of Lifetimes in no particular order.
func (g *Graph) lifetimeList() ([]Lifetime, error) {
	lts, err := g.Lifetimes()
	if err != nil {
		return nil, err
	}
	out := make([]Lifetime, 0, len(lts))
	for _, lt := range lts {
		out = append(out, lt)
	}
	return out, nil
}

// MinRegisters returns the minimum number of registers needed by any valid
// binding, i.e. the maximum lifetime density.
func (g *Graph) MinRegisters() (int, error) {
	lts, err := g.lifetimeList()
	if err != nil {
		return 0, err
	}
	k, _ := CliqueSizes(lts, nil, nil)
	return k, nil
}

// MaxCliqueSize returns, for each variable v, the size of the largest
// conflict-graph clique containing v (see CliqueSizes).
func (g *Graph) MaxCliqueSize() (map[string]int, error) {
	lts, err := g.lifetimeList()
	if err != nil {
		return nil, err
	}
	mcs := make([]int32, len(lts))
	CliqueSizes(lts, mcs, nil)
	out := make(map[string]int, len(lts))
	for i, lt := range lts {
		out[lt.Var] = int(mcs[i])
	}
	return out, nil
}
