// Package sched schedules data flow graphs. The DAC'95 allocation flow
// assumes a scheduled DFG as input; this package supplies the standard
// algorithms (ASAP, ALAP, resource-constrained list scheduling) so the
// library is usable from an unscheduled behavioral description.
package sched

import (
	"fmt"
	"sort"

	"bistpath/internal/dfg"
)

// ASAP returns the as-soon-as-possible schedule: each op runs at
// 1 + max(step of producers of its operands), with primary inputs
// available before step 1.
func ASAP(g *dfg.Graph) (map[string]int, error) {
	steps := make(map[string]int, len(g.Ops()))
	remaining := len(g.Ops())
	for remaining > 0 {
		progressed := false
		for _, o := range g.Ops() {
			if _, done := steps[o.Name]; done {
				continue
			}
			ready := true
			step := 1
			for _, a := range o.Args {
				v := g.Var(a)
				if v.IsInput {
					continue
				}
				ps, ok := steps[v.Def]
				if !ok {
					ready = false
					break
				}
				if ps+1 > step {
					step = ps + 1
				}
			}
			if ready {
				steps[o.Name] = step
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("sched: ASAP stuck on %q (cycle?)", g.Name)
		}
	}
	return steps, nil
}

// Length returns the number of steps used by a schedule.
func Length(steps map[string]int) int {
	max := 0
	for _, s := range steps {
		if s > max {
			max = s
		}
	}
	return max
}

// ALAP returns the as-late-as-possible schedule for the given latency
// bound. It fails if the bound is below the critical path length.
func ALAP(g *dfg.Graph, latency int) (map[string]int, error) {
	asap, err := ASAP(g)
	if err != nil {
		return nil, err
	}
	if cp := Length(asap); latency < cp {
		return nil, fmt.Errorf("sched: latency %d below critical path %d", latency, cp)
	}
	// consumers[op] = ops that read op's result
	consumers := make(map[string][]string)
	for _, o := range g.Ops() {
		v := g.Var(o.Result)
		consumers[o.Name] = append([]string(nil), v.Uses...)
	}
	steps := make(map[string]int, len(g.Ops()))
	remaining := len(g.Ops())
	for remaining > 0 {
		progressed := false
		for _, o := range g.Ops() {
			if _, done := steps[o.Name]; done {
				continue
			}
			ready := true
			step := latency
			for _, c := range consumers[o.Name] {
				cs, ok := steps[c]
				if !ok {
					ready = false
					break
				}
				if cs-1 < step {
					step = cs - 1
				}
			}
			if ready {
				if step < 1 {
					return nil, fmt.Errorf("sched: ALAP infeasible at op %q", o.Name)
				}
				steps[o.Name] = step
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("sched: ALAP stuck on %q (cycle?)", g.Name)
		}
	}
	return steps, nil
}

// Limits bounds the number of concurrent operations per kind during list
// scheduling. A missing kind means unlimited.
type Limits map[dfg.Kind]int

// ListSchedule computes a resource-constrained schedule: at each step the
// ready ops are sorted by (mobility, name) and issued while per-kind
// limits allow. The returned schedule is minimal-latency for the greedy
// policy, not necessarily optimal.
func ListSchedule(g *dfg.Graph, limits Limits) (map[string]int, error) {
	asap, err := ASAP(g)
	if err != nil {
		return nil, err
	}
	// Mobility against a generous latency bound to get stable priorities.
	alap, err := ALAP(g, Length(asap)+len(g.Ops()))
	if err != nil {
		return nil, err
	}
	steps := make(map[string]int, len(g.Ops()))
	scheduled := 0
	for step := 1; scheduled < len(g.Ops()); step++ {
		if step > 10*(len(g.Ops())+1) {
			return nil, fmt.Errorf("sched: list scheduling diverged on %q", g.Name)
		}
		var ready []*dfg.Op
		for _, o := range g.Ops() {
			if _, done := steps[o.Name]; done {
				continue
			}
			ok := true
			for _, a := range o.Args {
				v := g.Var(a)
				if v.IsInput {
					continue
				}
				ps, done := steps[v.Def]
				if !done || ps >= step {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, o)
			}
		}
		sort.Slice(ready, func(i, j int) bool {
			mi := alap[ready[i].Name] - asap[ready[i].Name]
			mj := alap[ready[j].Name] - asap[ready[j].Name]
			if mi != mj {
				return mi < mj
			}
			return ready[i].Name < ready[j].Name
		})
		used := make(map[dfg.Kind]int)
		for _, o := range ready {
			if lim, bounded := limits[o.Kind]; bounded && used[o.Kind] >= lim {
				continue
			}
			steps[o.Name] = step
			used[o.Kind]++
			scheduled++
		}
	}
	return steps, nil
}

// Apply writes a schedule into the graph and validates it.
func Apply(g *dfg.Graph, steps map[string]int) error {
	for _, o := range g.Ops() {
		s, ok := steps[o.Name]
		if !ok {
			return fmt.Errorf("sched: no step for op %q", o.Name)
		}
		o.Step = s
	}
	return g.Validate()
}
