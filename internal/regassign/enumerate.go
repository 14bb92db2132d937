package regassign

import (
	"fmt"

	"bistpath/internal/dfg"
)

// EnumerateMinimumBindings enumerates every register binding that uses
// the minimum number of registers, as set partitions (each partition
// produced exactly once: a variable may open a new class only when all
// earlier classes have been tried, the standard canonical-order scheme).
// The paper quotes this count for its running example: "There are 108
// distinct assignments of the variables in E to three registers."
//
// Enumeration stops after `limit` partitions (0 = no limit) so callers
// can sample large spaces; the bool result reports whether the
// enumeration was complete.
func EnumerateMinimumBindings(g *dfg.Graph, limit int) ([][][]string, bool, error) {
	min, err := g.MinRegisters()
	if err != nil {
		return nil, false, err
	}
	return EnumerateBindings(g, min, limit)
}

// EnumerateBindings enumerates every register binding that uses exactly
// k registers, as canonical set partitions. It generalizes
// EnumerateMinimumBindings so oracles can grade non-minimal bindings —
// e.g. one where Lemma-2 avoidance opened an extra register — by
// enumerating the optimum over the same register count rather than
// declining. k below the chromatic number simply yields no partitions.
func EnumerateBindings(g *dfg.Graph, k, limit int) ([][][]string, bool, error) {
	conf, err := g.Conflicts()
	if err != nil {
		return nil, false, err
	}
	vars := g.AllocVars()
	var out [][][]string
	complete := true
	classes := make([][]string, 0, k)

	var rec func(i int) bool // returns false to abort (limit hit)
	rec = func(i int) bool {
		if i == len(vars) {
			if len(classes) == k {
				snap := make([][]string, len(classes))
				for ci, c := range classes {
					snap[ci] = append([]string(nil), c...)
				}
				out = append(out, snap)
				if limit > 0 && len(out) >= limit {
					return false
				}
			}
			return true
		}
		v := vars[i]
		// Prune: remaining variables cannot open enough new classes.
		if len(classes)+(len(vars)-i) < k {
			return true
		}
		for ci := range classes {
			ok := true
			for _, u := range classes[ci] {
				if conf[v][u] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			classes[ci] = append(classes[ci], v)
			if !rec(i + 1) {
				classes[ci] = classes[ci][:len(classes[ci])-1]
				return false
			}
			classes[ci] = classes[ci][:len(classes[ci])-1]
		}
		if len(classes) < k {
			classes = append(classes, []string{v})
			if !rec(i + 1) {
				classes = classes[:len(classes)-1]
				return false
			}
			classes = classes[:len(classes)-1]
		}
		return true
	}
	if !rec(0) {
		complete = false
	}
	return out, complete, nil
}

// BindingFromPartition wraps a partition as a validated Binding.
func BindingFromPartition(g *dfg.Graph, partition [][]string) (*Binding, error) {
	b := FromSets(partition)
	if err := b.Validate(g); err != nil {
		return nil, fmt.Errorf("regassign: partition invalid: %w", err)
	}
	return b, nil
}
