package regassign

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
)

// Fingerprint digests exactly the inputs the paper's binder projects the
// design onto — the working set binderState's initVars and initModules
// intern — so two (graph, module binding, options) triples with equal
// fingerprints are guaranteed to produce the identical Binding, decision
// trace and Metrics. The incremental re-synthesis layer diffs it to
// decide whether the register-bind phase of a previous run survives an
// edit.
//
// The serialized projection, in order:
//
//   - the allocatable variables (g.AllocVars order — which already
//     encodes port-mark edits, since port inputs are never allocatable);
//   - each variable's conflict row (the lifetime-overlap relation is the
//     ONLY way schedule steps reach the binder, so a rescheduling that
//     happens to preserve all overlaps fingerprints identically — that
//     is the reuse the Session exploits);
//   - each variable's interconnect endpoints as the binder scores them:
//     the defining source (its own pad for primary inputs, else the
//     bound module) and the destination module set plus the output pad;
//   - each module (sorted by name) with its class kinds and, per
//     instance in binding order, the allocatable operand set and result;
//   - the option toggles that gate the binder's mechanisms.
//
// Derived quantities (PVES ranks, max clique sizes, sharing degrees,
// Lemma-2 trials) are all pure functions of this projection: the
// conflict graph is an interval graph, so every maximal clique is a set
// of pairwise-overlapping lifetimes and MaxCliqueSize/MinRegisters
// follow from the conflict rows alone.
func Fingerprint(g *dfg.Graph, mb *modassign.Binding, opts Options) ([32]byte, error) {
	// Pairwise lifetime overlaps, exactly as binderState.initVars builds its
	// conflict rows (g.Conflicts would materialize the same relation as
	// nested maps — too slow for a per-Resynthesize check).
	lts, err := g.Lifetimes()
	if err != nil {
		return [32]byte{}, err
	}
	var sb strings.Builder
	sb.WriteString("regassign-fingerprint v1\n")

	names := g.AllocVars()
	alloc := make(map[string]bool, len(names))
	for _, n := range names {
		alloc[n] = true
	}
	fmt.Fprintf(&sb, "vars %s\n", strings.Join(names, " "))
	for _, n := range names {
		fmt.Fprintf(&sb, "conf %s:", n)
		for _, u := range names {
			if n != u && lts[n].Overlaps(lts[u]) {
				sb.WriteByte(' ')
				sb.WriteString(u)
			}
		}
		sb.WriteByte('\n')

		v := g.Var(n)
		fmt.Fprintf(&sb, "src %s:", n)
		if v.IsInput {
			sb.WriteString(" pad")
		} else {
			sb.WriteString(" " + mb.ModuleOf(v.Def).Name)
		}
		sb.WriteByte('\n')
		fmt.Fprintf(&sb, "dst %s:", n)
		dsts := make(map[string]bool)
		for _, u := range v.Uses {
			dsts[mb.ModuleOf(u).Name] = true
		}
		var dn []string
		for d := range dsts {
			dn = append(dn, d)
		}
		sort.Strings(dn)
		for _, d := range dn {
			sb.WriteByte(' ')
			sb.WriteString(d)
		}
		if v.IsOutput {
			sb.WriteString(" @out")
		}
		sb.WriteByte('\n')
	}

	modNames := make([]string, 0, len(mb.Modules))
	for _, m := range mb.Modules {
		modNames = append(modNames, m.Name)
	}
	sort.Strings(modNames)
	for _, name := range modNames {
		m := mb.Module(name)
		kinds := make([]string, len(m.Class.Kinds))
		for i, k := range m.Class.Kinds {
			kinds[i] = string(k)
		}
		fmt.Fprintf(&sb, "mod %s [%s]\n", name, strings.Join(kinds, ""))
		for _, opName := range m.Ops {
			op := g.Op(opName)
			fmt.Fprintf(&sb, "inst %s:", opName)
			for _, a := range op.Args {
				if alloc[a] {
					sb.WriteByte(' ')
					sb.WriteString(a)
				}
			}
			if alloc[op.Result] {
				sb.WriteString(" -> " + op.Result)
			}
			sb.WriteByte('\n')
		}
	}

	fmt.Fprintf(&sb, "opts %t %t %t %t\n",
		opts.SharingDegree, opts.CaseOverrides, opts.AvoidCBILBO, opts.InterconnectTies)
	return sha256.Sum256([]byte(sb.String())), nil
}
