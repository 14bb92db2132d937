// Package modassign binds DFG operations to functional modules. Per the
// paper (Section III), module binding is performed first, without
// testability considerations, using standard area-driven algorithms; the
// register binder then treats the module binding as fixed and derives
// from it the input/output variable sets that drive test-resource
// sharing.
package modassign

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"bistpath/internal/dfg"
)

// Class describes a kind of functional module: the set of operation kinds
// a module of this class can execute in one control step. A single-kind
// class is an ordinary functional unit ("*", "+"); a multi-kind class is
// an ALU.
type Class struct {
	Name  string
	Kinds []dfg.Kind
}

// Executes reports whether the class can perform kind k.
func (c Class) Executes(k dfg.Kind) bool {
	for _, x := range c.Kinds {
		if x == k {
			return true
		}
	}
	return false
}

// UnitClass returns the single-kind class for k, named after the kind.
func UnitClass(k dfg.Kind) Class { return Class{Name: string(k), Kinds: []dfg.Kind{k}} }

// ALUClass returns a multi-kind class named "ALU".
func ALUClass(kinds ...dfg.Kind) Class { return Class{Name: "ALU", Kinds: kinds} }

// Module is one allocated functional module with its bound operations.
type Module struct {
	Name  string
	Class Class
	Ops   []string // op names, sorted by control step
}

// Binding is a complete operation→module map.
type Binding struct {
	Modules []*Module
	byOp    map[string]*Module
	byName  map[string]*Module
}

// ModuleOf returns the module an op is bound to, or nil.
func (b *Binding) ModuleOf(op string) *Module { return b.byOp[op] }

// Module returns the named module, or nil.
func (b *Binding) Module(name string) *Module { return b.byName[name] }

// InputVarSet returns I_M: all operand variables over the module's
// instances (Definition 3), sorted.
func (b *Binding) InputVarSet(g *dfg.Graph, module string) []string {
	m := b.byName[module]
	if m == nil {
		return nil
	}
	set := make(map[string]bool)
	for _, opName := range m.Ops {
		for _, a := range g.Op(opName).Args {
			set[a] = true
		}
	}
	return sortedKeys(set)
}

// OutputVarSet returns O_M: all result variables over the module's
// instances (Definition 3), sorted.
func (b *Binding) OutputVarSet(g *dfg.Graph, module string) []string {
	m := b.byName[module]
	if m == nil {
		return nil
	}
	set := make(map[string]bool)
	for _, opName := range m.Ops {
		set[g.Op(opName).Result] = true
	}
	return sortedKeys(set)
}

// InstanceOperands returns, per instance (bound op) of the module, the
// operand variable set I^j_M used by Lemma 2's per-instance conditions.
func (b *Binding) InstanceOperands(g *dfg.Graph, module string) [][]string {
	m := b.byName[module]
	if m == nil {
		return nil
	}
	out := make([][]string, 0, len(m.Ops))
	for _, opName := range m.Ops {
		args := append([]string(nil), g.Op(opName).Args...)
		sort.Strings(args)
		out = append(out, args)
	}
	return out
}

// Validate checks that every op is bound exactly once to a class-
// compatible module and no module executes two ops in the same step.
func (b *Binding) Validate(g *dfg.Graph) error {
	bound := make(map[string]bool)
	for _, m := range b.Modules {
		steps := make(map[int]string)
		for _, opName := range m.Ops {
			op := g.Op(opName)
			if op == nil {
				return fmt.Errorf("modassign: module %s binds unknown op %q", m.Name, opName)
			}
			if bound[opName] {
				return fmt.Errorf("modassign: op %q bound twice", opName)
			}
			bound[opName] = true
			if !m.Class.Executes(op.Kind) {
				return fmt.Errorf("modassign: module %s (class %s) cannot execute op %q kind %q",
					m.Name, m.Class.Name, opName, op.Kind)
			}
			if prev, clash := steps[op.Step]; clash {
				return fmt.Errorf("modassign: module %s runs %q and %q both at step %d",
					m.Name, prev, opName, op.Step)
			}
			steps[op.Step] = opName
		}
	}
	for _, op := range g.Ops() {
		if !bound[op.Name] {
			return fmt.Errorf("modassign: op %q unbound", op.Name)
		}
	}
	return nil
}

func (b *Binding) String() string {
	var sb strings.Builder
	for i, m := range b.Modules {
		if i > 0 {
			sb.WriteString("; ")
		}
		fmt.Fprintf(&sb, "%s(%s)={%s}", m.Name, m.Class.Name, strings.Join(m.Ops, ","))
	}
	return sb.String()
}

// Bind performs area-driven module binding: each op is mapped to the
// first listed class executing its kind, and within a class ops are
// packed onto the minimum number of modules by a left-edge pass over
// control steps (two ops share a module iff their steps differ). Module
// names are M1, M2, ... class by class: the classes in the order their
// first op was declared in g, not in the order of the classes list, and
// the modules of one class in the left-edge pass's (step, name) order.
// So permuting the graph's op declarations can rename modules.
func Bind(g *dfg.Graph, classes []Class) (*Binding, error) {
	if !g.Scheduled() {
		return nil, fmt.Errorf("modassign: graph %q is not scheduled", g.Name)
	}
	classOf := func(k dfg.Kind) (Class, error) {
		for _, c := range classes {
			if c.Executes(k) {
				return c, nil
			}
		}
		return Class{}, fmt.Errorf("modassign: no class executes kind %q", k)
	}
	// Group ops per class (by class name), ordering the classes by
	// their first op in declaration order.
	groups := make(map[string][]*dfg.Op)
	var classOrder []Class
	seen := make(map[string]bool)
	for _, op := range g.Ops() {
		c, err := classOf(op.Kind)
		if err != nil {
			return nil, err
		}
		groups[c.Name] = append(groups[c.Name], op)
		if !seen[c.Name] {
			seen[c.Name] = true
			classOrder = append(classOrder, c)
		}
	}
	b := &Binding{byOp: make(map[string]*Module), byName: make(map[string]*Module)}
	n := 0
	for _, c := range classOrder {
		ops := groups[c.Name]
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].Step != ops[j].Step {
				return ops[i].Step < ops[j].Step
			}
			return ops[i].Name < ops[j].Name
		})
		var mods []*Module
		for _, op := range ops {
			placed := false
			for _, m := range mods {
				if !moduleBusyAt(g, m, op.Step) {
					m.Ops = append(m.Ops, op.Name)
					b.byOp[op.Name] = m
					placed = true
					break
				}
			}
			if !placed {
				n++
				m := &Module{Name: fmt.Sprintf("M%d", n), Class: c, Ops: []string{op.Name}}
				mods = append(mods, m)
				b.Modules = append(b.Modules, m)
				b.byName[m.Name] = m
				b.byOp[op.Name] = m
			}
		}
	}
	return b, b.Validate(g)
}

// FromMap builds a binding from an explicit op→module-name map (used by
// the benchmark suite to pin the paper's module assignments). Class is
// inferred per module: the union of bound op kinds; a single kind yields
// a unit class, several kinds an ALU class.
func FromMap(g *dfg.Graph, opToModule map[string]string) (*Binding, error) {
	byName := make(map[string]*Module)
	var order []string
	for _, op := range g.Ops() {
		mn, ok := opToModule[op.Name]
		if !ok {
			return nil, fmt.Errorf("modassign: op %q missing from map", op.Name)
		}
		if _, ok := byName[mn]; !ok {
			byName[mn] = &Module{Name: mn}
			order = append(order, mn)
		}
		byName[mn].Ops = append(byName[mn].Ops, op.Name)
	}
	b := &Binding{byOp: make(map[string]*Module), byName: byName}
	sort.Strings(order)
	for _, mn := range order {
		m := byName[mn]
		kinds := make(map[dfg.Kind]bool)
		for _, opName := range m.Ops {
			kinds[g.Op(opName).Kind] = true
			b.byOp[opName] = m
		}
		var ks []dfg.Kind
		for k := range kinds {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		if len(ks) == 1 {
			m.Class = UnitClass(ks[0])
		} else {
			m.Class = ALUClass(ks...)
		}
		slices.SortFunc(m.Ops, func(a, b string) int {
			if c := cmp.Compare(g.Op(a).Step, g.Op(b).Step); c != 0 {
				return c
			}
			return strings.Compare(a, b)
		})
		b.Modules = append(b.Modules, m)
	}
	return b, b.Validate(g)
}

func moduleBusyAt(g *dfg.Graph, m *Module, step int) bool {
	for _, opName := range m.Ops {
		if g.Op(opName).Step == step {
			return true
		}
	}
	return false
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
