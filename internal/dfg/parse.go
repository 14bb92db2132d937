package dfg

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Parse reads the textual DFG format:
//
//	dfg <name>
//	input <var> [<var>...]
//	op <name> <kind> <arg> [<arg>] -> <result> [@<step>]
//	output <var> [<var>...]
//	# comment
//
// Lines may appear in any order as long as operands are declared before
// use. Parse validates the graph before returning it.
func Parse(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	g := New("unnamed")
	ln := 0
	var outputs []string
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "dfg":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: want 'dfg <name>'", ln)
			}
			g.Name = fields[1]
		case "input":
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: 'input' needs at least one variable", ln)
			}
			if err := g.AddInput(fields[1:]...); err != nil {
				return nil, fmt.Errorf("line %d: %v", ln, err)
			}
		case "output":
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: 'output' needs at least one variable", ln)
			}
			outputs = append(outputs, fields[1:]...)
		case "op":
			if err := parseOp(g, fields[1:]); err != nil {
				return nil, fmt.Errorf("line %d: %v", ln, err)
			}
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", ln, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := g.MarkOutput(outputs...); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func parseOp(g *Graph, f []string) error {
	// <name> <kind> <arg> [<arg>] -> <result> [@<step>]
	if len(f) < 5 {
		return fmt.Errorf("op: want '<name> <kind> <args...> -> <result> [@step]'")
	}
	name, kind := f[0], Kind(f[1])
	arrow := -1
	for i, tok := range f {
		if tok == "->" {
			arrow = i
			break
		}
	}
	if arrow < 3 || arrow > 4 || arrow+1 >= len(f) {
		return fmt.Errorf("op %s: malformed (missing or misplaced '->')", name)
	}
	args := f[2:arrow]
	result := f[arrow+1]
	step := 0
	if arrow+2 < len(f) {
		tok := f[arrow+2]
		if !strings.HasPrefix(tok, "@") {
			return fmt.Errorf("op %s: trailing token %q (want @<step>)", name, tok)
		}
		n, err := strconv.Atoi(tok[1:])
		if err != nil {
			return fmt.Errorf("op %s: bad step %q", name, tok)
		}
		step = n
	}
	return g.AddOp(name, kind, step, result, args...)
}

// ParseString is Parse over a string.
func ParseString(s string) (*Graph, error) { return Parse(strings.NewReader(s)) }

// WriteText emits the graph in the format accepted by Parse.
func (g *Graph) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "dfg %s\n", g.Name)
	if ins := g.Inputs(); len(ins) > 0 {
		fmt.Fprintf(bw, "input %s\n", strings.Join(ins, " "))
	}
	ops := append([]*Op(nil), g.ops...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Step < ops[j].Step })
	for _, o := range ops {
		fmt.Fprintf(bw, "op %s %s %s -> %s", o.Name, o.Kind, strings.Join(o.Args, " "), o.Result)
		if o.Step > 0 {
			fmt.Fprintf(bw, " @%d", o.Step)
		}
		fmt.Fprintln(bw)
	}
	if outs := g.Outputs(); len(outs) > 0 {
		fmt.Fprintf(bw, "output %s\n", strings.Join(outs, " "))
	}
	return bw.Flush()
}

// Text returns the graph in the format accepted by Parse.
func (g *Graph) Text() string {
	var sb strings.Builder
	g.WriteText(&sb)
	return sb.String()
}
