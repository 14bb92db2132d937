package bistgen

import (
	"fmt"

	"bistpath/internal/dfg"
)

// Site identifies where a stuck-at fault is injected on a module.
type Site int

// Fault sites.
const (
	PortL Site = iota
	PortR
	PortOut
)

func (s Site) String() string {
	switch s {
	case PortL:
		return "L"
	case PortR:
		return "R"
	default:
		return "OUT"
	}
}

// Fault is a single stuck-at fault on one bit of a module port.
type Fault struct {
	Module string
	Site   Site
	Bit    int
	Stuck1 bool
}

func (f Fault) String() string {
	v := 0
	if f.Stuck1 {
		v = 1
	}
	return fmt.Sprintf("%s.%s[%d]/sa%d", f.Module, f.Site, f.Bit, v)
}

// EnumerateFaults lists every single stuck-at fault of a binary module of
// the given width (unary modules have no right-port faults).
func EnumerateFaults(module string, binary bool, width int) []Fault {
	var out []Fault
	sites := []Site{PortL, PortOut}
	if binary {
		sites = []Site{PortL, PortR, PortOut}
	}
	for _, s := range sites {
		for bit := 0; bit < width; bit++ {
			out = append(out, Fault{module, s, bit, false}, Fault{module, s, bit, true})
		}
	}
	return out
}

func applyStuck(v uint64, bit int, stuck1 bool) uint64 {
	if stuck1 {
		return v | 1<<uint(bit)
	}
	return v &^ (1 << uint(bit))
}

// EvalFaulty computes a module operation with an optional fault injected
// (nil fault = fault-free): the module executes the given kind on a, b
// with width-bit arithmetic (dfg.Kind.Apply). The fault's bit must lie
// below width, as EnumerateFaults guarantees.
func EvalFaulty(kind dfg.Kind, a, b uint64, width int, f *Fault) uint64 {
	if f == nil {
		return kind.Apply(a, b, width)
	}
	switch f.Site {
	case PortL:
		a = applyStuck(a, f.Bit, f.Stuck1)
	case PortR:
		b = applyStuck(b, f.Bit, f.Stuck1)
	}
	r := kind.Apply(a, b, width)
	if f.Site == PortOut {
		r = applyStuck(r, f.Bit, f.Stuck1)
	}
	return r
}
