package elab

import (
	"fmt"
	"io"
	"strings"

	"bistpath/internal/bistgen"
	"bistpath/internal/dfg"
	"bistpath/internal/gates"
	"bistpath/internal/interconnect"
	"bistpath/internal/vcd"
)

// ControlWord is the set of asserted 1-bit control inputs for one cycle,
// keyed by control-input name (the microcode-ROM row).
type ControlWord map[string]bool

// NormalControl derives the per-step control program for functional
// operation: register source selects (loads from pads and modules) and
// module port/op selects.
func (d *Design) NormalControl() []ControlWord {
	steps := d.dp.Steps
	words := make([]ControlWord, len(steps))
	for i, st := range steps {
		w := make(ControlWord)
		for _, ld := range st.Loads {
			w[ld.Reg+".sel."+ld.Pad] = true
		}
		for _, mo := range st.Ops {
			w[mo.DestReg+".sel."+mo.Module] = true
			w[mo.Module+".lsel."+mo.LeftSrc] = true
			if mo.RightSrc != "" {
				w[mo.Module+".rsel."+mo.RightSrc] = true
			}
			if d.Mods[mo.Module].KindSel != nil {
				w[mo.Module+".op."+string(mo.Kind)] = true
			}
		}
		words[i] = w
	}
	return words
}

// applyWord drives every control input: asserted per the word, all
// others deasserted.
func (d *Design) applyWord(sim *gates.Sim, w ControlWord) {
	for _, name := range d.Net.NamedBuses() {
		if !isControlInput(name) {
			continue
		}
		sim.SetBus(d.Net.Named(name), boolTo(w[name]))
	}
}

func isControlInput(name string) bool {
	return strings.Contains(name, ".sel.") || strings.Contains(name, ".lsel.") ||
		strings.Contains(name, ".rsel.") || strings.Contains(name, ".op.") ||
		strings.HasSuffix(name, ".tpg") || strings.HasSuffix(name, ".sa")
}

func boolTo(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// RunNormal executes the control program on the gate-level design and
// returns the primary output values, using the same sampling convention
// as datapath.Simulate (outputs read from their register right after the
// latching edge).
func (d *Design) RunNormal(inputs map[string]uint64) (map[string]uint64, error) {
	sim, err := gates.NewSim(d.Net)
	if err != nil {
		return nil, err
	}
	return d.runNormal(sim, inputs, nil)
}

// runNormal drives the pads and clocks one cycle per control step,
// applying each step's control word unless the on-chip controller
// sequences the design. sample, when non-nil, runs on the settled
// values before every clock edge and once after the last.
func (d *Design) runNormal(sim *gates.Sim, inputs map[string]uint64, sample func()) (map[string]uint64, error) {
	for _, pad := range d.dp.InPads {
		name := strings.TrimPrefix(pad, interconnect.PadSource)
		v, ok := inputs[name]
		if !ok {
			return nil, fmt.Errorf("elab: missing input %q", name)
		}
		sim.SetBus(d.Pads[pad], v)
	}
	lts, err := d.dp.Graph().Lifetimes()
	if err != nil {
		return nil, err
	}
	var words []ControlWord
	if !d.HasController {
		words = d.NormalControl()
	}
	outs := make(map[string]uint64)
	for s := range d.dp.Steps {
		if !d.HasController {
			d.applyWord(sim, words[s])
		}
		if sample != nil {
			sim.Eval()
			sample()
		}
		sim.Step()
		for _, o := range d.dp.Outputs {
			if lts[o].Born == s {
				bus := d.Net.Named("out:" + o)
				if bus == nil {
					return nil, fmt.Errorf("elab: output %s has no register bus", o)
				}
				outs[o] = sim.ReadBus(bus)
			}
		}
	}
	if sample != nil {
		sim.Eval()
		sample()
	}
	return outs, nil
}

// CheckAgainstDFG runs the gate-level design on the inputs and compares
// every output against direct DFG evaluation.
func (d *Design) CheckAgainstDFG(inputs map[string]uint64) error {
	want, err := d.dp.Graph().Eval(inputs, d.Width)
	if err != nil {
		return err
	}
	got, err := d.RunNormal(inputs)
	if err != nil {
		return err
	}
	for _, o := range d.dp.Outputs {
		if got[o] != want[o] {
			return fmt.Errorf("elab: output %s = %d at gate level, DFG says %d", o, got[o], want[o])
		}
	}
	return nil
}

// testControl builds the control word for testing one module in one
// operation mode under its planned embedding: pattern generators on,
// the signature register selecting and compacting the module output.
func (d *Design) testControl(module string, kind dfg.Kind) (ControlWord, error) {
	if d.plan == nil {
		return nil, fmt.Errorf("elab: design has no BIST plan")
	}
	if d.HasController {
		return nil, fmt.Errorf("elab: gate-level test runs need a controller-free build (normal-mode controls are driven on-chip)")
	}
	emb, ok := d.plan.Embeddings[module]
	if !ok {
		return nil, fmt.Errorf("elab: no embedding for module %s", module)
	}
	w := make(ControlWord)
	w[module+".lsel."+emb.HeadL] = true
	if emb.HeadR != "" {
		w[module+".rsel."+emb.HeadR] = true
	}
	if d.Mods[module].KindSel != nil {
		w[module+".op."+string(kind)] = true
	}
	for _, h := range []string{emb.HeadL, emb.HeadR} {
		if h == "" || interconnect.IsPad(h) {
			continue
		}
		tr := d.Regs[h]
		if tr.TPGEn == gates.Zero {
			return nil, fmt.Errorf("elab: head %s has no TPG mode (style %v)", h, tr.Style)
		}
		w[h+".tpg"] = true
	}
	tail := d.Regs[emb.Tail]
	if tail.SAEn == gates.Zero {
		return nil, fmt.Errorf("elab: tail %s has no SA mode (style %v)", emb.Tail, tail.Style)
	}
	w[emb.Tail+".sa"] = true
	w[emb.Tail+".sel."+module] = true
	return w, nil
}

// TestRun is the result of one gate-level BIST run of a module.
type TestRun struct {
	Module    string
	Patterns  int
	Signature uint64
}

// RunModuleTest drives one module's BIST session on a fresh simulator:
// head registers are scan-seeded, then `patterns` clocks run with the
// test control word per operation mode while the tail compacts. Pad
// heads receive externally generated pseudo-random words (I-paths from
// primary inputs, Definition 1).
//
// Do not use a pattern count that is a multiple of the generator period
// 2^w-1: compacting over whole periods telescopes the MISR sum to a
// fault-independent signature (the session length folklore rule "run
// 2^n-1 patterns" actually means strictly less than a full period per
// mode). 250 is the canonical count for 8-bit data paths.
func (d *Design) RunModuleTest(module string, patterns int, seed uint64, fault *gates.StuckAt) (*TestRun, error) {
	sim, err := gates.NewSim(d.Net)
	if err != nil {
		return nil, err
	}
	sim.SetFault(fault)
	return d.runModuleTestOn(sim, module, patterns, seed)
}

func (d *Design) runModuleTestOn(sim *gates.Sim, module string, patterns int, seed uint64) (*TestRun, error) {
	emb := d.plan.Embeddings[module]
	// Scan-in distinct nonzero seeds into the head registers.
	seedOf := func(name string, salt uint64) uint64 {
		s := (seed ^ bistgen.HashName(name) ^ salt) & ((1 << uint(d.Width)) - 1)
		if s == 0 {
			s = 1
		}
		return s
	}
	var padGens []func() // external pattern feeders for pad heads
	for i, h := range []string{emb.HeadL, emb.HeadR} {
		if h == "" {
			continue
		}
		salt := uint64(i + 1)
		if interconnect.IsPad(h) {
			bus := d.Pads[h]
			state := seedOf(h, salt)
			padGens = append(padGens, func() {
				state = extLFSRNext(state, d.Width)
				sim.SetBus(bus, state)
			})
			continue
		}
		sim.SetBus(d.Regs[h].Q, seedOf(h, salt))
	}
	// Clear the signature rank.
	sim.SetBus(d.Regs[emb.Tail].SigQ, 0)

	m := d.Mods[module]
	sig := uint64(0)
	// Each mode runs as two sub-sessions with independent scan-in seeds.
	// Because every bit of a Fibonacci LFSR is a time shift of one
	// sequence, the module's output bits are shifts of one error
	// sequence, and a single-phase MISR run can cancel shift-invariant
	// error bulk for some bit offsets; re-seeding changes the phase
	// relation so such structured aliasing cannot survive both halves.
	reseed := func(salt uint64) {
		for i, h := range []string{emb.HeadL, emb.HeadR} {
			if h == "" || interconnect.IsPad(h) {
				continue
			}
			sim.SetBus(d.Regs[h].Q, seedOf(h, salt+uint64(i)+1))
		}
	}
	for _, kind := range m.Kinds {
		w, err := d.testControl(module, kind)
		if err != nil {
			return nil, err
		}
		d.applyWord(sim, w)
		half := patterns / 2
		for phase, count := range []int{half, patterns - half} {
			if phase == 1 {
				reseed(0x5A)
			}
			for p := 0; p < count; p++ {
				for _, g := range padGens {
					g()
				}
				sim.Step()
			}
		}
		sig = sim.ReadBus(d.Regs[emb.Tail].SigQ)
	}
	return &TestRun{Module: module, Patterns: patterns, Signature: sig}, nil
}

// GateCoverage grades every stuck-at fault inside the module's
// functional region against the fault-free signature — true gate-level
// fault simulation of the synthesized BIST plan.
func (d *Design) GateCoverage(module string, patterns int, seed uint64) (faults, detected int, err error) {
	golden, err := d.RunModuleTest(module, patterns, seed, nil)
	if err != nil {
		return 0, 0, err
	}
	region := d.Mods[module].FuncRegion
	sim, err := gates.NewSim(d.Net)
	if err != nil {
		return 0, 0, err
	}
	for gi := region.Lo; gi < region.Hi; gi++ {
		out := d.Net.Gates[gi].Out
		for _, v := range []bool{false, true} {
			faults++
			sim.Reset()
			sim.SetFault(&gates.StuckAt{Sig: out, Value: v})
			run, err := d.runModuleTestOn(sim, module, patterns, seed)
			if err != nil {
				return 0, 0, err
			}
			if run.Signature != golden.Signature {
				detected++
			}
		}
	}
	return faults, detected, nil
}

// extLFSRNext advances an external (software) pattern generator for pad
// heads; any full-period recurrence works since the pads are driven by
// the tester, not by on-chip hardware.
func extLFSRNext(state uint64, width int) uint64 {
	mask := (uint64(1) << uint(width)) - 1
	state = (state*2862933555777941757 + 3037000493)
	state &= mask
	if state == 0 {
		state = 1
	}
	return state
}

// RunNormalVCD executes the control program like RunNormal while dumping
// every named bus of the netlist as a VCD waveform to w.
func (d *Design) RunNormalVCD(inputs map[string]uint64, w io.Writer) (map[string]uint64, error) {
	sim, err := gates.NewSim(d.Net)
	if err != nil {
		return nil, err
	}
	dump, err := vcd.New(w, d.Net, sim, nil)
	if err != nil {
		return nil, err
	}
	outs, err := d.runNormal(sim, inputs, dump.Sample)
	if err != nil {
		return nil, err
	}
	if err := dump.Close(); err != nil {
		return nil, err
	}
	return outs, nil
}
