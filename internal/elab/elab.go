package elab

import (
	"fmt"
	"sort"

	"bistpath/internal/area"
	"bistpath/internal/bist"
	"bistpath/internal/bistgen"
	"bistpath/internal/datapath"
	"bistpath/internal/dfg"
	"bistpath/internal/gates"
	"bistpath/internal/interconnect"
)

// Region is a contiguous gate-index range attributed to one structural
// element, used for per-element area accounting and fault grading.
type Region struct {
	Lo, Hi int // gates index range [Lo, Hi)
}

// Gates returns the number of gates in the region.
func (r Region) Gates() int { return r.Hi - r.Lo }

// Module is the gate-level realization of one functional module with
// its input multiplexers.
type Module struct {
	Name  string
	Kinds []dfg.Kind
	// Select inputs (one-hot), keyed by source identifier.
	LeftSel  map[string]gates.Sig
	RightSel map[string]gates.Sig
	// KindSel selects the operation for multi-kind (ALU) modules; nil
	// for single-kind modules.
	KindSel map[dfg.Kind]gates.Sig
	Out     []gates.Sig
	// FuncRegion covers the functional unit(s); MuxRegion the port
	// multiplexers.
	FuncRegion Region
	MuxRegion  Region
}

// BuildOptions configures elaboration.
type BuildOptions struct {
	// Controller synthesizes an on-chip microcode controller (step
	// counter plus decoded control signals) instead of exposing the
	// normal-mode control signals as primary inputs. The resulting
	// netlist runs its schedule autonomously from reset; BIST mode
	// signals (tpg/sa and port selects during test) remain external, so
	// gate-level test runs require a controller-free build.
	Controller bool
}

// Design is a fully elaborated gate-level data path.
type Design struct {
	Net   *gates.Netlist
	Width int
	Pads  map[string][]gates.Sig
	Regs  map[string]*TestRegister
	// RegSel are the register-input select lines: register -> source ->
	// control input.
	RegSel map[string]map[string]gates.Sig
	// RegMuxRegion covers each register's input multiplexer;
	// RegCellRegion its storage/BIST cell logic.
	RegMuxRegion  map[string]Region
	RegCellRegion map[string]Region
	Mods          map[string]*Module

	// HasController reports whether normal-mode control is generated
	// on-chip; StepCounter is the controller's state bus when so.
	HasController bool
	StepCounter   []gates.Sig

	ctlSigs map[string]gates.Sig // controller-driven control signals
	dp      *datapath.Datapath
	plan    *bist.Plan
}

// ctl allocates a 1-bit control signal: a primary input normally, or a
// placeholder the controller drives later.
func (d *Design) ctl(name string) gates.Sig {
	if !d.HasController {
		return d.Net.InputBus(name, 1)[0]
	}
	s := d.Net.Sig()
	d.Net.Name(name, []gates.Sig{s})
	d.ctlSigs[name] = s
	return s
}

// Build elaborates the data path. A nil plan produces plain registers
// (the pre-BIST design); with a plan, each register is built in the
// style the plan assigns.
func Build(dp *datapath.Datapath, plan *bist.Plan) (*Design, error) {
	return BuildWithOptions(dp, plan, BuildOptions{})
}

// BuildWithOptions elaborates the data path with explicit options.
func BuildWithOptions(dp *datapath.Datapath, plan *bist.Plan, opts BuildOptions) (*Design, error) {
	n := gates.New()
	d := &Design{
		Net:           n,
		Width:         dp.Width,
		Pads:          make(map[string][]gates.Sig),
		Regs:          make(map[string]*TestRegister),
		RegSel:        make(map[string]map[string]gates.Sig),
		RegMuxRegion:  make(map[string]Region),
		RegCellRegion: make(map[string]Region),
		Mods:          make(map[string]*Module),
		HasController: opts.Controller,
		ctlSigs:       make(map[string]gates.Sig),
		dp:            dp,
		plan:          plan,
	}
	// Pads.
	for _, p := range dp.InPads {
		d.Pads[p] = n.InputBus(p, dp.Width)
	}
	// Registers, phase 1: allocate outputs. Registers that generate
	// patterns for the same module receive different primitive
	// polynomials so their operand streams are uncorrelated.
	tapsFor := assignTaps(dp, plan)
	for _, r := range dp.Regs {
		style := area.Normal
		if plan != nil {
			if s, ok := plan.Styles[r.Name]; ok {
				style = s
			}
		}
		tr, err := NewTestRegisterWithTaps(n, r.Name, style, dp.Width, tapsFor[r.Name])
		if err != nil {
			return nil, err
		}
		d.Regs[r.Name] = tr
	}
	src := func(id string) ([]gates.Sig, error) {
		if interconnect.IsPad(id) {
			bus, ok := d.Pads[id]
			if !ok {
				return nil, fmt.Errorf("elab: unknown pad %s", id)
			}
			return bus, nil
		}
		if tr, ok := d.Regs[id]; ok {
			return tr.Q, nil
		}
		if m, ok := d.Mods[id]; ok {
			return m.Out, nil
		}
		return nil, fmt.Errorf("elab: unknown source %s", id)
	}
	// Modules (depend only on register Qs and pads).
	for _, m := range dp.Modules {
		gm, err := d.buildModule(m, src)
		if err != nil {
			return nil, err
		}
		d.Mods[m.Name] = gm
	}
	// Registers, phase 2: input muxes and next-state logic.
	for _, r := range dp.Regs {
		sels := make(map[string]gates.Sig, len(r.Sources))
		var selList []gates.Sig
		var buses [][]gates.Sig
		muxLo := n.NumGates()
		for _, s := range r.Sources {
			sel := d.ctl(r.Name + ".sel." + s)
			sels[s] = sel
			bus, err := src(s)
			if err != nil {
				return nil, err
			}
			selList = append(selList, sel)
			buses = append(buses, bus)
		}
		din := n.OneHotMux(selList, buses)
		loadEn := gates.Zero
		for _, sel := range selList {
			if loadEn == gates.Zero {
				loadEn = sel
			} else {
				loadEn = n.Or2(loadEn, sel)
			}
		}
		muxHi := n.NumGates()
		cellLo := n.NumGates()
		if err := d.Regs[r.Name].WireInput(n, din, loadEn); err != nil {
			return nil, err
		}
		d.RegSel[r.Name] = sels
		d.RegMuxRegion[r.Name] = Region{muxLo, muxHi}
		d.RegCellRegion[r.Name] = Region{cellLo, n.NumGates()}
	}
	// Primary outputs: the Q buses of the registers holding each output
	// variable (sampled by the harness at the right cycle).
	for _, o := range dp.Outputs {
		for _, r := range dp.Regs {
			for _, v := range r.Vars {
				if v == o {
					n.Name("out:"+o, d.Regs[r.Name].Q)
				}
			}
		}
	}
	if opts.Controller {
		d.buildController()
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// buildController synthesizes the on-chip microcode controller: a
// saturating step counter plus, per control signal, the OR of the
// decoded steps in which the control program asserts it.
func (d *Design) buildController() {
	n := d.Net
	words := d.NormalControl()
	last := len(words) - 1
	cw := 1
	for 1<<uint(cw) < len(words) {
		cw++
	}
	counter := n.NewFeedbackRegister(cw)
	inc, _ := n.AddBus(counter.Q, n.ConstBus(cw, 1), gates.Zero)
	atLast := n.EqConst(counter.Q, uint64(last))
	counter.WireD(n.MuxBus(atLast, inc, counter.Q), gates.One)
	d.StepCounter = counter.Q
	n.Name("ctrl.step", counter.Q)
	// The counter value is the step about to EXECUTE: controls for step
	// s decode counter == s.
	decode := make([]gates.Sig, len(words))
	for s := range words {
		decode[s] = n.EqConst(counter.Q, uint64(s))
	}
	// Collect, per control name, the asserting steps.
	bySig := make(map[string][]int)
	for s, w := range words {
		for name, on := range w {
			if on {
				bySig[name] = append(bySig[name], s)
			}
		}
	}
	var names []string
	for name := range d.ctlSigs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		val := gates.Zero
		for _, s := range bySig[name] {
			val = n.OrF(val, decode[s])
		}
		n.Drive(d.ctlSigs[name], val)
	}
}

// assignTaps colors the "co-head" relation (register pairs that feed
// the two ports of one module under the plan's embeddings) so that
// paired pattern generators use different primitive polynomials:
// same-polynomial TPG pairs would apply only a fixed phase-shifted orbit
// of 2^w-1 operand pairs, leaving many faults unexercised. Greedy
// first-fit coloring over the pair graph, one polynomial per color.
func assignTaps(dp *datapath.Datapath, plan *bist.Plan) map[string]uint64 {
	primary, _ := bistgen.PrimitiveTaps(dp.Width)
	out := make(map[string]uint64, len(dp.Regs))
	for _, r := range dp.Regs {
		out[r.Name] = primary
	}
	if plan == nil {
		return out
	}
	adj := make(map[string]map[string]bool)
	for _, e := range plan.Embeddings {
		if e.HeadR == "" || interconnect.IsPad(e.HeadL) || interconnect.IsPad(e.HeadR) {
			continue
		}
		if adj[e.HeadL] == nil {
			adj[e.HeadL] = make(map[string]bool)
		}
		if adj[e.HeadR] == nil {
			adj[e.HeadR] = make(map[string]bool)
		}
		adj[e.HeadL][e.HeadR] = true
		adj[e.HeadR][e.HeadL] = true
	}
	var names []string
	for n := range adj {
		names = append(names, n)
	}
	sort.Strings(names)
	color := make(map[string]int)
	maxColor := 0
	for _, v := range names {
		used := make(map[int]bool)
		for u := range adj[v] {
			if c, ok := color[u]; ok {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		color[v] = c
		if c > maxColor {
			maxColor = c
		}
	}
	taps := bistgen.DistinctTaps(dp.Width, maxColor+1)
	for name, c := range color {
		out[name] = taps[c%len(taps)]
	}
	return out
}

// buildModule elaborates one functional module: port muxes, one
// functional unit per kind, and (for ALUs) a one-hot kind mux.
func (d *Design) buildModule(m *datapath.Module, src func(string) ([]gates.Sig, error)) (*Module, error) {
	n := d.Net
	w := d.Width
	gm := &Module{
		Name:     m.Name,
		Kinds:    append([]dfg.Kind(nil), m.Kinds...),
		LeftSel:  make(map[string]gates.Sig),
		RightSel: make(map[string]gates.Sig),
	}
	muxLo := n.NumGates()
	port := func(sources []string, side string, selMap map[string]gates.Sig) ([]gates.Sig, error) {
		var sels []gates.Sig
		var buses [][]gates.Sig
		for _, s := range sources {
			sel := d.ctl(m.Name + "." + side + "sel." + s)
			selMap[s] = sel
			bus, err := src(s)
			if err != nil {
				return nil, err
			}
			sels = append(sels, sel)
			buses = append(buses, bus)
		}
		if len(buses) == 1 {
			// Single source: wired directly, no mux gates; the select
			// input still exists for controller uniformity.
			return buses[0], nil
		}
		return n.OneHotMux(sels, buses), nil
	}
	left, err := port(m.Left, "l", gm.LeftSel)
	if err != nil {
		return nil, err
	}
	var right []gates.Sig
	if len(m.Right) > 0 {
		right, err = port(m.Right, "r", gm.RightSel)
		if err != nil {
			return nil, err
		}
	}
	muxHi := n.NumGates()
	gm.MuxRegion = Region{muxLo, muxHi}

	funcLo := n.NumGates()
	results := make([][]gates.Sig, 0, len(m.Kinds))
	for _, k := range m.Kinds {
		r, err := buildKind(n, k, left, right, w)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	if len(m.Kinds) == 1 {
		gm.Out = results[0]
	} else {
		gm.KindSel = make(map[dfg.Kind]gates.Sig, len(m.Kinds))
		var sels []gates.Sig
		for _, k := range m.Kinds {
			sel := d.ctl(m.Name + ".op." + string(k))
			gm.KindSel[k] = sel
			sels = append(sels, sel)
		}
		gm.Out = n.OneHotMux(sels, results)
	}
	gm.FuncRegion = Region{funcLo, n.NumGates()}
	n.Name(m.Name+".out", gm.Out)
	return gm, nil
}

func buildKind(n *gates.Netlist, k dfg.Kind, a, b []gates.Sig, w int) ([]gates.Sig, error) {
	widen := func(bit gates.Sig) []gates.Sig {
		out := n.ConstBus(w, 0)
		out[0] = bit
		return out
	}
	switch k {
	case dfg.Add:
		return n.AddBusNoCarry(a, b, gates.Zero), nil
	case dfg.Sub:
		return n.SubBusNoBorrow(a, b), nil
	case dfg.Mul:
		return n.MulBus(a, b), nil
	case dfg.Div:
		return n.DivBus(a, b), nil
	case dfg.And:
		return n.BitwiseBus(gates.And, a, b), nil
	case dfg.Or:
		return n.BitwiseBus(gates.Or, a, b), nil
	case dfg.Xor:
		return n.BitwiseBus(gates.Xor, a, b), nil
	case dfg.Lt:
		return widen(n.LtBus(a, b)), nil
	case dfg.Gt:
		return widen(n.LtBus(b, a)), nil
	}
	return nil, fmt.Errorf("elab: unsupported kind %q", k)
}

// AreaReport summarizes literal gate counts per structural class.
type AreaReport struct {
	Functional   int // functional units
	PortMuxes    int // module input muxes
	RegMuxes     int // register input muxes
	RegCells     int // register/BIST cell logic (gates)
	DFFs         int
	TotalGates   int
	TotalSignals int
}

// MeasureArea tallies gate counts by region.
func (d *Design) MeasureArea() AreaReport {
	var r AreaReport
	for _, m := range d.Mods {
		r.Functional += m.FuncRegion.Gates()
		r.PortMuxes += m.MuxRegion.Gates()
	}
	for name := range d.Regs {
		r.RegMuxes += d.RegMuxRegion[name].Gates()
		r.RegCells += d.RegCellRegion[name].Gates()
	}
	r.DFFs = d.Net.NumDFFs()
	r.TotalGates = d.Net.NumGates()
	r.TotalSignals = d.Net.NumSignals()
	return r
}
