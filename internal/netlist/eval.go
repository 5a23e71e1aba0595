package netlist

import (
	"fmt"

	"stdcelltune/internal/stdcell"
)

// muxData names the MUX4 data pins by select value.
var muxData = [4]string{"D0", "D1", "D2", "D3"}

// pinIndex returns the position of name in pins, or -1.
func pinIndex(pins []string, name string) int {
	for i, p := range pins {
		if p == name {
			return i
		}
	}
	return -1
}

// evalCell is the one definition of every cell function. in holds the
// input values aligned with spec.Inputs, state the captured value of a
// sequential cell; the outputs land in out, aligned with spec.Outputs.
// A pin the function names but the spec lacks reads false.
func evalCell(spec *stdcell.Spec, in []bool, state bool, out []bool) error {
	get := func(pin string) bool {
		i := pinIndex(spec.Inputs, pin)
		return i >= 0 && in[i]
	}
	put := func(pin string, v bool) {
		if i := pinIndex(spec.Outputs, pin); i >= 0 {
			out[i] = v
		}
	}
	switch spec.Kind {
	case stdcell.KindInv:
		put("Y", !get("A"))
	case stdcell.KindBuf:
		put("Y", get("A"))
	case stdcell.KindOr:
		v := false
		for _, b := range in {
			v = v || b
		}
		put("Y", v)
	case stdcell.KindNand:
		v := true
		for i, p := range spec.Inputs {
			v = v && in[i] != (p == "AN")
		}
		put("Y", !v)
	case stdcell.KindNor:
		v := false
		for i, p := range spec.Inputs {
			v = v || in[i] != (p == "AN")
		}
		put("Y", !v)
	case stdcell.KindXnor:
		v := false
		for _, b := range in {
			v = v != b
		}
		put("Y", !v)
	case stdcell.KindAddFull, stdcell.KindAddCarry:
		a, b, ci := get("A"), get("B"), get("CI")
		put("S", a != b != ci)
		co := (a && b) || (ci && (a != b))
		if spec.Kind == stdcell.KindAddCarry {
			put("CON", !co)
		} else {
			put("CO", co)
		}
	case stdcell.KindAddHalf:
		a, b := get("A"), get("B")
		put("S", a != b)
		put("CO", a && b)
	case stdcell.KindMux:
		if spec.Family == "MUX4" {
			idx := 0
			if get("S0") {
				idx |= 1
			}
			if get("S1") {
				idx |= 2
			}
			put("Y", get(muxData[idx]))
		} else if get("S") {
			put("Y", get("D1"))
		} else {
			put("Y", get("D0"))
		}
	case stdcell.KindDFF, stdcell.KindLatch:
		for i, o := range spec.Outputs {
			out[i] = state != (o == "QN")
		}
	case stdcell.KindTie:
		put("Y", spec.Family == "TIEH")
	default:
		return fmt.Errorf("netlist: cannot evaluate kind %v", spec.Kind)
	}
	return nil
}

// EvalCell evaluates the boolean function of a combinational cell (or the
// output of a sequential cell given its captured state in ins["__state"]).
// ins maps input pin names to values, a missing pin reading false; the
// result maps output pin names to values.
func EvalCell(spec *stdcell.Spec, ins map[string]bool) (map[string]bool, error) {
	in := make([]bool, len(spec.Inputs))
	for i, p := range spec.Inputs {
		in[i] = ins[p]
	}
	out := make([]bool, len(spec.Outputs))
	if err := evalCell(spec, in, ins["__state"], out); err != nil {
		return nil, err
	}
	m := make(map[string]bool, len(out))
	for i, p := range spec.Outputs {
		m[p] = out[i]
	}
	return m, nil
}

// Simulator evaluates a mapped netlist cycle by cycle, for equivalence
// checking against the source logic network and for power's activity
// extraction. A step walks the instances in topological order, reads
// each one's pin slices, and moves net values and flop state in slices
// indexed by ID; it allocates nothing per gate.
//
// A simulator is bound to the topology it was built on: after an
// AddInstance, Connect or Drive, Step and Advance return an error
// rather than simulate a stale design. A Resize between steps is
// honoured, as every step reads each instance's current spec.
type Simulator struct {
	nl    *Netlist
	gen   uint64 // nl.TopoGen() at construction
	order []*Instance
	seqs  []seqCapture
	state []bool // per instance ID: captured value
	nets  []bool // per net ID: value after the last step
	in    []bool // scratch, one cell's inputs
	out   []bool // scratch, one cell's outputs
}

// seqCapture is one sequential instance and the net its D pin samples.
type seqCapture struct {
	id, d int
}

// NewSimulator builds a simulator; all state elements start at zero.
func NewSimulator(nl *Netlist) (*Simulator, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		nl: nl, gen: nl.TopoGen(), order: order,
		state: make([]bool, nl.nextInst),
		nets:  make([]bool, nl.NetExtent()),
	}
	width := 0
	for _, inst := range order {
		width = max(width, len(inst.In), len(inst.Out))
		if inst.Spec.IsSequential() {
			if d := inst.Input("D"); d != nil {
				s.seqs = append(s.seqs, seqCapture{id: inst.ID, d: d.ID})
			}
		}
	}
	s.in, s.out = make([]bool, width), make([]bool, width)
	return s, nil
}

// SetState forces the captured value of a sequential instance by name.
func (s *Simulator) SetState(instName string, v bool) {
	for _, inst := range s.nl.Instances {
		if inst.Name == instName && inst.ID < len(s.state) {
			s.state[inst.ID] = v
			return
		}
	}
}

// Step applies primary-input values (by net name), settles combinational
// logic, samples primary outputs, then clocks every sequential element.
func (s *Simulator) Step(inputs map[string]bool) (map[string]bool, error) {
	if err := s.settle(inputs); err != nil {
		return nil, err
	}
	result := make(map[string]bool)
	for _, n := range s.nl.Nets {
		for _, snk := range n.Sinks {
			if snk.Inst == nil {
				result[snk.Pin] = s.nets[n.ID]
			}
		}
	}
	s.capture()
	return result, nil
}

// Advance is Step without sampling the primary outputs, for callers
// that read nets through NetValue.
func (s *Simulator) Advance(inputs map[string]bool) error {
	if err := s.settle(inputs); err != nil {
		return err
	}
	s.capture()
	return nil
}

// settle applies the primary inputs and evaluates every instance in
// topological order.
func (s *Simulator) settle(inputs map[string]bool) error {
	if g := s.nl.TopoGen(); g != s.gen {
		return fmt.Errorf("netlist: simulator of %s is stale: topology edited since it was built", s.nl.Name)
	}
	if ext := s.nl.NetExtent(); ext > len(s.nets) {
		s.nets = append(s.nets, make([]bool, ext-len(s.nets))...)
	}
	for _, n := range s.nl.Nets {
		if n.PrimaryIn {
			s.nets[n.ID] = inputs[n.Name]
		}
	}
	for _, inst := range s.order {
		in, out := s.in[:len(inst.In)], s.out[:len(inst.Out)]
		for j, n := range inst.In {
			in[j] = n != nil && s.nets[n.ID]
		}
		clear(out)
		if err := evalCell(inst.Spec, in, s.state[inst.ID], out); err != nil {
			return err
		}
		for j, n := range inst.Out {
			if n != nil {
				s.nets[n.ID] = out[j]
			}
		}
	}
	return nil
}

// capture is the clock edge: every sequential element takes its D.
func (s *Simulator) capture() {
	for _, q := range s.seqs {
		s.state[q.id] = s.nets[q.d]
	}
}

// NetValue returns the value of a net after the last Step or Advance.
func (s *Simulator) NetValue(n *Net) bool { return n.ID < len(s.nets) && s.nets[n.ID] }
