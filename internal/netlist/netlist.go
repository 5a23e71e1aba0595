// Package netlist models the mapped gate-level design: instances of
// standard cells from the catalogue connected by nets, with primary
// inputs/outputs and an implicit ideal clock. It supports the operations
// synthesis needs — resizing instances within a footprint, inserting
// buffers, topological traversal — plus functional evaluation for
// equivalence checking and structural Verilog serialization.
package netlist

import (
	"fmt"
	"slices"
	"strconv"

	"stdcelltune/internal/stdcell"
)

// Netlist is a mapped design.
type Netlist struct {
	Name      string
	Cat       *stdcell.Catalogue
	Instances []*Instance
	Nets      []*Net

	nextInst int
	nextNet  int

	// Edit journal: registered observers get notified after each
	// mutation (see journal.go). The cached topological order is
	// invalidated only by topology edits; resizes never change the DAG.
	observers []Observer
	topoGen   uint64
	topoOrder []*Instance
	topoIndex []int // per instance ID, position in topoOrder
}

// Instance is one placed cell.
type Instance struct {
	ID   int
	Name string
	Spec *stdcell.Spec
	// In holds the net on each data input pin, aligned with
	// Spec.Inputs; Out the net each output pin drives, aligned with
	// Spec.Outputs. An unconnected pin holds nil. Both are windows of
	// one pin slice; Resize accepts only a spec with the same pin
	// lists, so every position stays valid.
	In  []*Net
	Out []*Net
}

// Input returns the net on the named input pin, or nil when the pin is
// unconnected or the cell has no such input.
func (inst *Instance) Input(pin string) *Net {
	if i := pinIndex(inst.Spec.Inputs, pin); i >= 0 {
		return inst.In[i]
	}
	return nil
}

// Output returns the net the named output pin drives, or nil when the
// pin is unconnected or the cell has no such output.
func (inst *Instance) Output(pin string) *Net {
	if i := pinIndex(inst.Spec.Outputs, pin); i >= 0 {
		return inst.Out[i]
	}
	return nil
}

// Sink is a net consumer: an instance input pin, or a primary output when
// Inst is nil.
type Sink struct {
	Inst *Instance
	Pin  string // pin name, or the primary-output name when Inst is nil
}

// Net connects one driver to its sinks.
type Net struct {
	ID     int
	Name   string
	Driver *Instance // nil when driven by a primary input
	DrvPin string    // driver output pin ("" for primary inputs)
	Sinks  []Sink

	PrimaryIn bool
}

// New creates an empty netlist over a catalogue.
func New(name string, cat *stdcell.Catalogue) *Netlist {
	return &Netlist{Name: name, Cat: cat}
}

// AddNet creates a floating net.
func (nl *Netlist) AddNet(name string) *Net {
	if name == "" {
		name = "n" + strconv.Itoa(nl.nextNet)
	}
	n := &Net{ID: nl.nextNet, Name: name}
	nl.nextNet++
	nl.Nets = append(nl.Nets, n)
	if len(nl.observers) != 0 {
		nl.notifyNewNet(n)
	}
	return n
}

// NetExtent returns the net-ID high-water mark: every net's ID is below
// it. Nets are only ever appended, so Nets[i].ID == i and the extent
// equals len(Nets); per-net arrays are sized by it without a scan.
func (nl *Netlist) NetExtent() int { return nl.nextNet }

// AddInput creates a primary-input net.
func (nl *Netlist) AddInput(name string) *Net {
	n := nl.AddNet(name)
	n.PrimaryIn = true
	return n
}

// MarkOutput registers the net as a primary output with the given name.
func (nl *Netlist) MarkOutput(name string, n *Net) {
	n.Sinks = append(n.Sinks, Sink{Inst: nil, Pin: name})
	if len(nl.observers) != 0 {
		nl.notifySinksChanged(n)
	}
}

// AddInstance places a cell. Connections are made with Connect/Drive.
func (nl *Netlist) AddInstance(name string, spec *stdcell.Spec) *Instance {
	if name == "" {
		name = "u" + strconv.Itoa(nl.nextInst)
	}
	nIn := len(spec.Inputs)
	pins := make([]*Net, nIn+len(spec.Outputs))
	inst := &Instance{
		ID:   nl.nextInst,
		Name: name,
		Spec: spec,
		In:   pins[:nIn:nIn],
		Out:  pins[nIn:],
	}
	nl.nextInst++
	nl.Instances = append(nl.Instances, inst)
	nl.bumpTopo()
	if len(nl.observers) != 0 {
		nl.notifyNewInstance(inst)
	}
	return inst
}

// Connect wires an instance input pin to a net. The pin must be one of
// the spec's data inputs; ParseVerilog checks names before it connects,
// so an unknown pin here is a caller bug and panics.
func (nl *Netlist) Connect(inst *Instance, pin string, n *Net) {
	i := mustPin(inst, inst.Spec.Inputs, pin)
	old := inst.In[i]
	if old != nil {
		nl.removeSink(old, inst, pin)
	}
	inst.In[i] = n
	n.Sinks = append(n.Sinks, Sink{Inst: inst, Pin: pin})
	nl.bumpTopo()
	if len(nl.observers) != 0 {
		nl.notifyConnect(inst, pin, old, n)
	}
}

// Drive wires an instance output pin as the driver of a net. Like
// Connect, it panics on a pin the spec does not have.
func (nl *Netlist) Drive(inst *Instance, pin string, n *Net) {
	inst.Out[mustPin(inst, inst.Spec.Outputs, pin)] = n
	n.Driver = inst
	n.DrvPin = pin
	nl.bumpTopo()
	if len(nl.observers) != 0 {
		nl.notifyDrive(inst, pin, n)
	}
}

// mustPin returns the position of pin in pins, the instance's input or
// output list.
func mustPin(inst *Instance, pins []string, pin string) int {
	i := pinIndex(pins, pin)
	if i < 0 {
		panic(fmt.Sprintf("netlist: %s (%s) has no pin %q", inst.Name, inst.Spec.Name, pin))
	}
	return i
}

func (nl *Netlist) removeSink(n *Net, inst *Instance, pin string) {
	for i, s := range n.Sinks {
		if s.Inst == inst && s.Pin == pin {
			n.Sinks = append(n.Sinks[:i], n.Sinks[i+1:]...)
			return
		}
	}
}

// Resize swaps an instance to a different drive strength of the same
// footprint. The new spec must belong to the same family and list the
// same pins, so every connection keeps its position.
func (nl *Netlist) Resize(inst *Instance, to *stdcell.Spec) error {
	if to.Family != inst.Spec.Family {
		return fmt.Errorf("netlist: resize %s across footprints %s -> %s", inst.Name, inst.Spec.Family, to.Family)
	}
	if !slices.Equal(to.Inputs, inst.Spec.Inputs) || !slices.Equal(to.Outputs, inst.Spec.Outputs) {
		return fmt.Errorf("netlist: resize %s: %s and %s list different pins", inst.Name, inst.Spec.Name, to.Name)
	}
	from := inst.Spec
	inst.Spec = to
	if len(nl.observers) != 0 {
		nl.notifyResize(inst, from, to)
	}
	return nil
}

// InsertBuffer splits net n: the given sinks move behind a new buffer
// instance driven by n. Returns the buffer instance and its output net.
func (nl *Netlist) InsertBuffer(n *Net, spec *stdcell.Spec, sinks []Sink) (*Instance, *Net) {
	buf := nl.AddInstance("", spec)
	out := nl.AddNet("")
	nl.Drive(buf, spec.Outputs[0], out)
	for _, s := range sinks {
		if s.Inst == nil {
			// Re-point a primary output.
			nl.removeSinkPO(n, s.Pin)
			out.Sinks = append(out.Sinks, Sink{Inst: nil, Pin: s.Pin})
			if len(nl.observers) != 0 {
				nl.notifySinksChanged(out)
			}
			continue
		}
		nl.Connect(s.Inst, s.Pin, out)
	}
	nl.Connect(buf, spec.Inputs[0], n)
	return buf, out
}

// MoveSinks reattaches the given sinks of net from onto net to.
func (nl *Netlist) MoveSinks(from, to *Net, sinks []Sink) {
	for _, s := range sinks {
		if s.Inst == nil {
			nl.removeSinkPO(from, s.Pin)
			to.Sinks = append(to.Sinks, Sink{Inst: nil, Pin: s.Pin})
			if len(nl.observers) != 0 {
				nl.notifySinksChanged(to)
			}
			continue
		}
		nl.Connect(s.Inst, s.Pin, to)
	}
}

func (nl *Netlist) removeSinkPO(n *Net, name string) {
	for i, s := range n.Sinks {
		if s.Inst == nil && s.Pin == name {
			n.Sinks = append(n.Sinks[:i], n.Sinks[i+1:]...)
			if len(nl.observers) != 0 {
				nl.notifySinksChanged(n)
			}
			return
		}
	}
}

// PrimaryInputs returns the primary-input nets in creation order.
func (nl *Netlist) PrimaryInputs() []*Net {
	var out []*Net
	for _, n := range nl.Nets {
		if n.PrimaryIn {
			out = append(out, n)
		}
	}
	return out
}

// PrimaryOutputs returns (name, net) pairs for all primary outputs.
func (nl *Netlist) PrimaryOutputs() []Sink {
	var out []Sink
	for _, n := range nl.Nets {
		for _, s := range n.Sinks {
			if s.Inst == nil {
				out = append(out, Sink{Inst: nil, Pin: s.Pin})
			}
		}
	}
	return out
}

// OutputNet returns the net driving the named primary output, or nil.
func (nl *Netlist) OutputNet(name string) *Net {
	for _, n := range nl.Nets {
		for _, s := range n.Sinks {
			if s.Inst == nil && s.Pin == name {
				return n
			}
		}
	}
	return nil
}

// Clone deep-copies the netlist: instances, nets and connectivity are
// duplicated (preserving IDs, names and pin positions); specs are shared
// (immutable). Used by ECO-style passes that must not mutate a cached
// design. The copy is a fixed number of slabs whatever the design size:
// one each for instances, nets, pin connections and sinks, with
// pointers translated by ID (Instances[i].ID == i, Nets[i].ID == i).
// Clone only reads nl, so concurrent clones of one netlist are safe.
func (nl *Netlist) Clone() *Netlist {
	cp := &Netlist{
		Name: nl.Name, Cat: nl.Cat,
		nextInst: nl.nextInst, nextNet: nl.nextNet,
		Instances: make([]*Instance, len(nl.Instances)),
		Nets:      make([]*Net, len(nl.Nets)),
	}
	insts := make([]Instance, len(nl.Instances))
	nets := make([]Net, len(nl.Nets))
	npins, nsinks := 0, 0
	for _, inst := range nl.Instances {
		npins += len(inst.In) + len(inst.Out)
	}
	for _, n := range nl.Nets {
		nsinks += len(n.Sinks)
	}
	pins := make([]*Net, npins)
	sinks := make([]Sink, nsinks)
	netOf := func(n *Net) *Net {
		if n == nil {
			return nil
		}
		return &nets[n.ID]
	}
	for i, inst := range nl.Instances {
		ni := &insts[i]
		*ni = Instance{ID: inst.ID, Name: inst.Name, Spec: inst.Spec}
		nIn, nOut := len(inst.In), len(inst.Out)
		ni.In, ni.Out = pins[:nIn:nIn], pins[nIn:nIn+nOut:nIn+nOut]
		pins = pins[nIn+nOut:]
		for j, n := range inst.In {
			ni.In[j] = netOf(n)
		}
		for j, n := range inst.Out {
			ni.Out[j] = netOf(n)
		}
		cp.Instances[i] = ni
	}
	for i, n := range nl.Nets {
		nn := &nets[i]
		*nn = Net{ID: n.ID, Name: n.Name, DrvPin: n.DrvPin, PrimaryIn: n.PrimaryIn}
		if n.Driver != nil {
			nn.Driver = &insts[n.Driver.ID]
		}
		k := len(n.Sinks)
		nn.Sinks, sinks = sinks[:k:k], sinks[k:]
		for j, s := range n.Sinks {
			nn.Sinks[j].Pin = s.Pin
			if s.Inst != nil {
				nn.Sinks[j].Inst = &insts[s.Inst.ID]
			}
		}
		cp.Nets[i] = nn
	}
	return cp
}

// Area sums the cell area of all instances (um^2).
func (nl *Netlist) Area() float64 {
	a := 0.0
	for _, inst := range nl.Instances {
		a += inst.Spec.Area()
	}
	return a
}

// CellUse returns instance counts per cell name — the Fig. 9 histogram
// data.
func (nl *Netlist) CellUse() map[string]int {
	m := make(map[string]int)
	for _, inst := range nl.Instances {
		m[inst.Spec.Name]++
	}
	return m
}

// Sequentials returns all flip-flop and latch instances.
func (nl *Netlist) Sequentials() []*Instance {
	var out []*Instance
	for _, inst := range nl.Instances {
		if inst.Spec.IsSequential() {
			out = append(out, inst)
		}
	}
	return out
}

// TopoOrder returns the combinational instances in topological order:
// every instance appears after the drivers of its data inputs.
// Sequential instances are sources (their outputs are cycle boundaries)
// and are listed first. Returns an error on a combinational cycle.
//
// The order is cached and invalidated only by topology edits (Connect,
// Drive, AddInstance); resizes reuse it untouched. The returned slice is
// shared with the cache — callers must not mutate it.
func (nl *Netlist) TopoOrder() ([]*Instance, error) {
	if nl.topoOrder != nil {
		return nl.topoOrder, nil
	}
	state := make([]int8, len(nl.Instances)) // 0 unvisited, 1 visiting, 2 done
	order := make([]*Instance, 0, len(nl.Instances))
	var visit func(inst *Instance) error
	visit = func(inst *Instance) error {
		switch state[inst.ID] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("netlist: combinational cycle through %s", inst.Name)
		}
		state[inst.ID] = 1
		if !inst.Spec.IsSequential() {
			for _, n := range inst.In {
				if n == nil || n.Driver == nil {
					continue
				}
				if n.Driver.Spec.IsSequential() {
					continue
				}
				if err := visit(n.Driver); err != nil {
					return err
				}
			}
		}
		state[inst.ID] = 2
		order = append(order, inst)
		return nil
	}
	// Sequentials first (sources), then everything reachable.
	for _, inst := range nl.Instances {
		if inst.Spec.IsSequential() {
			state[inst.ID] = 2
			order = append(order, inst)
		}
	}
	for _, inst := range nl.Instances {
		if state[inst.ID] == 0 {
			if err := visit(inst); err != nil {
				return nil, err
			}
		}
	}
	nl.topoOrder = order
	nl.topoIndex = make([]int, len(nl.Instances))
	for i, inst := range order {
		nl.topoIndex[inst.ID] = i
	}
	return order, nil
}

// Validate checks structural sanity: every instance input pin connected,
// every output pin driving a net, every net with at most one driver, and
// no dangling non-PI nets used as inputs.
func (nl *Netlist) Validate() error {
	for _, inst := range nl.Instances {
		spec := inst.Spec
		for i, pin := range spec.Inputs {
			if inst.In[i] == nil {
				return fmt.Errorf("netlist: %s input %s unconnected", inst.Name, pin)
			}
		}
		// Clock/reset pins are ideal and may be left implicit; outputs
		// must drive something only if connected at all.
		connected := false
		for i, pin := range spec.Outputs {
			n := inst.Out[i]
			if n == nil {
				continue
			}
			connected = true
			if n.Driver != inst || n.DrvPin != pin {
				return fmt.Errorf("netlist: %s output %s driver mismatch", inst.Name, pin)
			}
		}
		if !connected {
			return fmt.Errorf("netlist: %s has no outputs connected", inst.Name)
		}
	}
	for _, n := range nl.Nets {
		if n.PrimaryIn && n.Driver != nil {
			return fmt.Errorf("netlist: net %s is both primary input and driven", n.Name)
		}
		for _, s := range n.Sinks {
			if s.Inst != nil && s.Inst.Input(s.Pin) != n {
				return fmt.Errorf("netlist: net %s sink %s.%s back-pointer broken", n.Name, s.Inst.Name, s.Pin)
			}
		}
	}
	return nil
}

// Depths returns, per instance ID, the combinational cell depth: number
// of combinational cells on the longest path from any source (PI or
// sequential output) up to and including the instance. Sequential cells
// have depth 0.
func (nl *Netlist) Depths() (map[int]int, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	d := make(map[int]int, len(order))
	for _, inst := range order {
		if inst.Spec.IsSequential() {
			d[inst.ID] = 0
			continue
		}
		m := 0
		for _, n := range inst.In {
			if n == nil || n.Driver == nil || n.Driver.Spec.IsSequential() {
				continue
			}
			if d[n.Driver.ID] > m {
				m = d[n.Driver.ID]
			}
		}
		d[inst.ID] = m + 1
	}
	return d, nil
}
