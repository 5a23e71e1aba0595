// Package sta implements static timing analysis over a mapped netlist:
// fanout-based wire loads, LUT-interpolated cell delays and output slews
// propagated in topological order, endpoint slacks against a clock
// period with an uncertainty guard band (the paper uses 300 ps), and
// worst-path extraction per unique endpoint — the path set Figs. 12-14
// are computed from.
package sta

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"unsafe"

	"stdcelltune/internal/liberty"
	"stdcelltune/internal/netlist"
)

// Config holds the timing context.
type Config struct {
	ClockPeriod float64 // ns
	Uncertainty float64 // clock uncertainty / guard band, ns
	// WireCapPerFanout is the wire-load model: every sink adds this much
	// capacitance to the net (pF).
	WireCapPerFanout float64
	// InputSlew is the transition assumed at primary inputs and at clock
	// pins (ns).
	InputSlew float64
	// OutputLoad is the capacitance assumed at primary outputs (pF).
	OutputLoad float64
	// NetWireCap, when non-nil, overrides the fanout wire-load model
	// with an exact per-net-ID wire capacitance (pF) — typically derived
	// from placement wirelength (internal/place). Nets beyond the slice
	// fall back to the fanout model.
	NetWireCap []float64
}

// wireCap returns the wire capacitance of a net under the configured
// model.
func (c Config) wireCap(netID, fanout int) float64 {
	if c.NetWireCap != nil && netID < len(c.NetWireCap) {
		return c.NetWireCap[netID]
	}
	return c.WireCapPerFanout * float64(fanout)
}

// DefaultConfig returns the timing context used by the experiments:
// 300 ps guard band, 1.5 fF per fanout, 50 ps input slew, 5 fF output
// loads.
func DefaultConfig(period float64) Config {
	return Config{
		ClockPeriod:      period,
		Uncertainty:      0.3,
		WireCapPerFanout: 0.0015,
		InputSlew:        0.05,
		OutputLoad:       0.005,
	}
}

// Result is the outcome of one timing analysis pass.
type Result struct {
	Cfg Config

	// Per net ID.
	Load    []float64 // capacitive load seen by the driver
	Arrival []float64 // worst data arrival at the net
	Slew    []float64 // transition at the net

	// Path backtracking: per net ID, the instance input pin whose arc set
	// the arrival (empty for PI / sequential-launch nets).
	fromPin []string

	Endpoints []Endpoint

	// MaxCapViolations lists nets whose load exceeds the driver pin's
	// max_capacitance.
	MaxCapViolations []*netlist.Net

	nl *netlist.Netlist

	// eng links a snapshot produced by an Engine back to its arc cache
	// (nil for plain Analyze results); topoGen records the netlist
	// topology generation the snapshot was taken at, so Engine.Rewind can
	// reject a rewind across a topology edit.
	eng     *Engine
	topoGen uint64

	// The backward pass is memoized: synthesis asks for NetSlacks once
	// per margin step against the same Result, and required times never
	// change for an immutable snapshot. A mutex+flag rather than
	// sync.Once so a pooled snapshot can reset the memo on reuse (the
	// req/slacks backing arrays are then recycled too).
	reqMu   sync.Mutex
	reqDone bool
	req     []float64
	slacks  []float64

	// pooled marks a snapshot sitting in its engine's Recycle pool,
	// guarding against double-recycle.
	pooled bool
}

// bytes estimates the heap of a snapshot's own slices (nets and
// endpoints are the netlist's, counted there).
func (r *Result) bytes() int64 {
	return int64(unsafe.Sizeof(*r)) + int64(cap(r.Load)+cap(r.Arrival)+cap(r.Slew)+cap(r.MaxCapViolations)+cap(r.req)+cap(r.slacks))*8 +
		int64(cap(r.fromPin))*16 + int64(cap(r.Endpoints))*int64(unsafe.Sizeof(Endpoint{}))
}

// Endpoint is a timing check location: a flip-flop D pin or a primary
// output.
type Endpoint struct {
	Name    string // FF instance name or PO name
	IsFF    bool
	Inst    *netlist.Instance // nil for POs
	Net     *netlist.Net      // the net whose arrival is checked
	Arrival float64
	Slack   float64
}

// WNS returns the worst negative slack (most negative endpoint slack;
// positive when all endpoints meet timing).
func (r *Result) WNS() float64 {
	w := math.Inf(1)
	for _, e := range r.Endpoints {
		if e.Slack < w {
			w = e.Slack
		}
	}
	if math.IsInf(w, 1) {
		return 0
	}
	return w
}

// TNS returns the total negative slack.
func (r *Result) TNS() float64 {
	t := 0.0
	for _, e := range r.Endpoints {
		if e.Slack < 0 {
			t += e.Slack
		}
	}
	return t
}

// MeetsTiming reports whether every endpoint has non-negative slack and
// no max-capacitance violations remain.
func (r *Result) MeetsTiming() bool {
	return r.WNS() >= 0 && len(r.MaxCapViolations) == 0
}

// Analyze runs one full timing pass over the netlist.
func Analyze(nl *netlist.Netlist, cfg Config) (*Result, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	nNets := nl.NetExtent()
	r := &Result{
		Cfg:     cfg,
		Load:    make([]float64, nNets),
		Arrival: make([]float64, nNets),
		Slew:    make([]float64, nNets),
		fromPin: make([]string, nNets),
		nl:      nl,
	}
	// Pass 1: net loads.
	for _, n := range nl.Nets {
		load := 0.0
		for _, s := range n.Sinks {
			if s.Inst == nil {
				load += cfg.OutputLoad
				continue
			}
			load += s.Inst.Spec.InputCap()
		}
		load += cfg.wireCap(n.ID, len(n.Sinks))
		r.Load[n.ID] = load
		if n.Driver != nil {
			// Tolerance matches the synthesis legality checks so a load
			// sitting exactly on the limit is not flagged by float dust.
			if mc := n.Driver.Spec.MaxCap(); load > mc+1e-12 {
				r.MaxCapViolations = append(r.MaxCapViolations, n)
			}
		}
	}
	// Pass 2: arrivals and slews in topological order.
	for _, n := range nl.Nets {
		if n.PrimaryIn {
			r.Arrival[n.ID] = 0
			r.Slew[n.ID] = cfg.InputSlew
		}
	}
	for _, inst := range order {
		if inst.Spec.IsSequential() {
			// Launch: clock edge at t=0, CK->Q arc with the clock slew.
			for oi, out := range inst.Out {
				if out == nil {
					continue
				}
				pin := inst.Spec.Outputs[oi]
				arc := r.arcOf(inst, pin, inst.Spec.Clock)
				if arc == nil {
					continue
				}
				d, tr := arc.Eval(r.Load[out.ID], cfg.InputSlew)
				r.Arrival[out.ID] = d
				r.Slew[out.ID] = tr
				r.fromPin[out.ID] = inst.Spec.Clock
			}
			continue
		}
		for oi, out := range inst.Out {
			if out == nil {
				continue
			}
			pin := inst.Spec.Outputs[oi]
			worst := math.Inf(-1)
			worstSlew := 0.0
			worstPin := ""
			for ii, in := range inst.Spec.Inputs {
				inNet := inst.In[ii]
				if inNet == nil {
					continue
				}
				arc := r.arcOf(inst, pin, in)
				if arc == nil {
					continue
				}
				d, tr := arc.Eval(r.Load[out.ID], r.Slew[inNet.ID])
				a := r.Arrival[inNet.ID] + d
				if a > worst {
					worst = a
					worstSlew = tr
					worstPin = in
				}
			}
			if math.IsInf(worst, -1) {
				// Tie cells and other arc-less outputs: time zero.
				worst, worstSlew = 0, cfg.InputSlew
			}
			r.Arrival[out.ID] = worst
			r.Slew[out.ID] = worstSlew
			r.fromPin[out.ID] = worstPin
		}
	}
	// Pass 3: endpoints.
	required := cfg.ClockPeriod - cfg.Uncertainty
	for _, inst := range nl.Instances {
		if !inst.Spec.IsSequential() {
			continue
		}
		d := inst.Input("D")
		if d == nil {
			continue
		}
		setup := inst.Spec.SetupTime(nl.Cat.Corner)
		slack := required - setup - r.Arrival[d.ID]
		r.Endpoints = append(r.Endpoints, Endpoint{
			Name: inst.Name, IsFF: true, Inst: inst, Net: d,
			Arrival: r.Arrival[d.ID], Slack: slack,
		})
	}
	for _, n := range nl.Nets {
		for _, s := range n.Sinks {
			if s.Inst != nil {
				continue
			}
			r.Endpoints = append(r.Endpoints, Endpoint{
				Name: s.Pin, Net: n,
				Arrival: r.Arrival[n.ID], Slack: required - r.Arrival[n.ID],
			})
		}
	}
	sort.Slice(r.Endpoints, func(i, j int) bool { return r.Endpoints[i].Name < r.Endpoints[j].Name })
	return r, nil
}

// arcOf finds the liberty timing arc of inst's output pin related to the
// given input pin.
func (r *Result) arcOf(inst *netlist.Instance, outPin, inPin string) *liberty.TimingArc {
	cell := r.nl.Cat.Lib.Cell(inst.Spec.Name)
	if cell == nil {
		return nil
	}
	p := cell.Pin(outPin)
	if p == nil {
		return nil
	}
	for _, a := range p.Timing {
		if a.RelatedPin == inPin {
			return a
		}
	}
	return nil
}

// PathStep is one cell traversal on a timing path.
type PathStep struct {
	Inst    *netlist.Instance
	FromPin string  // input pin the path enters through (CK for launch FFs)
	OutPin  string  // output pin the path leaves through
	Load    float64 // load driven at this step
	Slew    float64 // input slew at this step
	Delay   float64 // arc delay at this step
}

// Path is a worst path to one endpoint.
type Path struct {
	Endpoint Endpoint
	Steps    []PathStep // launch to capture order
}

// Depth returns the number of cells on the path (launching FF included,
// matching the paper's cell-count depth metric).
func (p *Path) Depth() int { return len(p.Steps) }

// WorstPath backtracks the worst arrival path into the given endpoint.
func (r *Result) WorstPath(ep Endpoint) Path {
	// First pass: measure the path so the steps slice is allocated once,
	// at exact size, and filled back to front — backtracking yields
	// capture->launch order, the slice wants launch->capture.
	depth := 0
	for n := ep.Net; n != nil && n.Driver != nil; _, n = r.Step(n) {
		depth++
	}
	if depth == 0 {
		return Path{Endpoint: ep}
	}
	steps := make([]PathStep, depth)
	for i, n := depth-1, ep.Net; i >= 0; i-- {
		steps[i], n = r.Step(n)
	}
	return Path{Endpoint: ep, Steps: steps}
}

// Step returns the cell traversal that drives n on its worst-arrival
// path, and the net that path enters it through: nil where the path
// launches (a sequential cell, or a cell with no arc into the net such
// as a tie cell). A non-nil net with no driver is a primary input. n
// must have a driver.
func (r *Result) Step(n *netlist.Net) (PathStep, *netlist.Net) {
	inst := n.Driver
	step := PathStep{Inst: inst, FromPin: r.fromPin[n.ID], OutPin: n.DrvPin, Load: r.Load[n.ID]}
	if inst.Spec.IsSequential() {
		step.Slew = r.Cfg.InputSlew
		step.Delay = r.Arrival[n.ID]
		return step, nil
	}
	inNet := inst.Input(step.FromPin)
	var prevArr float64
	if inNet != nil {
		step.Slew = r.Slew[inNet.ID]
		prevArr = r.Arrival[inNet.ID]
	}
	step.Delay = r.Arrival[n.ID] - prevArr
	return step, inNet
}

// WorstPaths extracts the worst path for every unique endpoint — the
// population Figs. 12-14 plot.
func (r *Result) WorstPaths() []Path {
	out := make([]Path, 0, len(r.Endpoints))
	for _, ep := range r.Endpoints {
		out = append(out, r.WorstPath(ep))
	}
	return out
}

// CriticalPath returns the worst path of the worst endpoint.
func (r *Result) CriticalPath() (Path, error) {
	if len(r.Endpoints) == 0 {
		return Path{}, fmt.Errorf("sta: no endpoints")
	}
	worst := r.Endpoints[0]
	for _, ep := range r.Endpoints[1:] {
		if ep.Slack < worst.Slack {
			worst = ep
		}
	}
	return r.WorstPath(worst), nil
}

// OperatingPoint describes where in its LUT a cell instance operates.
type OperatingPoint struct {
	Inst    *netlist.Instance
	OutPin  string
	OutIdx  int // index of OutPin in Inst.Spec.Outputs
	Load    float64
	WorstIn float64 // worst input slew across connected input pins
}

// OperatingPoints lists the (load, slew) point of every combinational and
// sequential instance output — the data the restriction-legality checks
// and the Fig. 7 style occupancy analyses consume.
func (r *Result) OperatingPoints() []OperatingPoint {
	out := make([]OperatingPoint, 0, len(r.nl.Instances))
	r.EachOperatingPoint(func(op OperatingPoint) {
		out = append(out, op)
	})
	return out
}

// EachOperatingPoint streams the operating points without materializing
// the slice — the per-iteration legality scan runs over every instance
// on every snapshot, so the allocation matters. Output pins visit in
// spec order.
func (r *Result) EachOperatingPoint(fn func(OperatingPoint)) {
	for _, inst := range r.nl.Instances {
		worstIn := r.Cfg.InputSlew
		for _, n := range inst.In {
			if n != nil && r.Slew[n.ID] > worstIn {
				worstIn = r.Slew[n.ID]
			}
		}
		for oi, n := range inst.Out {
			if n == nil {
				continue
			}
			fn(OperatingPoint{
				Inst: inst, OutPin: inst.Spec.Outputs[oi], OutIdx: oi, Load: r.Load[n.ID], WorstIn: worstIn,
			})
		}
	}
}
