// Package liberty implements the subset of the Liberty (.lib) standard
// cell library format the reproduction needs: non-linear delay model
// (NLDM) timing tables per timing arc, pin capacitances and limits, cell
// area and drive strength, and the LVF-style ocv_sigma tables the
// statistical library is serialized with.
//
// The package provides a typed in-memory model, a writer producing
// Liberty text, and a parser for the same subset; Write followed by Parse
// round-trips the model (property-tested).
package liberty

import (
	"fmt"
	"sort"
	"strings"

	"stdcelltune/internal/lut"
)

// Library is the root of a .lib file.
type Library struct {
	Name string

	// Unit annotations. The reproduction uses ns and pF throughout.
	TimeUnit        string // e.g. "1ns"
	CapacitiveUnit  string // e.g. "1pf"
	VoltageUnit     string // e.g. "1V"
	NominalVoltage  float64
	NominalTemp     float64
	NominalProcess  float64
	OperatingCorner string // e.g. "TT1P1V25C"

	Templates []*Template
	Cells     []*Cell

	cellIndex map[string]*Cell
}

// Template is a lu_table_template: named axes shared by many tables.
// Variable1 indexes the rows (output load in this reproduction) and
// Variable2 the columns (input slew).
type Template struct {
	Name      string
	Variable1 string // "total_output_net_capacitance"
	Variable2 string // "input_net_transition"
	Index1    []float64
	Index2    []float64
}

// Cell is one standard cell.
type Cell struct {
	Name          string
	Area          float64
	DriveStrength int    // parsed from the trailing _<k> of the cell name
	Footprint     string // cells sharing a footprint are swap-compatible sizes
	IsSequential  bool
	LeakagePower  float64 // static leakage, nW
	Pins          []*Pin
}

// Pin is an input or output pin of a cell.
type Pin struct {
	Name        string
	Direction   Direction
	Capacitance float64 // input pin capacitance, pF
	MaxCap      float64 // output pin max load, pF
	Function    string  // boolean function for outputs, Liberty syntax
	Timing      []*TimingArc
	Power       []*PowerArc // internal_power groups
}

// PowerArc carries the internal-power tables of one output pin relative
// to an input pin (Liberty internal_power group). Values are energy per
// transition in pJ, over the same load/slew axes as the timing tables.
type PowerArc struct {
	RelatedPin string
	RisePower  *lut.Table
	FallPower  *lut.Table
	Template   string
}

// PowerArc returns the power arc related to an input pin, or nil.
func (p *Pin) PowerArc(related string) *PowerArc {
	for _, a := range p.Power {
		if a.RelatedPin == related {
			return a
		}
	}
	return nil
}

// Direction distinguishes input from output pins.
type Direction int

// Pin directions.
const (
	Input Direction = iota
	Output
)

func (d Direction) String() string {
	if d == Output {
		return "output"
	}
	return "input"
}

// TimingArc carries the NLDM tables from one related (input) pin to the
// owning output pin.
type TimingArc struct {
	RelatedPin string
	Sense      string // positive_unate | negative_unate | non_unate
	Type       string // "" (combinational) | rising_edge | setup_rising ...

	CellRise       *lut.Table
	CellFall       *lut.Table
	RiseTransition *lut.Table
	FallTransition *lut.Table

	// LVF-style local-variation sigma of the delay tables. Populated in
	// statistical libraries (Section IV of the paper); nil in nominal
	// instances.
	SigmaRise *lut.Table
	SigmaFall *lut.Table

	Template string // name of the lu_table_template the tables use

	// shared records that the four delay/transition tables share one
	// (load, slew) grid in contiguous backing, so Eval brackets a query
	// once for all four.
	// Prepare sets it; while it is false Eval looks each table up on its
	// own, which is always right.
	shared bool
}

// Prepare works out once what Eval would otherwise re-derive on every
// call: whether the arc's four delay and transition tables share their
// axes, each in contiguous backing. Builders call it after setting the last table and before the
// arc is shared. An arc never prepared evaluates through four
// independent lookups; one whose tables change afterwards must be
// prepared again.
func (a *TimingArc) Prepare() {
	a.shared = lut.OneGrid(a.CellRise, a.CellFall, a.RiseTransition, a.FallTransition)
}

// IsConstraint reports whether the arc is a timing check (setup/hold)
// rather than a delay arc. Constraint arcs live on input pins (e.g. the
// setup of a flip-flop D pin against CK) and their CellRise/CellFall
// tables hold the constraint values.
func (a *TimingArc) IsConstraint() bool {
	return strings.HasPrefix(a.Type, "setup") || strings.HasPrefix(a.Type, "hold")
}

// Eval interpolates the arc at an operating point (load in pF, input slew
// in ns) and returns the worse of the rise and fall delays and the worse
// of the rise and fall transitions: the max-delay view every setup
// analysis takes of an arc. A prepared arc whose tables share one grid
// locates the query point once and, when it lies on the grid (neither
// NaN nor on a single-point axis), interpolates all four tables from it
// inline, bit-identical to four lookups.
func (a *TimingArc) Eval(load, slew float64) (delay, trans float64) {
	if a.shared {
		if p := a.CellRise.Locate(load, slew); p.OnGrid() {
			delay = max(a.CellRise.InterpGrid(p), a.CellFall.InterpGrid(p))
			trans = max(a.RiseTransition.InterpGrid(p), a.FallTransition.InterpGrid(p))
			return delay, trans
		}
	}
	delay = max(a.CellRise.Lookup(load, slew), a.CellFall.Lookup(load, slew))
	trans = max(a.RiseTransition.Lookup(load, slew), a.FallTransition.Lookup(load, slew))
	return delay, trans
}

// Tables returns the non-nil delay/transition/sigma tables of the arc
// with stable naming, for code that iterates "all LUTs of an arc".
func (a *TimingArc) Tables() map[string]*lut.Table {
	m := make(map[string]*lut.Table, 6)
	put := func(k string, t *lut.Table) {
		if t != nil {
			m[k] = t
		}
	}
	put("cell_rise", a.CellRise)
	put("cell_fall", a.CellFall)
	put("rise_transition", a.RiseTransition)
	put("fall_transition", a.FallTransition)
	put("ocv_sigma_cell_rise", a.SigmaRise)
	put("ocv_sigma_cell_fall", a.SigmaFall)
	return m
}

// DelayTables returns the cell_rise and cell_fall tables that exist.
func (a *TimingArc) DelayTables() []*lut.Table {
	var ts []*lut.Table
	if a.CellRise != nil {
		ts = append(ts, a.CellRise)
	}
	if a.CellFall != nil {
		ts = append(ts, a.CellFall)
	}
	return ts
}

// SigmaTables returns the sigma tables that exist.
func (a *TimingArc) SigmaTables() []*lut.Table {
	var ts []*lut.Table
	if a.SigmaRise != nil {
		ts = append(ts, a.SigmaRise)
	}
	if a.SigmaFall != nil {
		ts = append(ts, a.SigmaFall)
	}
	return ts
}

// Cell returns the named cell, or nil.
func (l *Library) Cell(name string) *Cell {
	if l.cellIndex == nil {
		l.reindex()
	}
	return l.cellIndex[name]
}

// AddCell appends a cell and keeps the name index current.
func (l *Library) AddCell(c *Cell) {
	l.Cells = append(l.Cells, c)
	if l.cellIndex == nil {
		l.reindex()
	} else {
		l.cellIndex[c.Name] = c
	}
}

func (l *Library) reindex() {
	l.cellIndex = make(map[string]*Cell, len(l.Cells))
	for _, c := range l.Cells {
		l.cellIndex[c.Name] = c
	}
}

// SortCells orders cells by name for deterministic serialization.
func (l *Library) SortCells() {
	sort.Slice(l.Cells, func(i, j int) bool { return l.Cells[i].Name < l.Cells[j].Name })
}

// OutputPins returns the output pins of the cell in declaration order.
func (c *Cell) OutputPins() []*Pin {
	var out []*Pin
	for _, p := range c.Pins {
		if p.Direction == Output {
			out = append(out, p)
		}
	}
	return out
}

// InputPins returns the input pins of the cell in declaration order.
func (c *Cell) InputPins() []*Pin {
	var in []*Pin
	for _, p := range c.Pins {
		if p.Direction == Input {
			in = append(in, p)
		}
	}
	return in
}

// Pin returns the named pin of the cell, or nil.
func (c *Cell) Pin(name string) *Pin {
	for _, p := range c.Pins {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Validate checks structural consistency of the library: unique cell
// names, valid tables, arcs that reference existing input pins.
func (l *Library) Validate() error {
	if l.Name == "" {
		return fmt.Errorf("liberty: library has no name")
	}
	seen := make(map[string]bool, len(l.Cells))
	for _, c := range l.Cells {
		if seen[c.Name] {
			return fmt.Errorf("liberty: duplicate cell %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.Validate(); err != nil {
			return fmt.Errorf("cell %q: %w", c.Name, err)
		}
	}
	return nil
}

// Validate checks one cell: positive area, pins present, arcs reference
// existing input pins and carry valid tables.
func (c *Cell) Validate() error {
	if c.Area <= 0 {
		return fmt.Errorf("non-positive area %g", c.Area)
	}
	if len(c.Pins) == 0 {
		return fmt.Errorf("no pins")
	}
	pinNames := make(map[string]Direction, len(c.Pins))
	for _, p := range c.Pins {
		if _, dup := pinNames[p.Name]; dup {
			return fmt.Errorf("duplicate pin %q", p.Name)
		}
		pinNames[p.Name] = p.Direction
	}
	for _, p := range c.Pins {
		for _, a := range p.Timing {
			if p.Direction != Output && !a.IsConstraint() {
				return fmt.Errorf("delay arc on non-output pin %q", p.Name)
			}
			d, ok := pinNames[a.RelatedPin]
			if !ok {
				return fmt.Errorf("arc references unknown pin %q", a.RelatedPin)
			}
			if d != Input {
				return fmt.Errorf("arc related_pin %q is not an input", a.RelatedPin)
			}
			for name, tb := range a.Tables() {
				if err := tb.Validate(); err != nil {
					return fmt.Errorf("pin %q arc from %q table %s: %w", p.Name, a.RelatedPin, name, err)
				}
			}
		}
		for _, a := range p.Power {
			if p.Direction != Output {
				return fmt.Errorf("internal_power on non-output pin %q", p.Name)
			}
			if d, ok := pinNames[a.RelatedPin]; !ok || d != Input {
				return fmt.Errorf("power arc references bad pin %q", a.RelatedPin)
			}
			for _, tb := range []*lut.Table{a.RisePower, a.FallPower} {
				if tb == nil {
					continue
				}
				if err := tb.Validate(); err != nil {
					return fmt.Errorf("pin %q power arc from %q: %w", p.Name, a.RelatedPin, err)
				}
			}
		}
	}
	return nil
}
