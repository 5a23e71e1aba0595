package stdcell

import (
	"fmt"
	"sort"
	"strings"

	"stdcelltune/internal/liberty"
)

// Spec describes one concrete cell: a family instantiated at a drive
// strength, together with its analytic model parameters.
type Spec struct {
	Name      string // e.g. "NR2B_6"
	Family    string // e.g. "NR2B"
	Kind      Kind
	NumInputs int // data inputs (excluding clock/enable/reset/set)
	Drive     int
	Params    ModelParams

	Inputs    []string // data input pin names
	Outputs   []string // output pin names
	Functions []string // Liberty function per output pin
	Clock     string   // clock/enable pin ("" for combinational)
	ResetN    string   // active-low async reset pin ("")
	SetN      string   // active-low async set pin ("")
}

// familyDef is a cell family before drive-strength expansion.
type familyDef struct {
	family  string
	kind    Kind
	nIn     int
	drives  []int
	inputs  []string
	outputs []string
	clock   string
	resetN  string
	setN    string
	// function per output pin, Liberty syntax
	functions []string
}

// catalogueDefs returns the family table whose expansion yields exactly
// the paper's 304-cell inventory (Appendix VIII.A).
func catalogueDefs() []familyDef {
	ladder := func(ds ...int) []int { return ds }
	return []familyDef{
		// 19 inverter cells.
		{family: "INV", kind: KindInv, nIn: 1,
			drives: ladder(1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64),
			inputs: []string{"A"}, outputs: []string{"Y"}, functions: []string{"!A"}},
		// 36 OR cells.
		{family: "OR2", kind: KindOr, nIn: 2,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32),
			inputs: []string{"A", "B"}, outputs: []string{"Y"}, functions: []string{"(A+B)"}},
		{family: "OR3", kind: KindOr, nIn: 3,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32),
			inputs: []string{"A", "B", "C"}, outputs: []string{"Y"}, functions: []string{"(A+B+C)"}},
		{family: "OR4", kind: KindOr, nIn: 4,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32),
			inputs: []string{"A", "B", "C", "D"}, outputs: []string{"Y"}, functions: []string{"(A+B+C+D)"}},
		// 46 NAND cells.
		{family: "ND2", kind: KindNand, nIn: 2,
			drives: ladder(1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32),
			inputs: []string{"A", "B"}, outputs: []string{"Y"}, functions: []string{"!(A*B)"}},
		{family: "ND3", kind: KindNand, nIn: 3,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20),
			inputs: []string{"A", "B", "C"}, outputs: []string{"Y"}, functions: []string{"!(A*B*C)"}},
		{family: "ND4", kind: KindNand, nIn: 4,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20),
			inputs: []string{"A", "B", "C", "D"}, outputs: []string{"Y"}, functions: []string{"!(A*B*C*D)"}},
		{family: "ND2B", kind: KindNand, nIn: 2,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32),
			inputs: []string{"AN", "B"}, outputs: []string{"Y"}, functions: []string{"!(!AN*B)"}},
		// 43 NOR cells.
		{family: "NR2", kind: KindNor, nIn: 2,
			drives: ladder(1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24),
			inputs: []string{"A", "B"}, outputs: []string{"Y"}, functions: []string{"!(A+B)"}},
		{family: "NR3", kind: KindNor, nIn: 3,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16),
			inputs: []string{"A", "B", "C"}, outputs: []string{"Y"}, functions: []string{"!(A+B+C)"}},
		{family: "NR4", kind: KindNor, nIn: 4,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12),
			inputs: []string{"A", "B", "C", "D"}, outputs: []string{"Y"}, functions: []string{"!(A+B+C+D)"}},
		{family: "NR2B", kind: KindNor, nIn: 2,
			drives: ladder(1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32),
			inputs: []string{"AN", "B"}, outputs: []string{"Y"}, functions: []string{"!(!AN+B)"}},
		// 29 XNOR cells.
		{family: "XNR2", kind: KindXnor, nIn: 2,
			drives: ladder(1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40),
			inputs: []string{"A", "B"}, outputs: []string{"Y"}, functions: []string{"!(A^B)"}},
		{family: "XNR3", kind: KindXnor, nIn: 3,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48),
			inputs: []string{"A", "B", "C"}, outputs: []string{"Y"}, functions: []string{"!(A^B^C)"}},
		// 34 adder cells.
		{family: "ADDF", kind: KindAddFull, nIn: 3,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32),
			inputs: []string{"A", "B", "CI"}, outputs: []string{"S", "CO"},
			functions: []string{"(A^B)^CI", "(A*B)+(CI*(A^B))"}},
		{family: "ADDH", kind: KindAddHalf, nIn: 2,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20),
			inputs: []string{"A", "B"}, outputs: []string{"S", "CO"},
			functions: []string{"(A^B)", "(A*B)"}},
		{family: "ADDC", kind: KindAddCarry, nIn: 3,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32),
			inputs: []string{"A", "B", "CI"}, outputs: []string{"S", "CON"},
			functions: []string{"(A^B)^CI", "!((A*B)+(CI*(A^B)))"}},
		// 27 multiplexer cells.
		{family: "MUX2", kind: KindMux, nIn: 3,
			drives: ladder(1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40),
			inputs: []string{"D0", "D1", "S"}, outputs: []string{"Y"},
			functions: []string{"(D0*!S)+(D1*S)"}},
		{family: "MUX4", kind: KindMux, nIn: 6,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32),
			inputs: []string{"D0", "D1", "D2", "D3", "S0", "S1"}, outputs: []string{"Y"},
			functions: []string{"(D0*!S0*!S1)+(D1*S0*!S1)+(D2*!S0*S1)+(D3*S0*S1)"}},
		// 51 flip-flop cells.
		{family: "DFQ", kind: KindDFF, nIn: 1,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32),
			inputs: []string{"D"}, outputs: []string{"Q"}, clock: "CK",
			functions: []string{"IQ"}},
		{family: "DFQN", kind: KindDFF, nIn: 1,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20),
			inputs: []string{"D"}, outputs: []string{"QN"}, clock: "CK",
			functions: []string{"!IQ"}},
		{family: "DFRQ", kind: KindDFF, nIn: 1,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32),
			inputs: []string{"D"}, outputs: []string{"Q"}, clock: "CK", resetN: "RN",
			functions: []string{"IQ"}},
		{family: "DFSQ", kind: KindDFF, nIn: 1,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12, 16),
			inputs: []string{"D"}, outputs: []string{"Q"}, clock: "CK", setN: "SN",
			functions: []string{"IQ"}},
		{family: "DFRSQ", kind: KindDFF, nIn: 1,
			drives: ladder(1, 2, 3, 4, 6, 8, 10, 12),
			inputs: []string{"D"}, outputs: []string{"Q"}, clock: "CK", resetN: "RN", setN: "SN",
			functions: []string{"IQ"}},
		// 12 latch cells.
		{family: "LATQ", kind: KindLatch, nIn: 1,
			drives: ladder(1, 2, 4, 6, 8, 12),
			inputs: []string{"D"}, outputs: []string{"Q"}, clock: "EN",
			functions: []string{"IQ"}},
		{family: "LATRQ", kind: KindLatch, nIn: 1,
			drives: ladder(1, 2, 4, 6, 8, 12),
			inputs: []string{"D"}, outputs: []string{"Q"}, clock: "EN", resetN: "RN",
			functions: []string{"IQ"}},
		// 7 other cells: buffers and tie cells.
		{family: "BUF", kind: KindBuf, nIn: 1,
			drives: ladder(2, 4, 6, 8, 16),
			inputs: []string{"A"}, outputs: []string{"Y"}, functions: []string{"A"}},
		{family: "TIEH", kind: KindTie, nIn: 0,
			drives: ladder(1), outputs: []string{"Y"}, functions: []string{"1"}},
		{family: "TIEL", kind: KindTie, nIn: 0,
			drives: ladder(1), outputs: []string{"Y"}, functions: []string{"0"}},
	}
}

// Catalogue is the full standard cell library: the Liberty model plus the
// analytic specs behind each cell.
type Catalogue struct {
	Lib      *liberty.Library
	Corner   Corner
	Specs    map[string]*Spec
	Families map[string][]*Spec // sorted by ascending drive strength
	// ByDrive groups combinational cells by drive strength (the paper's
	// strength-clustering axis, Fig. 5).
	ByDrive map[int][]*Spec

	// layout orders the delay entries of one Monte-Carlo instance; see
	// Layout.
	layout *Layout

	// arcs lazily caches per-spec Liberty arc resolution for the timing
	// engines; see TimingArcs.
	arcs arcCache
}

// NewCatalogue builds the nominal 304-cell library characterized at the
// given corner.
func NewCatalogue(corner Corner) *Catalogue {
	c := &Catalogue{
		Corner:   corner,
		Specs:    make(map[string]*Spec),
		Families: make(map[string][]*Spec),
		ByDrive:  make(map[int][]*Spec),
	}
	for _, def := range catalogueDefs() {
		for _, k := range def.drives {
			s := &Spec{
				Name:      fmt.Sprintf("%s_%d", def.family, k),
				Family:    def.family,
				Kind:      def.kind,
				NumInputs: def.nIn,
				Drive:     k,
				Params:    famParams(def.kind, def.nIn),
				Inputs:    def.inputs,
				Outputs:   def.outputs,
				Functions: def.functions,
				Clock:     def.clock,
				ResetN:    def.resetN,
				SetN:      def.setN,
			}
			c.Specs[s.Name] = s
			c.Families[s.Family] = append(c.Families[s.Family], s)
			c.ByDrive[k] = append(c.ByDrive[k], s)
		}
	}
	for _, fam := range c.Families {
		sort.Slice(fam, func(i, j int) bool { return fam[i].Drive < fam[j].Drive })
	}
	for _, cluster := range c.ByDrive {
		sort.Slice(cluster, func(i, j int) bool { return cluster[i].Name < cluster[j].Name })
	}
	c.layout = c.buildLayout()
	c.Lib = c.buildLiberty()
	return c
}

// Spec returns the spec of the named cell, or nil.
func (c *Catalogue) Spec(name string) *Spec { return c.Specs[name] }

// CellNames returns all cell names sorted.
func (c *Catalogue) CellNames() []string {
	names := make([]string, 0, len(c.Specs))
	for n := range c.Specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FamilyOf extracts the family prefix from a cell name ("NR2B_6" →
// "NR2B").
func FamilyOf(cellName string) string {
	if i := strings.LastIndex(cellName, "_"); i >= 0 {
		return cellName[:i]
	}
	return cellName
}

// SizesOf returns the specs of the cell's family sorted by ascending
// drive, i.e. the alternatives synthesis may size between.
func (c *Catalogue) SizesOf(cellName string) []*Spec {
	return c.Families[FamilyOf(cellName)]
}

// Step returns the spec delta sizes away from spec in its family
// (+1 the next drive up, -1 the next down), or nil past either end.
func (c *Catalogue) Step(spec *Spec, delta int) *Spec {
	fam := c.Families[spec.Family]
	for i, s := range fam {
		if j := i + delta; s.Drive == spec.Drive && j >= 0 && j < len(fam) {
			return fam[j]
		}
	}
	return nil
}

// IsSequential reports whether the spec is a flip-flop or latch.
func (s *Spec) IsSequential() bool { return s.Kind == KindDFF || s.Kind == KindLatch }

// AllPins returns every pin name of the cell: data inputs, control pins,
// then outputs.
func (s *Spec) AllPins() []string {
	var pins []string
	pins = append(pins, s.Inputs...)
	if s.Clock != "" {
		pins = append(pins, s.Clock)
	}
	if s.ResetN != "" {
		pins = append(pins, s.ResetN)
	}
	if s.SetN != "" {
		pins = append(pins, s.SetN)
	}
	pins = append(pins, s.Outputs...)
	return pins
}
