package stdcell

// Layout orders the delay entries of one Monte-Carlo library instance
// as a flat row: cells in CellNames order, then each cell's output pins,
// then each pin's timing arcs (one per data input, or the clock arc of
// a sequential cell; tie cells have none), then each arc's nominal
// delay table in load-major order (loads × SlewAxis). This is exactly
// the order in which BuildLibrary fills the delay tables, so it is also
// the order a Perturb sees the entries in and a row can stand in for an
// instance's CellRise/CellFall tables (rise = RiseScale·v, fall =
// FallScale·v).
//
// The layout also carries the analytic model at every entry, evaluated
// once per catalogue: the instance-independent half of each
// Monte-Carlo sample, which a Perturb receives instead of re-evaluating.
type Layout struct {
	Cells []LayoutCell
	// Entries is the row length: the delay entries of one instance.
	Entries int
	// Nominal[e] is Spec.Delay and Sigma[e] is Spec.Sigma at entry e's
	// (load, slew) point and the catalogue corner, bit for bit.
	Nominal, Sigma []float64
}

// LayoutCell is one cell of a Layout.
type LayoutCell struct {
	Spec *Spec
	// Offset is the row index of the cell's first entry: its entries
	// run up to the next cell's Offset (Entries after the last cell).
	Offset int
	// Loads is the load axis of every delay table of the cell; the slew
	// axis is SlewAxis.
	Loads []float64
	// Pins lists every output pin in Spec.Outputs order, arc-less ones
	// (tie cells) included.
	Pins []LayoutPin
}

// LayoutPin is one output pin of a LayoutCell.
type LayoutPin struct {
	Name string
	Arcs []LayoutArc
}

// LayoutArc is one timing arc of a LayoutPin.
type LayoutArc struct {
	RelatedPin string
	// Offset is the row index of the arc's first entry; the arc holds
	// len(Loads)·len(SlewAxis) entries from there.
	Offset int
}

// Layout returns the catalogue's delay-entry layout. It is shared and
// must be treated as read-only.
func (c *Catalogue) Layout() *Layout { return c.layout }

func (c *Catalogue) buildLayout() *Layout {
	l := &Layout{}
	for _, name := range c.CellNames() {
		s := c.Specs[name]
		lc := LayoutCell{Spec: s, Offset: l.Entries, Loads: s.LoadAxis()}
		for _, out := range s.Outputs {
			lp := LayoutPin{Name: out}
			if s.Kind != KindTie {
				for _, from := range s.relatedPins() {
					lp.Arcs = append(lp.Arcs, LayoutArc{RelatedPin: from, Offset: l.Entries})
					l.Entries += len(lc.Loads) * len(SlewAxis)
				}
			}
			lc.Pins = append(lc.Pins, lp)
		}
		l.Cells = append(l.Cells, lc)
	}
	l.Nominal, l.Sigma = make([]float64, 0, l.Entries), make([]float64, 0, l.Entries)
	for _, lc := range l.Cells {
		for _, p := range lc.Pins {
			for range p.Arcs {
				for _, ld := range lc.Loads {
					for _, sl := range SlewAxis {
						l.Nominal = append(l.Nominal, lc.Spec.Delay(ld, sl, c.Corner))
						l.Sigma = append(l.Sigma, lc.Spec.Sigma(ld, sl, c.Corner))
					}
				}
			}
		}
	}
	return l
}

// relatedPins returns the pins the output timing arcs of the spec are
// related to: the data inputs, or the clock (CK->Q / EN->Q) of a
// sequential cell.
func (s *Spec) relatedPins() []string {
	if s.IsSequential() {
		return []string{s.Clock}
	}
	return s.Inputs
}

// entryDelay is entry e of an output arc's nominal delay table under
// the perturbation: the single definition both BuildLibrary and
// DelaySamples evaluate, so the two agree bit for bit.
func (c *Catalogue) entryDelay(s *Spec, e int, perturb Perturb) float64 {
	d := c.layout.Nominal[e]
	if perturb != nil {
		d += perturb(s, d, c.layout.Sigma[e])
	}
	return d
}

// DelaySamples writes the delay entries of one Monte-Carlo instance into
// row (len Layout().Entries) in Layout order: exactly the values
// BuildLibrary(name, perturb) puts into the output arcs' delay tables
// before the rise/fall skew, with perturb called in the same order.
// Nothing else of the library is built.
func (c *Catalogue) DelaySamples(row []float64, perturb Perturb) {
	for _, lc := range c.layout.Cells {
		for _, p := range lc.Pins {
			for _, a := range p.Arcs {
				for e := a.Offset; e < a.Offset+len(lc.Loads)*len(SlewAxis); e++ {
					row[e] = c.entryDelay(lc.Spec, e, perturb)
				}
			}
		}
	}
}
