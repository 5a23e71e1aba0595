package statlib

import (
	"fmt"

	"stdcelltune/internal/liberty"
	"stdcelltune/internal/lut"
	"stdcelltune/internal/robust"
)

// ToLiberty serializes the statistical library in LVF style: the mean
// tables become cell_rise/cell_fall and the sigma tables become
// ocv_sigma_cell_rise/ocv_sigma_cell_fall. The result can be written with
// liberty.Write and loaded back with FromLiberty.
func (l *Library) ToLiberty() *liberty.Library {
	out := &liberty.Library{
		Name:           l.Name,
		TimeUnit:       "1ns",
		CapacitiveUnit: "1pf",
		VoltageUnit:    "1V",
		NominalProcess: 1,
	}
	for _, name := range l.CellOrder {
		c := l.Cells[name]
		lc := &liberty.Cell{
			Name:          c.Name,
			Area:          c.Area,
			DriveStrength: c.DriveStrength,
			Footprint:     c.Footprint,
		}
		for _, p := range c.Pins {
			lp := &liberty.Pin{Name: p.Name, Direction: liberty.Output, MaxCap: p.MaxCap}
			for _, a := range p.Arcs {
				lp.Timing = append(lp.Timing, &liberty.TimingArc{
					RelatedPin: a.RelatedPin,
					CellRise:   a.MeanRise,
					CellFall:   a.MeanFall,
					SigmaRise:  a.SigmaRise,
					SigmaFall:  a.SigmaFall,
					Template:   "stat_template",
				})
			}
			lc.Pins = append(lc.Pins, lp)
		}
		// The statistical library only stores output-pin statistics; a
		// placeholder input pin keeps the cell structurally valid for
		// arc-related references.
		for _, rel := range relatedPins(c) {
			lc.Pins = append(lc.Pins, &liberty.Pin{Name: rel, Direction: liberty.Input})
		}
		out.AddCell(lc)
	}
	return out
}

func relatedPins(c *Cell) []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range c.Pins {
		for _, a := range p.Arcs {
			if !seen[a.RelatedPin] {
				seen[a.RelatedPin] = true
				out = append(out, a.RelatedPin)
			}
		}
	}
	return out
}

// loadSlabHint sizes the slab for FromLiberty: all four tables of every
// timing arc get re-backed, so the hint is their summed dimensions.
func loadSlabHint(lib *liberty.Library) int {
	dims := func(t *lut.Table) int {
		if t == nil {
			return 0
		}
		return len(t.Loads) * len(t.Slews)
	}
	total := 0
	for _, c := range lib.Cells {
		for _, p := range c.Pins {
			if p.Direction != liberty.Output {
				continue
			}
			for _, a := range p.Timing {
				total += dims(a.CellRise) + dims(a.CellFall) + dims(a.SigmaRise) + dims(a.SigmaFall)
			}
		}
	}
	return total
}

// cloneIn is a nil-tolerant Table.CloneIn, for mean tables an arc may
// legitimately lack.
func cloneIn(t *lut.Table, s *lut.Slab) *lut.Table {
	if t == nil {
		return nil
	}
	return t.CloneIn(s)
}

// FromLiberty rebuilds a statistical library from its LVF serialization.
//
// A cell with an arc missing its sigma tables — a hand-edited file, a
// serializer that dropped the ocv_sigma groups, or a nominal library
// mistaken for a statistical one — is quarantined with a reason naming
// the pin and arc, not silently dropped and not a hard failure: partial
// damage degrades exactly like a degenerate cell in Build does. The
// load fails only when more than robust.DefaultQuarantineLimit of the
// cells are damaged, which is also what rejects a fully nominal library
// (every cell quarantined).
//
// The returned library's tables are deep copies carved from a fresh
// contiguous slab, so it never aliases the parsed input: callers may
// mutate or drop the *liberty.Library afterwards.
func FromLiberty(lib *liberty.Library) (*Library, error) {
	sl := &Library{
		Name: lib.Name, Cells: make(map[string]*Cell),
		Quarantine: robust.NewQuarantine("statlib"),
		slab:       lut.NewSlab(loadSlabHint(lib)),
	}
	sl.Quarantine.Total = len(lib.Cells)
	for _, lc := range lib.Cells {
		c := &Cell{
			Name:          lc.Name,
			Area:          lc.Area,
			DriveStrength: lc.DriveStrength,
			Footprint:     lc.Footprint,
		}
		quarantined := false
	pins:
		for _, lp := range lc.Pins {
			if lp.Direction != liberty.Output || len(lp.Timing) == 0 {
				continue
			}
			p := &Pin{Name: lp.Name, MaxCap: lp.MaxCap}
			for _, la := range lp.Timing {
				if la.SigmaRise == nil || la.SigmaFall == nil {
					sl.Quarantine.Add(lc.Name, fmt.Sprintf(
						"pin %s arc %s: no sigma tables (not statistical data)", lp.Name, la.RelatedPin))
					quarantined = true
					break pins
				}
				p.Arcs = append(p.Arcs, (&Arc{
					RelatedPin: la.RelatedPin,
					MeanRise:   cloneIn(la.CellRise, sl.slab),
					MeanFall:   cloneIn(la.CellFall, sl.slab),
					SigmaRise:  la.SigmaRise.CloneIn(sl.slab),
					SigmaFall:  la.SigmaFall.CloneIn(sl.slab),
				}).prepared())
			}
			c.Pins = append(c.Pins, p)
		}
		if quarantined {
			continue
		}
		sl.Cells[c.Name] = c
		sl.CellOrder = append(sl.CellOrder, c.Name)
	}
	if err := sl.Quarantine.Check(robust.DefaultQuarantineLimit); err != nil {
		return nil, err
	}
	return sl, nil
}
