// Package statlib builds and queries the statistical library of Section
// IV of the paper: N Monte-Carlo library instances are folded into a
// single library whose tables hold, per (load, slew) entry, the mean and
// standard deviation of the cell delay across the instances (Fig. 2).
//
// The statistical library drives both the tuning methods (internal/core)
// and the statistical timing of synthesized designs (internal/stattime).
package statlib

import (
	"context"
	"errors"
	"fmt"
	"math"

	"stdcelltune/internal/dist"
	"stdcelltune/internal/liberty"
	"stdcelltune/internal/lut"
	"stdcelltune/internal/robust"
	"stdcelltune/internal/stdcell"
)

// Library is a statistical library: same cell/pin/arc structure as the
// source libraries, but every delay table is replaced by a mean table and
// a sigma table.
type Library struct {
	Name      string
	Samples   int // number of Monte-Carlo instances folded in
	Cells     map[string]*Cell
	CellOrder []string // original library order for deterministic output

	// Quarantine lists the cells Build skipped because their statistics
	// were degenerate (missing from an instance, mismatched structure,
	// non-finite or negative folded values). Consumers degrade: the
	// tuner leaves quarantined cells unrestricted and statistical timing
	// falls back to their nominal STA delay with zero sigma.
	Quarantine *robust.Quarantine

	// slab is the contiguous structure-of-arrays backing every table of
	// the library is carved from (nil for hand-assembled libraries and
	// for FoldSamples, which carves each fold range from a slab of its
	// own): the per-arc Mean/Sigma tables are views into it in fold
	// order, so a whole cell's statistics sit in adjacent memory.
	// Tables stay valid for the library's lifetime.
	slab *lut.Slab
}

// Quarantined reports whether Build skipped the named cell.
func (l *Library) Quarantined(name string) bool { return l.Quarantine.Has(name) }

// Cell is one cell's statistics.
type Cell struct {
	Name          string
	Area          float64
	DriveStrength int
	Footprint     string
	Pins          []*Pin
}

// Pin is one output pin with its statistical arcs.
type Pin struct {
	Name   string
	MaxCap float64
	Arcs   []*Arc
}

// Arc carries the per-entry statistics of one timing arc. MeanRise/Fall
// estimate the nominal delay; SigmaRise/Fall the local-variation
// standard deviation.
type Arc struct {
	RelatedPin string
	MeanRise   *lut.Table
	MeanFall   *lut.Table
	SigmaRise  *lut.Table
	SigmaFall  *lut.Table

	// shared records that the four tables share one grid (lut.OneGrid),
	// so Stats brackets a query once for all four. The library builders
	// set it; while it is false Stats looks each table up on its own.
	shared bool
}

// prepared sets the arc's shared flag from its tables and returns it.
func (a *Arc) prepared() *Arc {
	a.shared = lut.OneGrid(a.MeanRise, a.MeanFall, a.SigmaRise, a.SigmaFall)
	return a
}

// Build folds N Monte-Carlo library instances into a statistical library
// (the Fig. 2 process): for every cell, every output pin, every arc and
// every table entry, the entry values across the N libraries form a
// temporary table whose mean and standard deviation land in the same
// position of the statistical library.
//
// A cell whose data is degenerate — absent from an instance, arc/pin
// structure differing between instances, folded statistics non-finite
// or negative, non-monotone table axes — is skipped into the library's
// Quarantine report instead of failing the whole build. Build fails
// hard only when more than robust.DefaultQuarantineLimit of the cells
// are quarantined.
func Build(name string, instances []*liberty.Library) (*Library, error) {
	if len(instances) < 2 {
		return nil, errors.New("statlib: need at least two instances")
	}
	ref := instances[0]
	sl := newFold(name, len(instances), len(ref.Cells), lut.NewSlab(foldSlabHint(ref)))
	cells := make([]*liberty.Cell, len(instances))
	for _, refCell := range ref.Cells {
		quarantined := false
		for i, inst := range instances {
			c := inst.Cell(refCell.Name)
			if c == nil {
				sl.Quarantine.Add(refCell.Name, fmt.Sprintf("missing from instance %d", i))
				quarantined = true
				break
			}
			cells[i] = c
		}
		if quarantined {
			continue
		}
		sc, err := buildCell(cells, sl.slab)
		sl.admit(refCell.Name, sc, err)
	}
	if err := sl.Quarantine.Check(robust.DefaultQuarantineLimit); err != nil {
		return nil, err
	}
	return sl, nil
}

// FoldSamples is Build over a delay-sample matrix instead of Liberty
// instances: row k (see variation.SamplesCtx) holds instance k's
// nominal delay entries in layout order, and each entry v stands for
// the instance's CellRise = stdcell.RiseScale·v and CellFall =
// stdcell.FallScale·v. The folded library — tables, quarantine report
// and errors — is byte-identical to Build over the instances the rows
// were sampled alongside: both reduce entries through foldEntry and
// screen cells through degenerateCell and the quarantine limit. Build's
// structural checks (a cell missing from an instance, mismatched pins
// or arcs) have no counterpart, since every row has the layout's
// structure by construction.
//
// Cells fold in parallel, in at most robust.DefaultWorkers()
// contiguous ranges of about equal entry volume, each with a slab and
// buffers of its own. Every cell's fold is a pure function of its
// entries, and cells are admitted in layout order once all ranges are
// done, so the library and its quarantine order do not depend on the
// worker count.
func FoldSamples(name string, layout *stdcell.Layout, rows [][]float64) (*Library, error) {
	if len(rows) < 2 {
		return nil, errors.New("statlib: need at least two instances")
	}
	for k, row := range rows {
		if len(row) != layout.Entries {
			return nil, fmt.Errorf("statlib: sample row %d has %d entries, layout has %d", k, len(row), layout.Entries)
		}
	}
	type folded struct {
		sc  *Cell
		err error
	}
	out := make([]folded, len(layout.Cells))
	err := robust.ForRanges(context.TODO(), "statlib.fold", foldRanges(layout, robust.DefaultWorkers()), func(_ context.Context, lo, hi int) error {
		// Two stat tables (mean, sigma) per rise and fall table of an
		// entry: the range's exact volume, so its slab is one chunk.
		slab := lut.NewSlab(4 * (cellStart(layout, hi) - cellStart(layout, lo)))
		col, buf := make([]float64, len(rows)), make([]float64, len(rows))
		for c := lo; c < hi; c++ {
			out[c].sc, out[c].err = foldSampleCell(layout.Cells[c], rows, col, buf, slab)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sl := newFold(name, len(rows), len(layout.Cells), nil)
	for c, lc := range layout.Cells {
		sl.admit(lc.Spec.Name, out[c].sc, out[c].err)
	}
	if err := sl.Quarantine.Check(robust.DefaultQuarantineLimit); err != nil {
		return nil, err
	}
	return sl, nil
}

// foldRanges splits the layout's cells into at most workers contiguous
// ranges of about equal entry volume: range r is cells
// [bounds[r], bounds[r+1]).
func foldRanges(layout *stdcell.Layout, workers int) []int {
	n := len(layout.Cells)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	bounds := []int{0}
	for c := 0; c < n && len(bounds) < workers; c++ {
		if cellStart(layout, c+1)*workers >= len(bounds)*layout.Entries {
			bounds = append(bounds, c+1)
		}
	}
	if bounds[len(bounds)-1] != n {
		bounds = append(bounds, n)
	}
	return bounds
}

// cellStart is the row index of cell c's first entry, Entries for c
// past the last cell.
func cellStart(layout *stdcell.Layout, c int) int {
	if c == len(layout.Cells) {
		return layout.Entries
	}
	return layout.Cells[c].Offset
}

// newFold starts an empty statistical library for a fold of n instances
// over the given number of cells, its tables carved from slab.
func newFold(name string, n, cells int, slab *lut.Slab) *Library {
	sl := &Library{
		Name: name, Samples: n, Cells: make(map[string]*Cell),
		Quarantine: robust.NewQuarantine("statlib"),
		slab:       slab,
	}
	sl.Quarantine.Total = cells
	return sl
}

// admit files one folded cell: into the quarantine report when its fold
// failed or its statistics are degenerate, else into the library in
// fold order.
func (l *Library) admit(name string, sc *Cell, err error) {
	reason := ""
	if err != nil {
		reason = err.Error()
	} else {
		reason = degenerateCell(sc)
	}
	if reason != "" {
		l.Quarantine.Add(name, reason)
		return
	}
	l.Cells[sc.Name] = sc
	l.CellOrder = append(l.CellOrder, sc.Name)
}

// degenerateCell validates the folded statistics of one cell: every
// table must have valid ascending axes, finite values, non-negative
// mean delays and non-negative sigmas. It returns an empty string for a
// healthy cell, else the quarantine reason.
//
// The four tables are visited in a fixed order (mean_rise, mean_fall,
// sigma_rise, sigma_fall), so a cell with defects in more than one
// table always reports the same reason — quarantine reports must stay
// bit-identical run to run (the PR-1 determinism guarantee; a map
// literal here made the reason depend on iteration order).
func degenerateCell(c *Cell) string {
	for _, p := range c.Pins {
		for _, a := range p.Arcs {
			for _, nt := range []struct {
				name string
				tb   *lut.Table
			}{
				{"mean_rise", a.MeanRise}, {"mean_fall", a.MeanFall},
				{"sigma_rise", a.SigmaRise}, {"sigma_fall", a.SigmaFall},
			} {
				name, tb := nt.name, nt.tb
				if tb == nil {
					continue
				}
				if err := tb.Validate(); err != nil {
					return fmt.Sprintf("pin %s arc %s %s: %v", p.Name, a.RelatedPin, name, err)
				}
				for i := range tb.Values {
					for j, v := range tb.Values[i] {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							return fmt.Sprintf("pin %s arc %s %s[%d][%d] non-finite", p.Name, a.RelatedPin, name, i, j)
						}
						if v < 0 {
							kind := "sigma"
							if name == "mean_rise" || name == "mean_fall" {
								kind = "mean delay"
							}
							return fmt.Sprintf("pin %s arc %s %s[%d][%d] negative %s (%g)", p.Name, a.RelatedPin, name, i, j, kind, v)
						}
					}
				}
			}
		}
	}
	return ""
}

// foldSlabHint pre-computes the float volume of the folded library —
// two stat tables (mean, sigma) per source rise and fall table — so the
// structure-of-arrays slab lands in one chunk. Quarantined cells make
// the hint a slight overestimate, which only leaves slab tail unused.
func foldSlabHint(ref *liberty.Library) int {
	dims := func(t *lut.Table) int {
		if t == nil {
			return 0
		}
		return len(t.Loads) * len(t.Slews)
	}
	total := 0
	for _, c := range ref.Cells {
		for _, p := range c.Pins {
			if p.Direction != liberty.Output {
				continue
			}
			for _, a := range p.Timing {
				total += 2 * (dims(a.CellRise) + dims(a.CellFall))
			}
		}
	}
	return total
}

func buildCell(cells []*liberty.Cell, slab *lut.Slab) (*Cell, error) {
	ref := cells[0]
	sc := &Cell{
		Name:          ref.Name,
		Area:          ref.Area,
		DriveStrength: ref.DriveStrength,
		Footprint:     ref.Footprint,
	}
	for pi, refPin := range ref.Pins {
		if refPin.Direction != liberty.Output {
			continue
		}
		// Structure must agree across every instance — a dropped or
		// extra arc anywhere (truncated .lib, fault injection) makes the
		// whole cell unusable for folding. The check runs even when the
		// reference pin has no arcs: an arc-less pin that other instances
		// disagree with means the *reference* lost its arcs, not that the
		// pin is legitimately untimed (tie cells agree everywhere).
		for i, c := range cells {
			if pi >= len(c.Pins) || c.Pins[pi].Name != refPin.Name {
				return nil, fmt.Errorf("pin structure mismatch in instance %d", i)
			}
			if got, want := len(c.Pins[pi].Timing), len(refPin.Timing); got != want {
				return nil, fmt.Errorf("pin %s has %d arcs in instance %d, want %d", refPin.Name, got, i, want)
			}
		}
		if len(refPin.Timing) == 0 {
			continue
		}
		sp := &Pin{Name: refPin.Name, MaxCap: refPin.MaxCap}
		for ai := range refPin.Timing {
			rises := make([]*lut.Table, len(cells))
			falls := make([]*lut.Table, len(cells))
			for i, c := range cells {
				arc := c.Pins[pi].Timing[ai]
				if arc.RelatedPin != refPin.Timing[ai].RelatedPin {
					return nil, fmt.Errorf("pin %s arc %d related to %s in instance %d, want %s",
						refPin.Name, ai, arc.RelatedPin, i, refPin.Timing[ai].RelatedPin)
				}
				rises[i] = arc.CellRise
				falls[i] = arc.CellFall
			}
			mr, sr, err := foldTables(slab, rises)
			if err != nil {
				return nil, err
			}
			mf, sf, err := foldTables(slab, falls)
			if err != nil {
				return nil, err
			}
			sp.Arcs = append(sp.Arcs, (&Arc{
				RelatedPin: refPin.Timing[ai].RelatedPin,
				MeanRise:   mr, SigmaRise: sr,
				MeanFall: mf, SigmaFall: sf,
			}).prepared())
		}
		sc.Pins = append(sc.Pins, sp)
	}
	return sc, nil
}

// usableSample reports whether one instance's table entry may enter
// the fold: non-finite and negative samples (a characterizer that
// failed to converge or mis-measured on one instance — a real delay is
// never below zero) are dropped per entry rather than poisoning it.
func usableSample(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// foldTables computes per-entry mean and sigma across the instance
// tables of one arc (Build's front of foldTable).
func foldTables(slab *lut.Slab, tables []*lut.Table) (mean, sigma *lut.Table, err error) {
	ref := tables[0]
	if ref == nil {
		return nil, nil, nil
	}
	for _, t := range tables[1:] {
		if t == nil || !lut.SameAxes(ref, t) {
			return nil, nil, errors.New("statlib: instance tables have mismatched axes")
		}
	}
	buf := make([]float64, len(tables))
	return foldTable(slab, ref.Loads, ref.Slews, buf, func(i, j int) {
		for k, t := range tables {
			buf[k] = t.Values[i][j]
		}
	})
}

// foldSampleCell folds one layout cell of a sample matrix (FoldSamples'
// front of foldEntry), building the same cell Build's buildCell would.
// Each entry's column is gathered into col once; the rise and the fall
// table reduce it scaled into buf, with the same float operations
// foldTable applies to the instances' CellRise and CellFall tables.
// A sample the rise scale leaves usable the smaller fall scale leaves
// usable too, so the first entry whose fall table fails has a failing
// rise table: reducing entry by entry reports the error table by table
// would.
func foldSampleCell(lc stdcell.LayoutCell, rows [][]float64, col, buf []float64, slab *lut.Slab) (*Cell, error) {
	s := lc.Spec
	sc := &Cell{Name: s.Name, Area: s.Area(), DriveStrength: s.Drive, Footprint: s.Family}
	reduce := func(mean, sigma *lut.Table, i, j int, scale float64) error {
		for k, v := range col {
			buf[k] = v * scale
		}
		m, sg, n := foldEntry(buf)
		if n < 2 {
			return entryError(i, j, n, len(buf))
		}
		mean.Values[i][j], sigma.Values[i][j] = m, sg
		return nil
	}
	for _, p := range lc.Pins {
		if len(p.Arcs) == 0 {
			continue
		}
		sp := &Pin{Name: p.Name, MaxCap: s.MaxCap()}
		for _, a := range p.Arcs {
			arc := &Arc{
				RelatedPin: a.RelatedPin,
				MeanRise:   lut.NewIn(slab, lc.Loads, stdcell.SlewAxis),
				SigmaRise:  lut.NewIn(slab, lc.Loads, stdcell.SlewAxis),
				MeanFall:   lut.NewIn(slab, lc.Loads, stdcell.SlewAxis),
				SigmaFall:  lut.NewIn(slab, lc.Loads, stdcell.SlewAxis),
			}
			e := a.Offset
			for i := range lc.Loads {
				for j := range stdcell.SlewAxis {
					for k, row := range rows {
						col[k] = row[e]
					}
					e++
					if err := reduce(arc.MeanRise, arc.SigmaRise, i, j, stdcell.RiseScale); err != nil {
						return nil, err
					}
					if err := reduce(arc.MeanFall, arc.SigmaFall, i, j, stdcell.FallScale); err != nil {
						return nil, err
					}
				}
			}
			sp.Arcs = append(sp.Arcs, arc.prepared())
		}
		sc.Pins = append(sc.Pins, sp)
	}
	return sc, nil
}

// foldTable is Build's innermost step of Fig. 2: per (load, slew)
// entry, gather(i, j) fills buf with the entry's value in each of the
// N instances, in instance order, and foldEntry reduces them into the
// same position of two slab-backed tables.
func foldTable(slab *lut.Slab, loads, slews, buf []float64, gather func(i, j int)) (mean, sigma *lut.Table, err error) {
	mean = lut.NewIn(slab, loads, slews)
	sigma = lut.NewIn(slab, loads, slews)
	for i := range loads {
		for j := range slews {
			gather(i, j)
			m, sg, n := foldEntry(buf)
			if n < 2 {
				return nil, nil, entryError(i, j, n, len(buf))
			}
			mean.Values[i][j], sigma.Values[i][j] = m, sg
		}
	}
	return mean, sigma, nil
}

// foldEntry is the one entry reduction both folds share: the N
// instance values of one entry, in instance order, reduce to their mean
// and unbiased standard deviation over the n usable ones (see
// usableSample). An entry needs n ≥ 2 to have statistics at all.
//
// The reduction is the exact two-pass accumulation dist.MeanStdDev
// performs — sum in instance order, divide once, then sum the squared
// deviations in the same order — so it is bitwise-identical to the
// buffered form the pipeline's recorded outputs depend on.
func foldEntry(buf []float64) (mean, sigma float64, n int) {
	sum := 0.0
	for _, v := range buf {
		if usableSample(v) {
			sum += v
			n++
		}
	}
	if n < 2 {
		return 0, 0, n
	}
	m := sum / float64(n)
	sq := 0.0
	for _, v := range buf {
		if usableSample(v) {
			d := v - m
			sq += d * d
		}
	}
	return m, math.Sqrt(sq / float64(n-1)), n
}

// entryError reports an entry with too few usable samples to fold.
func entryError(i, j, n, of int) error {
	return fmt.Errorf("statlib: entry [%d][%d] has %d usable samples of %d, need 2", i, j, n, of)
}

// Cell returns the named cell or nil.
func (l *Library) Cell(name string) *Cell { return l.Cells[name] }

// Pin returns the named output pin or nil.
func (c *Cell) Pin(name string) *Pin {
	for _, p := range c.Pins {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Arc returns the arc related to the given input pin, or nil.
func (p *Pin) Arc(related string) *Arc {
	for _, a := range p.Arcs {
		if a.RelatedPin == related {
			return a
		}
	}
	return nil
}

// Stats returns the interpolated worst-case (max of rise/fall) mean and
// sigma of the arc at an operating point, via bilinear interpolation
// (Section V.A).
func (a *Arc) Stats(load, slew float64) dist.Normal {
	if a.shared {
		if p := a.MeanRise.Locate(load, slew); p.OnGrid() {
			return dist.Normal{
				Mu:    max(a.MeanRise.InterpGrid(p), a.MeanFall.InterpGrid(p)),
				Sigma: max(a.SigmaRise.InterpGrid(p), a.SigmaFall.InterpGrid(p)),
			}
		}
	}
	mu := max(a.MeanRise.Lookup(load, slew), a.MeanFall.Lookup(load, slew))
	sg := max(a.SigmaRise.Lookup(load, slew), a.SigmaFall.Lookup(load, slew))
	return dist.Normal{Mu: mu, Sigma: sg}
}

// SigmaTables returns all sigma tables of the pin (rise and fall of every
// arc) — the inputs to the per-pin max-equivalent LUT of Section VI.C.
func (p *Pin) SigmaTables() []*lut.Table {
	var ts []*lut.Table
	for _, a := range p.Arcs {
		ts = append(ts, a.SigmaRise, a.SigmaFall)
	}
	return ts
}

// MaxSigmaTable folds the pin's sigma tables into the worst-case
// equivalent table ("for every output pin of a cell, a maximum equivalent
// look-up table is created by taking the maximum value for each entry of
// the related tables").
func (p *Pin) MaxSigmaTable() (*lut.Table, error) {
	return lut.MaxEquivalent(p.SigmaTables()...)
}

// MaxSigma returns the library-wide maximum sigma value, used to scale
// Fig. 7 style summaries.
func (l *Library) MaxSigma() float64 {
	m := 0.0
	for _, c := range l.Cells {
		for _, p := range c.Pins {
			for _, t := range p.SigmaTables() {
				if v := t.Max(); v > m {
					m = v
				}
			}
		}
	}
	return m
}
