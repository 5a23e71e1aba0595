// Package query is the library-as-a-database layer: a columnar
// in-memory store populated from pipeline artifacts — cells, arcs and
// tuned windows from the statistical library, instances and nets from
// the synthesized netlist, per-unit synthesis outcomes — plus a small
// typed query language (filter / project / aggregate / group-by / join)
// and two what-if evaluators (cell substitution and window widening)
// that drive the incremental STA engine, so "what does tuning this
// library buy me?" questions are answered without re-running the
// pipeline.
//
// The store's tables are immutable once built: concurrent queries share
// them freely. What-ifs edit a private clone of the netlist; the store
// parks one such clone, already timed at the baseline, between
// what-ifs (session.go).
// Execution is deterministic — fixed column order, stable sorts, group
// keys ordered by value — so identical queries over the same library
// render byte-identical results, which is what makes them cacheable in
// the service's content-addressed artifact cache.
package query

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"stdcelltune/internal/lut"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/restrict"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/stdcell"
)

// Type is a column's value type.
type Type uint8

const (
	TString Type = iota
	TInt
	TFloat
	TBool
)

// String returns the wire name of the type, used in result documents.
func (t Type) String() string {
	switch t {
	case TString:
		return "string"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	}
	return "unknown"
}

// Column is one typed column: exactly one of the value slices is
// populated, matching Type.
type Column struct {
	Name string
	Type Type
	S    []string
	I    []int64
	F    []float64
	B    []bool
}

// value returns row i as a JSON-marshalable Go value.
func (c *Column) value(i int) any {
	switch c.Type {
	case TString:
		return c.S[i]
	case TInt:
		return c.I[i]
	case TFloat:
		return c.F[i]
	default:
		return c.B[i]
	}
}

// number returns row i as a float64 for numeric columns.
func (c *Column) number(i int) (float64, bool) {
	switch c.Type {
	case TInt:
		return float64(c.I[i]), true
	case TFloat:
		return c.F[i], true
	}
	return 0, false
}

// Table is a named set of equal-length columns.
type Table struct {
	Name string
	Cols []*Column
	rows int

	byName map[string]*Column
}

// Rows returns the row count.
func (t *Table) Rows() int { return t.rows }

// Col returns the named column, nil if absent.
func (t *Table) Col(name string) *Column { return t.byName[name] }

// Columns lists the column names in declaration order.
func (t *Table) Columns() []string {
	out := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		out[i] = c.Name
	}
	return out
}

// tableBuilder accumulates rows column-wise.
type tableBuilder struct {
	t *Table
}

func newTable(name string) *tableBuilder {
	return &tableBuilder{t: &Table{Name: name, byName: make(map[string]*Column)}}
}

func (b *tableBuilder) col(name string, ty Type) *Column {
	c := &Column{Name: name, Type: ty}
	b.t.Cols = append(b.t.Cols, c)
	b.t.byName[name] = c
	return c
}

func (b *tableBuilder) finish() *Table {
	if len(b.t.Cols) > 0 {
		c := b.t.Cols[0]
		switch c.Type {
		case TString:
			b.t.rows = len(c.S)
		case TInt:
			b.t.rows = len(c.I)
		case TFloat:
			b.t.rows = len(c.F)
		case TBool:
			b.t.rows = len(c.B)
		}
	}
	return b.t
}

// SynthUnit is one synthesis outcome row of the Source — the service
// pipeline has one unit per job; exp.Flow-style batches may have many.
type SynthUnit struct {
	Unit               string
	Design             string
	ClockNS            float64
	Met                bool
	AreaUM2            float64
	WNS                float64
	TNS                float64
	Iterations         int
	Buffered           int
	Upsized            int
	Downsized          int
	FullAnalyses       int
	IncrementalUpdates int
}

// Source carries the pipeline artifacts a Store is built from. Library
// is the content digest addressing the artifact set; Netlist may be nil
// when no synthesized design is available (the design-side tables and
// what-ifs are then absent).
type Source struct {
	Library string // artifact-set digest, e.g. "sha256:..."
	Stat    *statlib.Library
	Windows *restrict.Set
	Netlist *netlist.Netlist
	STA     sta.Config
	Rho     float64
	Synth   []SynthUnit
}

// Store is the queryable columnar image of one characterized library
// and its synthesized design. Its tables are immutable after Build; its
// methods are safe for concurrent use.
type Store struct {
	Library string
	Tables  map[string]*Table

	// What-if inputs: the shared read-only netlist (cloned into each
	// session), the statistical library, the tuned windows and the
	// timing context the design was synthesized under.
	stat    *statlib.Library
	windows *restrict.Set
	nl      *netlist.Netlist
	staCfg  sta.Config
	rho     float64

	// base is the unmodified design's snapshot, every what-if's
	// baseline, taken from the analysis behind the paths table.
	base Metrics

	bytes int64 // see Bytes

	sessions sessionSlot // the warm what-if session
}

// TableNames lists the store's tables sorted.
func (s *Store) TableNames() []string {
	names := make([]string, 0, len(s.Tables))
	for n := range s.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tableMax scans a LUT for its largest finite value (0 for nil/empty
// tables), guarding against poisoning a column with NaN — JSON cannot
// carry it.
func tableMax(t *lut.Table) float64 {
	if t == nil {
		return 0
	}
	m := 0.0
	for _, row := range t.Values {
		for _, v := range row {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && v > m {
				m = v
			}
		}
	}
	return m
}

// Build assembles the columnar store from a source. Table row order is
// deterministic: library order for cells/arcs, sorted keys for windows,
// creation order for instances/nets, endpoint order for paths.
func Build(src Source) (*Store, error) {
	if src.Stat == nil {
		return nil, fmt.Errorf("query: source has no statistical library")
	}
	s := &Store{
		Library: src.Library,
		Tables:  make(map[string]*Table),
		stat:    src.Stat,
		windows: src.Windows,
		nl:      src.Netlist,
		staCfg:  src.STA,
		rho:     src.Rho,
	}
	s.buildCellTables(src.Stat)
	s.buildWindowTable(src.Windows)
	s.buildSynthTable(src.Synth)
	if src.Netlist != nil {
		if err := s.buildDesignTables(src.Netlist, src.Stat, src.STA, src.Rho); err != nil {
			return nil, err
		}
	}
	s.bytes = s.estimateBytes()
	return s, nil
}

func (s *Store) buildCellTables(stat *statlib.Library) {
	cb := newTable("cells")
	cName := cb.col("cell", TString)
	cFam := cb.col("family", TString)
	cDrive := cb.col("drive", TInt)
	cArea := cb.col("area_um2", TFloat)
	cSeq := cb.col("is_sequential", TBool)
	cPins := cb.col("pins", TInt)
	cArcs := cb.col("arcs", TInt)
	cMean := cb.col("max_mean_ns", TFloat)
	cSigma := cb.col("max_sigma_ns", TFloat)
	cQuar := cb.col("quarantined", TBool)

	ab := newTable("arcs")
	aCell := ab.col("cell", TString)
	aPin := ab.col("pin", TString)
	aRel := ab.col("related_pin", TString)
	aMean := ab.col("max_mean_ns", TFloat)
	aSigma := ab.col("max_sigma_ns", TFloat)

	addCell := func(name string) {
		c := stat.Cells[name]
		cName.S = append(cName.S, c.Name)
		cFam.S = append(cFam.S, stdcell.FamilyOf(c.Name))
		cDrive.I = append(cDrive.I, int64(c.DriveStrength))
		cArea.F = append(cArea.F, c.Area)
		// The statistical library does not carry the Kind; sequential
		// cells are recognizable by their footprint-family prefix via the
		// nominal catalogue naming ("DFF..."/"LAT...").
		cSeq.B = append(cSeq.B, isSequentialName(c.Name))
		nArcs, maxMean, maxSigma := 0, 0.0, 0.0
		for _, p := range c.Pins {
			for _, a := range p.Arcs {
				nArcs++
				am := math.Max(tableMax(a.MeanRise), tableMax(a.MeanFall))
				as := math.Max(tableMax(a.SigmaRise), tableMax(a.SigmaFall))
				if am > maxMean {
					maxMean = am
				}
				if as > maxSigma {
					maxSigma = as
				}
				aCell.S = append(aCell.S, c.Name)
				aPin.S = append(aPin.S, p.Name)
				aRel.S = append(aRel.S, a.RelatedPin)
				aMean.F = append(aMean.F, am)
				aSigma.F = append(aSigma.F, as)
			}
		}
		cPins.I = append(cPins.I, int64(len(c.Pins)))
		cArcs.I = append(cArcs.I, int64(nArcs))
		cMean.F = append(cMean.F, maxMean)
		cSigma.F = append(cSigma.F, maxSigma)
		cQuar.B = append(cQuar.B, false)
	}
	for _, name := range stat.CellOrder {
		addCell(name)
	}
	// Quarantined cells appear as rows too — an analyst asking "what got
	// dropped?" should not need a separate endpoint — with zeroed
	// statistics and the flag set.
	if stat.Quarantine != nil {
		for _, e := range stat.Quarantine.Entries() {
			cName.S = append(cName.S, e.Name)
			cFam.S = append(cFam.S, stdcell.FamilyOf(e.Name))
			cDrive.I = append(cDrive.I, 0)
			cArea.F = append(cArea.F, 0)
			cSeq.B = append(cSeq.B, isSequentialName(e.Name))
			cPins.I = append(cPins.I, 0)
			cArcs.I = append(cArcs.I, 0)
			cMean.F = append(cMean.F, 0)
			cSigma.F = append(cSigma.F, 0)
			cQuar.B = append(cQuar.B, true)
		}
	}
	s.Tables["cells"] = cb.finish()
	s.Tables["arcs"] = ab.finish()
}

// isSequentialName recognizes the catalogue's sequential families by
// name prefix ("DFQ"/"DFRQ"/... flip-flops, "LATQ"/"LATRQ" latches);
// statlib cells don't carry the Kind enum.
func isSequentialName(cell string) bool {
	fam := stdcell.FamilyOf(cell)
	return strings.HasPrefix(fam, "DF") || strings.HasPrefix(fam, "LAT")
}

func (s *Store) buildWindowTable(set *restrict.Set) {
	wb := newTable("windows")
	wCell := wb.col("cell", TString)
	wPin := wb.col("pin", TString)
	wMinL := wb.col("min_load_pf", TFloat)
	wMaxL := wb.col("max_load_pf", TFloat)
	wMinS := wb.col("min_slew_ns", TFloat)
	wMaxS := wb.col("max_slew_ns", TFloat)
	wSpanL := wb.col("load_span_pf", TFloat)
	wSpanS := wb.col("slew_span_ns", TFloat)
	if set != nil {
		for _, k := range set.Keys() {
			cell, pin := splitKey(k)
			w, _ := set.Window(cell, pin)
			wCell.S = append(wCell.S, cell)
			wPin.S = append(wPin.S, pin)
			wMinL.F = append(wMinL.F, w.MinLoad)
			wMaxL.F = append(wMaxL.F, w.MaxLoad)
			wMinS.F = append(wMinS.F, w.MinSlew)
			wMaxS.F = append(wMaxS.F, w.MaxSlew)
			wSpanL.F = append(wSpanL.F, w.MaxLoad-w.MinLoad)
			wSpanS.F = append(wSpanS.F, w.MaxSlew-w.MinSlew)
		}
	}
	s.Tables["windows"] = wb.finish()
}

func splitKey(k string) (cell, pin string) {
	for i := 0; i < len(k); i++ {
		if k[i] == '/' {
			return k[:i], k[i+1:]
		}
	}
	return k, ""
}

func (s *Store) buildSynthTable(units []SynthUnit) {
	sb := newTable("synthesis")
	uName := sb.col("unit", TString)
	uDesign := sb.col("design", TString)
	uClock := sb.col("clock_ns", TFloat)
	uMet := sb.col("met", TBool)
	uArea := sb.col("area_um2", TFloat)
	uWNS := sb.col("wns_ns", TFloat)
	uTNS := sb.col("tns_ns", TFloat)
	uIter := sb.col("iterations", TInt)
	uBuf := sb.col("buffered", TInt)
	uUp := sb.col("upsized", TInt)
	uDown := sb.col("downsized", TInt)
	uFull := sb.col("full_analyses", TInt)
	uInc := sb.col("incremental_updates", TInt)
	for _, u := range units {
		uName.S = append(uName.S, u.Unit)
		uDesign.S = append(uDesign.S, u.Design)
		uClock.F = append(uClock.F, u.ClockNS)
		uMet.B = append(uMet.B, u.Met)
		uArea.F = append(uArea.F, u.AreaUM2)
		uWNS.F = append(uWNS.F, u.WNS)
		uTNS.F = append(uTNS.F, u.TNS)
		uIter.I = append(uIter.I, int64(u.Iterations))
		uBuf.I = append(uBuf.I, int64(u.Buffered))
		uUp.I = append(uUp.I, int64(u.Upsized))
		uDown.I = append(uDown.I, int64(u.Downsized))
		uFull.I = append(uFull.I, int64(u.FullAnalyses))
		uInc.I = append(uInc.I, int64(u.IncrementalUpdates))
	}
	s.Tables["synthesis"] = sb.finish()
}

func (s *Store) buildDesignTables(nl *netlist.Netlist, stat *statlib.Library, cfg sta.Config, rho float64) error {
	depths, err := nl.Depths()
	if err != nil {
		return fmt.Errorf("query: design depths: %w", err)
	}

	ib := newTable("instances")
	iName := ib.col("inst", TString)
	iCell := ib.col("cell", TString)
	iFam := ib.col("family", TString)
	iDrive := ib.col("drive", TInt)
	iArea := ib.col("area_um2", TFloat)
	iSeq := ib.col("is_sequential", TBool)
	iFanout := ib.col("fanout", TInt)
	iDepth := ib.col("depth", TInt)
	for _, inst := range nl.Instances {
		fanout := 0
		for _, n := range inst.Out {
			if n != nil {
				fanout += len(n.Sinks)
			}
		}
		iName.S = append(iName.S, inst.Name)
		iCell.S = append(iCell.S, inst.Spec.Name)
		iFam.S = append(iFam.S, inst.Spec.Family)
		iDrive.I = append(iDrive.I, int64(inst.Spec.Drive))
		iArea.F = append(iArea.F, inst.Spec.Area())
		iSeq.B = append(iSeq.B, inst.Spec.IsSequential())
		iFanout.I = append(iFanout.I, int64(fanout))
		iDepth.I = append(iDepth.I, int64(depths[inst.ID]))
	}
	s.Tables["instances"] = ib.finish()

	nb := newTable("nets")
	nName := nb.col("net", TString)
	nDrvI := nb.col("driver_inst", TString)
	nDrvC := nb.col("driver_cell", TString)
	nFan := nb.col("fanout", TInt)
	nPI := nb.col("primary_in", TBool)
	nPO := nb.col("primary_out", TBool)
	for _, n := range nl.Nets {
		drvI, drvC := "", ""
		if n.Driver != nil {
			drvI, drvC = n.Driver.Name, n.Driver.Spec.Name
		}
		po := false
		for _, snk := range n.Sinks {
			if snk.Inst == nil {
				po = true
				break
			}
		}
		nName.S = append(nName.S, n.Name)
		nDrvI.S = append(nDrvI.S, drvI)
		nDrvC.S = append(nDrvC.S, drvC)
		nFan.I = append(nFan.I, int64(len(n.Sinks)))
		nPI.B = append(nPI.B, n.PrimaryIn)
		nPO.B = append(nPO.B, po)
	}
	s.Tables["nets"] = nb.finish()

	// The paths table is computed, not parsed: one full STA pass plus
	// the statistical per-path analysis — the cheap reanalysis that the
	// whole query layer exists to exploit (no synthesis involved).
	r, err := sta.Analyze(nl, cfg)
	if err != nil {
		return fmt.Errorf("query: design timing: %w", err)
	}
	ds, err := stattime.Analyze(r, stat, rho)
	if err != nil {
		return fmt.Errorf("query: design statistics: %w", err)
	}
	s.base = snapshotMetrics(nl, r, ds)
	pb := newTable("paths")
	pEnd := pb.col("endpoint", TString)
	pFF := pb.col("is_ff", TBool)
	pDepth := pb.col("depth", TInt)
	pSlack := pb.col("slack_ns", TFloat)
	pMu := pb.col("mu_ns", TFloat)
	pSigma := pb.col("sigma_ns", TFloat)
	pUpper := pb.col("mu_plus_3sigma_ns", TFloat)
	for _, p := range ds.Paths {
		pEnd.S = append(pEnd.S, p.Endpoint.Name)
		pFF.B = append(pFF.B, p.Endpoint.IsFF)
		pDepth.I = append(pDepth.I, int64(p.Depth))
		pSlack.F = append(pSlack.F, p.Endpoint.Slack)
		pMu.F = append(pMu.F, p.Dist.Mu)
		pSigma.F = append(pSigma.F, p.Dist.Sigma)
		pUpper.F = append(pUpper.F, p.Dist.ThreeSigmaUpper())
	}
	s.Tables["paths"] = pb.finish()
	return nil
}
