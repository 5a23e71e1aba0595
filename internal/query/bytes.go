package query

import (
	"reflect"

	"stdcelltune/internal/lut"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/statlib"
)

// Sizes of the values a store holds, for the Bytes estimate.
var (
	sizeTable    = int64(reflect.TypeFor[lut.Table]().Size())
	sizeArc      = int64(reflect.TypeFor[statlib.Arc]().Size())
	sizePin      = int64(reflect.TypeFor[statlib.Pin]().Size())
	sizeCell     = int64(reflect.TypeFor[statlib.Cell]().Size())
	sizeInstance = int64(reflect.TypeFor[netlist.Instance]().Size())
	sizeNet      = int64(reflect.TypeFor[netlist.Net]().Size())
	sizeSink     = int64(reflect.TypeFor[netlist.Sink]().Size())
)

const (
	sizeWord   = 8
	sizeString = 2 * sizeWord // string header
	sizeSlice  = 3 * sizeWord // slice header
	// sizeMapSlot is a map entry's share of its buckets beyond the key
	// and value: the tophash byte, overflow pointers and free slots.
	sizeMapSlot = 2 * sizeWord
)

// Bytes is the store's estimated heap footprint: the columns, the
// statistical library's tables and names, the tuned windows, and the
// netlist's instances, nets, pin and sink slices and names, plus the
// warm what-if session while the store keeps one. The content part is
// computed once by Build, so equal stores report equal sizes on every
// run until a what-if builds their session; it is what the service's
// store cache budgets by. Values the store shares with the process (the
// cell catalogue) are not counted.
func (s *Store) Bytes() int64 { return s.bytes + s.sessions.bytes.Load() }

// round8 is n rounded up to the allocator's 8-byte granularity.
func round8(n int64) int64 { return (n + 7) &^ 7 }

// estimateBytes computes the Bytes estimate; Build calls it last.
func (s *Store) estimateBytes() int64 {
	n := columnBytes(s.Tables) + statBytes(s.stat)
	if w := s.Tables["windows"]; w != nil {
		// One map entry per window: its "cell/pin" key and four
		// float64 bounds.
		pins := w.Col("pin").S
		for i, cell := range w.Col("cell").S {
			n += sizeString + round8(int64(len(cell)+1+len(pins[i]))) + 4*sizeWord + sizeMapSlot
		}
	}
	if s.nl != nil {
		n += netlistBytes(s.nl)
	}
	return n
}

// columnBytes counts every column's backing array. String cells share
// their bytes with the library or the netlist, where they are counted.
func columnBytes(tables map[string]*Table) int64 {
	n := int64(0)
	for _, t := range tables {
		for _, c := range t.Cols {
			n += int64(cap(c.S))*sizeString + int64(cap(c.I))*sizeWord +
				int64(cap(c.F))*sizeWord + round8(int64(cap(c.B)))
		}
	}
	return n
}

// statBytes counts the statistical library: cells, pins and arcs, and
// per table its header, axes, row views and slab values.
func statBytes(l *statlib.Library) int64 {
	table := func(t *lut.Table) int64 {
		if t == nil {
			return 0
		}
		return sizeTable + int64(cap(t.Loads)+cap(t.Slews))*sizeWord +
			int64(len(t.Values))*sizeSlice + int64(len(t.Loads)*len(t.Slews))*sizeWord
	}
	n := int64(len(l.CellOrder)) * sizeString
	for _, c := range l.Cells {
		n += sizeCell + sizeString + sizeWord + sizeMapSlot + round8(int64(len(c.Name)+len(c.Footprint))) +
			int64(cap(c.Pins))*sizeWord
		for _, p := range c.Pins {
			n += sizePin + int64(cap(p.Arcs))*sizeWord
			for _, a := range p.Arcs {
				n += sizeArc + table(a.MeanRise) + table(a.MeanFall) + table(a.SigmaRise) + table(a.SigmaFall)
			}
		}
	}
	return n
}

// netlistBytes counts the design: the instance and net records, each
// instance's pin slice, each net's sinks, the names, the two pointer
// slices and the cached topological order.
func netlistBytes(nl *netlist.Netlist) int64 {
	n := int64(cap(nl.Instances)+cap(nl.Nets)) * sizeWord
	for _, inst := range nl.Instances {
		n += sizeInstance + int64(cap(inst.In)+cap(inst.Out))*sizeWord + round8(int64(len(inst.Name)))
	}
	for _, nt := range nl.Nets {
		n += sizeNet + int64(cap(nt.Sinks))*sizeSink + round8(int64(len(nt.Name)))
	}
	// TopoOrder's cache: the order and each instance's position in it.
	return n + 2*int64(len(nl.Instances))*sizeWord
}
