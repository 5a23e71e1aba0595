// Package restrict defines the per-pin operating windows that the
// library tuner emits and synthesis honors: for each output pin of a
// standard cell, minimum and maximum output-load and input-slew values
// that bind synthesis to a section of the cell's look-up table (paper
// Section VI: "for each pin of a standard cell a minimum and maximum slew
// and load value can be defined"). A Set resolved against a catalogue
// (Resolve) is the Table every legality check reads.
package restrict

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"stdcelltune/internal/digest"
	"stdcelltune/internal/stdcell"
)

// Window is the allowed LUT region of one output pin.
type Window struct {
	MinLoad, MaxLoad float64 // pF
	MinSlew, MaxSlew float64 // ns, input slew of the related pins
}

// Allows reports whether an operating point lies inside the window.
func (w Window) Allows(load, slew float64) bool {
	return load >= w.MinLoad && load <= w.MaxLoad &&
		slew >= w.MinSlew && slew <= w.MaxSlew
}

// Empty reports whether the window excludes every operating point.
func (w Window) Empty() bool { return w.MaxLoad < w.MinLoad || w.MaxSlew < w.MinSlew }

func (w Window) String() string {
	return fmt.Sprintf("load[%.4g,%.4g] slew[%.4g,%.4g]", w.MinLoad, w.MaxLoad, w.MinSlew, w.MaxSlew)
}

// Set is a collection of windows keyed by cell and output pin. A nil
// *Set means "unrestricted".
type Set struct {
	Name    string
	windows map[string]Window
}

// NewSet creates an empty restriction set.
func NewSet(name string) *Set {
	return &Set{Name: name, windows: make(map[string]Window)}
}

func key(cell, pin string) string { return cell + "/" + pin }

// Put stores the window of a cell output pin.
func (s *Set) Put(cell, pin string, w Window) { s.windows[key(cell, pin)] = w }

// Window returns the stored window and whether one exists.
func (s *Set) Window(cell, pin string) (Window, bool) {
	if s == nil {
		return Window{}, false
	}
	w, ok := s.windows[key(cell, pin)]
	return w, ok
}

// Allows reports whether the operating point of the given cell output pin
// is legal. Pins without a stored window are unrestricted. A nil set
// allows everything.
func (s *Set) Allows(cell, pin string, load, slew float64) bool {
	if s == nil {
		return true
	}
	w, ok := s.windows[key(cell, pin)]
	if !ok {
		return true
	}
	return w.Allows(load, slew)
}

// MaxLoad returns the effective maximum load of the pin: the window bound
// if present, otherwise fallback.
func (s *Set) MaxLoad(cell, pin string, fallback float64) float64 {
	if w, ok := s.Window(cell, pin); ok && w.MaxLoad < fallback {
		return w.MaxLoad
	}
	return fallback
}

// MaxSlew returns the effective maximum input slew of the pin: the
// window bound if present, otherwise fallback.
func (s *Set) MaxSlew(cell, pin string, fallback float64) float64 {
	if w, ok := s.Window(cell, pin); ok && w.MaxSlew < fallback {
		return w.MaxSlew
	}
	return fallback
}

// Len returns the number of stored windows.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.windows)
}

// Keys returns the sorted "cell/pin" keys, for reports.
func (s *Set) Keys() []string {
	if s == nil {
		return nil
	}
	ks := make([]string, 0, len(s.windows))
	for k := range s.windows {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// String summarizes the set.
func (s *Set) String() string {
	if s == nil {
		return "unrestricted"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "restriction set %q (%d windows)\n", s.Name, s.Len())
	for _, k := range s.Keys() {
		fmt.Fprintf(&b, "  %-14s %s\n", k, s.windows[k])
	}
	return b.String()
}

// Limit is the binding legality bound of one cell output pin: the
// window bound where the set holds a tighter one, otherwise the
// fallback — the cell's max_capacitance for load, the LUT's last slew
// point for slew.
type Limit struct {
	Load float64 // pF, output load
	Slew float64 // ns, input slew of the related pins
}

// Table is a Set resolved once against a catalogue: every spec's
// per-output-pin limits, indexed by Spec.Index, so a legality check
// builds no "cell/pin" key and hashes nothing. Immutable; safe for
// concurrent use. A nil Set resolves to the fallbacks alone.
type Table struct {
	set   *Set
	cat   *stdcell.Catalogue
	specs []specLimits // by Spec.Index
}

// specLimits is one spec's resolution: pins aligned with Spec.Outputs,
// and sink, the tightest slew over them — the bound the cell puts on
// the transition of a net it sinks.
type specLimits struct {
	pins []Limit
	sink float64
}

// Resolve builds the limit table of a set over every spec of the
// catalogue.
func Resolve(s *Set, cat *stdcell.Catalogue) *Table {
	t := &Table{set: s, cat: cat, specs: make([]specLimits, len(cat.Specs))}
	n := 0
	for _, spec := range cat.Specs {
		n += len(spec.Outputs)
	}
	flat := make([]Limit, n)
	for _, spec := range cat.Specs {
		k := len(spec.Outputs)
		t.specs[spec.Index] = t.resolve(spec, flat[:k:k])
		flat = flat[k:]
	}
	return t
}

// lastSlew is the slew fallback: the end of the LUT slew axis.
func lastSlew() float64 { return stdcell.SlewAxis[len(stdcell.SlewAxis)-1] }

func (t *Table) limit(spec *stdcell.Spec, pin string) Limit {
	return Limit{Load: t.set.MaxLoad(spec.Name, pin, spec.MaxCap()), Slew: t.set.MaxSlew(spec.Name, pin, lastSlew())}
}

func (t *Table) resolve(spec *stdcell.Spec, pins []Limit) specLimits {
	l := specLimits{pins: pins, sink: math.Inf(1)}
	for i, pin := range spec.Outputs {
		pins[i] = t.limit(spec, pin)
		if pins[i].Slew < l.sink {
			l.sink = pins[i].Slew
		}
	}
	return l
}

// of returns a spec's resolution; a spec outside the catalogue is
// resolved on the fly (and not stored, keeping the table immutable).
func (t *Table) of(spec *stdcell.Spec) specLimits {
	if t.cat.Owns(spec) {
		return t.specs[spec.Index]
	}
	return t.resolve(spec, make([]Limit, len(spec.Outputs)))
}

// Pins returns the spec's limits aligned with spec.Outputs.
func (t *Table) Pins(spec *stdcell.Spec) []Limit { return t.of(spec).pins }

// Pin returns the limit of one output pin of the spec.
func (t *Table) Pin(spec *stdcell.Spec, pin string) Limit {
	l := t.of(spec)
	for i, p := range spec.Outputs {
		if p == pin {
			return l.pins[i]
		}
	}
	return t.limit(spec, pin)
}

// SinkSlew returns the tightest input-slew limit over all of the spec's
// output pins: the bound an instance of it puts on each net it sinks.
func (t *Table) SinkSlew(spec *stdcell.Spec) float64 { return t.of(spec).sink }

// limitsDomain versions the Digest layout. Bump it when a field is
// added or re-ordered below.
const limitsDomain = "stdcelltune-limits/1"

// Digest returns the canonical content hash of the resolved limits:
// every catalogue spec in name order, each output pin's Limit in
// Spec.Outputs order, floats encoded exactly. It names what the table
// binds, not how the set was written: a nil set and a set whose every
// window is looser than the fallbacks share one digest, and the order
// of Put calls never shows. The window minima are not part of it, as
// no legality check reads them.
func (t *Table) Digest() string {
	d := digest.New(limitsDomain)
	for _, name := range t.cat.CellNames() {
		spec := t.cat.Specs[name]
		d.Str("spec", name)
		for i, l := range t.Pins(spec) {
			d.Str("pin", spec.Outputs[i])
			d.Float("load", l.Load)
			d.Float("slew", l.Slew)
		}
	}
	return d.Sum()
}
