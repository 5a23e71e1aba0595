// Package sdf writes Standard Delay Format (SDF 2.1 subset) annotation
// for a timed netlist: one CELL entry per instance with IOPATH delays at
// the operating points the STA solved — the artifact a downstream
// gate-level simulator consumes. The optional third triple value carries
// the local-variation sigma-derated delay (mu + 3*sigma) when a
// statistical library is supplied, so the annotation reflects the
// paper's variation model.
package sdf

import (
	"fmt"
	"io"
	"math"
	"strings"

	"stdcelltune/internal/netlist"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/statlib"
)

// Options controls annotation.
type Options struct {
	DesignName string
	// Stat, when non-nil, fills the max corner of each triple with
	// mu + 3*sigma from the statistical library.
	Stat *statlib.Library
}

// Write emits the SDF file for the netlist using the STA solution's
// loads and slews.
func Write(w io.Writer, nl *netlist.Netlist, r *sta.Result, opts Options) error {
	name := opts.DesignName
	if name == "" {
		name = nl.Name
	}
	var b strings.Builder
	b.WriteString("(DELAYFILE\n")
	fmt.Fprintf(&b, "  (SDFVERSION \"2.1\")\n  (DESIGN \"%s\")\n", name)
	b.WriteString("  (TIMESCALE 1ns)\n")
	for _, inst := range nl.Instances {
		entries := iopaths(nl, r, inst, opts.Stat)
		if len(entries) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  (CELL (CELLTYPE \"%s\") (INSTANCE %s)\n    (DELAY (ABSOLUTE\n",
			inst.Spec.Name, sdfName(inst.Name))
		for _, e := range entries {
			b.WriteString("      " + e + "\n")
		}
		b.WriteString("    ))\n  )\n")
	}
	b.WriteString(")\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// iopaths builds the IOPATH lines of one instance, in Spec.Outputs
// order and, per output, in the Liberty pin's arc order.
func iopaths(nl *netlist.Netlist, r *sta.Result, inst *netlist.Instance, stat *statlib.Library) []string {
	cell := nl.Cat.Lib.Cell(inst.Spec.Name)
	if cell == nil {
		return nil
	}
	var out []string
	for oi, outNet := range inst.Out {
		if outNet == nil || outNet.ID >= len(r.Load) {
			continue
		}
		outPin := inst.Spec.Outputs[oi]
		load := r.Load[outNet.ID]
		p := cell.Pin(outPin)
		if p == nil {
			continue
		}
		for _, arc := range p.Timing {
			slew := r.Cfg.InputSlew
			if in := inst.Input(arc.RelatedPin); in != nil && in.ID < len(r.Slew) {
				slew = r.Slew[in.ID]
			}
			rise := arc.CellRise.Lookup(load, slew)
			fall := arc.CellFall.Lookup(load, slew)
			riseMax, fallMax := rise, fall
			if stat != nil {
				if sc := stat.Cell(inst.Spec.Name); sc != nil {
					if sp := sc.Pin(outPin); sp != nil {
						if sa := sp.Arc(arc.RelatedPin); sa != nil {
							riseMax = rise + 3*sa.SigmaRise.Lookup(load, slew)
							fallMax = fall + 3*sa.SigmaFall.Lookup(load, slew)
						}
					}
				}
			}
			from := arc.RelatedPin
			if inst.Spec.IsSequential() {
				from = "(posedge " + arc.RelatedPin + ")"
			}
			out = append(out, fmt.Sprintf("(IOPATH %s %s (%s) (%s))",
				from, outPin, triple(rise, rise, riseMax), triple(fall, fall, fallMax)))
		}
	}
	return out
}

// triple renders min:typ:max with sane precision.
func triple(min, typ, max float64) string {
	return fmt.Sprintf("%s:%s:%s", num(min), num(typ), num(max))
}

func num(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "0.000"
	}
	return fmt.Sprintf("%.4f", v)
}

// sdfName escapes instance names for SDF (bus brackets etc.).
func sdfName(name string) string {
	if strings.ContainsAny(name, "[]$ ") {
		r := strings.NewReplacer("[", `\[`, "]", `\]`)
		return r.Replace(name)
	}
	return name
}
