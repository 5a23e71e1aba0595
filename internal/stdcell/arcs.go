package stdcell

import "stdcelltune/internal/liberty"

// TimingArcs returns the resolved timing arcs of the spec, indexed
// [output pin][input slot]. Combinational specs have one slot per entry
// of spec.Inputs (nil where the library has no such arc); sequential
// specs have a single clock-arc slot. The catalogue resolves its own
// specs once, when it is built, and the timing engines share the
// result; a spec from elsewhere is resolved on each call. The returned
// slices must be treated as read-only.
func (c *Catalogue) TimingArcs(spec *Spec) [][]*liberty.TimingArc {
	if c.Owns(spec) {
		return c.arcs[spec.Index]
	}
	return c.resolveArcs(spec)
}

func (c *Catalogue) resolveArcs(spec *Spec) [][]*liberty.TimingArc {
	arcIn := func(p *liberty.Pin, related string) *liberty.TimingArc {
		if p == nil {
			return nil
		}
		for _, a := range p.Timing {
			if a.RelatedPin == related {
				return a
			}
		}
		return nil
	}
	cell := c.Lib.Cell(spec.Name)
	out := make([][]*liberty.TimingArc, len(spec.Outputs))
	for pi, outPin := range spec.Outputs {
		var lp *liberty.Pin
		if cell != nil {
			lp = cell.Pin(outPin)
		}
		if spec.IsSequential() {
			out[pi] = []*liberty.TimingArc{arcIn(lp, spec.Clock)}
			continue
		}
		slots := make([]*liberty.TimingArc, len(spec.Inputs))
		for i, in := range spec.Inputs {
			slots[i] = arcIn(lp, in)
		}
		out[pi] = slots
	}
	return out
}
