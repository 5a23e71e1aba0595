package sta

import "math"

// Hold (min-delay) analysis. Setup checks bound the slowest path; hold
// checks bound the fastest: data launched at a clock edge must not race
// through and corrupt the capturing flop's previous value. With an ideal
// (zero-skew) clock the check is earliestArrival >= holdTime.
//
// Restricting a library can only slow paths down, so tuning never
// worsens hold — this analysis exists to verify exactly that.

// HoldEndpoint is a hold check at a flip-flop D pin.
type HoldEndpoint struct {
	Name    string
	Arrival float64 // earliest data arrival, ns
	Hold    float64 // required hold time of the capturing FF
	Slack   float64 // Arrival - Hold (positive = safe)
}

// HoldResult carries the min-delay analysis.
type HoldResult struct {
	// MinArrival per net ID: the earliest the net can switch after the
	// launching clock edge.
	MinArrival []float64
	Endpoints  []HoldEndpoint
}

// WorstHoldSlack returns the most negative hold slack (positive when all
// checks pass).
func (h *HoldResult) WorstHoldSlack() float64 {
	w := math.Inf(1)
	for _, e := range h.Endpoints {
		if e.Slack < w {
			w = e.Slack
		}
	}
	if math.IsInf(w, 1) {
		return 0
	}
	return w
}

// MeetsHold reports whether every hold check passes.
func (h *HoldResult) MeetsHold() bool { return h.WorstHoldSlack() >= 0 }

// AnalyzeHold runs the min-delay pass, reusing the max-delay solution's
// loads and slews (standard practice: min arrivals with the same
// parasitics).
func (r *Result) AnalyzeHold() (*HoldResult, error) {
	nl := r.nl
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	h := &HoldResult{MinArrival: make([]float64, len(r.Arrival))}
	for i := range h.MinArrival {
		h.MinArrival[i] = math.Inf(1)
	}
	for _, n := range nl.Nets {
		if n.PrimaryIn {
			h.MinArrival[n.ID] = 0
		}
	}
	for _, inst := range order {
		if inst.Spec.IsSequential() {
			for oi, out := range inst.Out {
				if out == nil {
					continue
				}
				pin := inst.Spec.Outputs[oi]
				arc := r.arcOf(inst, pin, inst.Spec.Clock)
				if arc == nil {
					continue
				}
				// Min delay: the faster of the rise/fall tables.
				d := math.Min(arc.CellRise.Lookup(r.Load[out.ID], r.Cfg.InputSlew),
					arc.CellFall.Lookup(r.Load[out.ID], r.Cfg.InputSlew))
				h.MinArrival[out.ID] = d
			}
			continue
		}
		for oi, out := range inst.Out {
			if out == nil {
				continue
			}
			pin := inst.Spec.Outputs[oi]
			best := math.Inf(1)
			for ii, in := range inst.Spec.Inputs {
				inNet := inst.In[ii]
				if inNet == nil {
					continue
				}
				arc := r.arcOf(inst, pin, in)
				if arc == nil {
					continue
				}
				d := math.Min(arc.CellRise.Lookup(r.Load[out.ID], r.Slew[inNet.ID]),
					arc.CellFall.Lookup(r.Load[out.ID], r.Slew[inNet.ID]))
				if a := h.MinArrival[inNet.ID] + d; a < best {
					best = a
				}
			}
			if math.IsInf(best, 1) {
				best = 0 // tie cells: constant, never races
			}
			h.MinArrival[out.ID] = best
		}
	}
	for _, inst := range nl.Instances {
		if !inst.Spec.IsSequential() {
			continue
		}
		d := inst.Input("D")
		if d == nil || d.Driver == nil {
			// Primary-input-fed flops are externally timed; without an
			// input-delay constraint a hold check there is meaningless.
			continue
		}
		hold := inst.Spec.HoldTime(nl.Cat.Corner)
		h.Endpoints = append(h.Endpoints, HoldEndpoint{
			Name:    inst.Name,
			Arrival: h.MinArrival[d.ID],
			Hold:    hold,
			Slack:   h.MinArrival[d.ID] - hold,
		})
	}
	return h, nil
}
