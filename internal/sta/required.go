package sta

import "math"

// RequiredTimes computes, per net ID, the latest time data may arrive on
// the net without violating any downstream endpoint — a backward pass
// mirroring the forward arrival propagation. The per-net slack
// (required - arrival) drives the area-recovery downsizing in synthesis:
// a cell whose output net has generous slack can afford to get slower.
//
// The backward pass reuses the arc delays implied by the forward
// solution (same loads and slews), which is the standard STA required-
// time approximation. Results are memoized — a snapshot is immutable, so
// the first caller pays and every later margin step reads the cache —
// and Engine-produced snapshots serve the arc delays from the engine's
// (load, slew)-validated cache instead of re-interpolating the LUTs.
func (r *Result) RequiredTimes() []float64 {
	r.requireComputed()
	return r.req
}

// NetSlacks returns required - arrival per net ID (positive = margin).
// Nets with no downstream endpoint have +Inf slack.
func (r *Result) NetSlacks() []float64 {
	r.requireComputed()
	return r.slacks
}

func (r *Result) requireComputed() {
	r.reqMu.Lock()
	defer r.reqMu.Unlock()
	if !r.reqDone {
		r.computeRequired()
		r.reqDone = true
	}
}

// grownF64 returns a length-n float64 slice, reusing buf's backing when
// it is large enough — pooled snapshots keep their req/slacks arrays.
func grownF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func (r *Result) computeRequired() {
	req := grownF64(r.req, len(r.Arrival))
	for i := range req {
		req[i] = math.Inf(1)
	}
	defer func() {
		r.req = req
		r.slacks = grownF64(r.slacks, len(req))
		for i := range req {
			r.slacks[i] = req[i] - r.Arrival[i]
		}
	}()
	// Seed endpoints.
	reqBase := r.Cfg.ClockPeriod - r.Cfg.Uncertainty
	for _, ep := range r.Endpoints {
		lim := reqBase
		if ep.IsFF {
			lim -= ep.Inst.Spec.SetupTime(r.nl.Cat.Corner)
		}
		if lim < req[ep.Net.ID] {
			req[ep.Net.ID] = lim
		}
	}
	// Reverse topological order: process instances after all their
	// fanout instances.
	order, err := r.nl.TopoOrder()
	if err != nil {
		return
	}
	for i := len(order) - 1; i >= 0; i-- {
		inst := order[i]
		if inst.Spec.IsSequential() {
			continue
		}
		if r.eng != nil {
			// Engine path: arcs are pre-resolved and delay lookups hit
			// the per-arc cache whenever the forward pass (or an earlier
			// backward pass) already evaluated this operating point.
			cc := r.eng.cellFor(inst)
			for pi, out := range inst.Out {
				p := &cc.pins[pi]
				if out == nil {
					continue
				}
				ro := req[out.ID]
				if math.IsInf(ro, 1) {
					continue
				}
				for ai := range inst.Spec.Inputs {
					inNet := inst.In[ai]
					if inNet == nil {
						continue
					}
					arc := p.cur.arcs[ai]
					if arc == nil {
						continue
					}
					d, _ := p.eval(ai, arc, r.Load[out.ID], r.Slew[inNet.ID])
					if lim := ro - d; lim < req[inNet.ID] {
						req[inNet.ID] = lim
					}
				}
			}
			continue
		}
		for oi, out := range inst.Out {
			if out == nil {
				continue
			}
			pin := inst.Spec.Outputs[oi]
			ro := req[out.ID]
			if math.IsInf(ro, 1) {
				continue
			}
			for ii, in := range inst.Spec.Inputs {
				inNet := inst.In[ii]
				if inNet == nil {
					continue
				}
				arc := r.arcOf(inst, pin, in)
				if arc == nil {
					continue
				}
				d, _ := arc.Eval(r.Load[out.ID], r.Slew[inNet.ID])
				if lim := ro - d; lim < req[inNet.ID] {
					req[inNet.ID] = lim
				}
			}
		}
	}
}
