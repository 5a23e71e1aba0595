package query

import (
	"errors"
	"fmt"
	"math"

	"stdcelltune/internal/netlist"
	"stdcelltune/internal/restrict"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/stdcell"
)

// SchemaWhatIf is the wire schema of a what-if result document.
const SchemaWhatIf = "stdcelltune-whatif/1"

// ErrNoDesign marks a what-if against a library whose artifact set has
// no synthesized netlist to evaluate on.
var ErrNoDesign = errors.New("library has no synthesized design")

// Metrics is one timing/area snapshot of the design.
type Metrics struct {
	AreaUM2        float64 `json:"area_um2"`
	WNSNS          float64 `json:"wns_ns"`
	TNSNS          float64 `json:"tns_ns"`
	MuNS           float64 `json:"mu_ns"`
	SigmaNS        float64 `json:"sigma_ns"`
	MuPlus3SigmaNS float64 `json:"mu_plus_3sigma_ns"`
}

func (m Metrics) sub(o Metrics) Metrics {
	return Metrics{
		AreaUM2:        m.AreaUM2 - o.AreaUM2,
		WNSNS:          m.WNSNS - o.WNSNS,
		TNSNS:          m.TNSNS - o.TNSNS,
		MuNS:           m.MuNS - o.MuNS,
		SigmaNS:        m.SigmaNS - o.SigmaNS,
		MuPlus3SigmaNS: m.MuPlus3SigmaNS - o.MuPlus3SigmaNS,
	}
}

// Change records one netlist edit a what-if applied.
type Change struct {
	Inst string `json:"inst"`
	From string `json:"from"`
	To   string `json:"to"`
}

// maxReportedChanges bounds the change list in the result document;
// Changed always carries the true count.
const maxReportedChanges = 100

// WhatIfResult is the outcome of a what-if evaluation: the baseline and
// mutated design metrics, their delta, and the incremental-STA
// accounting proving no re-synthesis happened.
type WhatIfResult struct {
	Schema  string  `json:"schema"`
	Library string  `json:"library"`
	Op      string  `json:"op"`
	From    string  `json:"from,omitempty"`
	To      string  `json:"to,omitempty"`
	Factor  float64 `json:"factor,omitempty"`

	Changed  int     `json:"changed"`
	Baseline Metrics `json:"baseline"`
	Result   Metrics `json:"result"`
	Delta    Metrics `json:"delta"`

	// Engine accounting for this evaluation: the one full pass that
	// establishes the baseline, counted whether this evaluation ran it
	// or reused a session already at the baseline, then the evaluation's
	// own updates — what a fresh engine would report.
	FullAnalyses       int `json:"full_analyses"`
	IncrementalUpdates int `json:"incremental_updates"`

	Changes []Change `json:"changes,omitempty"`
}

// EvalWhatIf dispatches a normalized what-if clause.
func (s *Store) EvalWhatIf(w *WhatIf) (*WhatIfResult, error) {
	switch w.Op {
	case "substitute":
		return s.Substitute(w.From, w.To)
	case "widen":
		return s.Widen(w.Factor)
	}
	return nil, fmt.Errorf("%w: unknown what_if op %q", ErrBadQuery, w.Op)
}

// metrics folds one STA result plus its statistical analysis into a
// snapshot.
func (s *Store) metrics(nl *netlist.Netlist, r *sta.Result) (Metrics, error) {
	ds, err := stattime.Analyze(r, s.stat, s.rho)
	if err != nil {
		return Metrics{}, fmt.Errorf("query: what-if statistics: %w", err)
	}
	return snapshotMetrics(nl, r, ds), nil
}

// snapshotMetrics assembles the metrics of one analysis and its
// statistical pass.
func snapshotMetrics(nl *netlist.Netlist, r *sta.Result, ds *stattime.DesignStats) Metrics {
	return Metrics{
		AreaUM2:        nl.Area(),
		WNSNS:          r.WNS(),
		TNSNS:          r.TNS(),
		MuNS:           ds.Design.Mu,
		SigmaNS:        ds.Design.Sigma,
		MuPlus3SigmaNS: ds.Design.ThreeSigmaUpper(),
	}
}

// Substitute evaluates "swap every instance of cell `from` for cell
// `to`" on the baseline-timed session with a single batched
// incremental reanalysis — no synthesis. Cross-footprint swaps are
// rejected: pin names and logic function only line up within a family.
func (s *Store) Substitute(from, to string) (*WhatIfResult, error) {
	if s.nl == nil {
		return nil, ErrNoDesign
	}
	cat := s.nl.Cat
	fromSpec, toSpec := cat.Spec(from), cat.Spec(to)
	if fromSpec == nil {
		return nil, fmt.Errorf("%w: unknown cell %q", ErrBadQuery, from)
	}
	if toSpec == nil {
		return nil, fmt.Errorf("%w: unknown cell %q", ErrBadQuery, to)
	}
	if fromSpec.Family != toSpec.Family {
		return nil, fmt.Errorf("%w: cannot substitute across footprints %s -> %s", ErrBadQuery, fromSpec.Family, toSpec.Family)
	}
	ss, err := s.checkout()
	if err != nil {
		return nil, err
	}
	defer s.checkin(ss)
	nl := ss.nl

	res := &WhatIfResult{
		Schema:  SchemaWhatIf,
		Library: s.Library,
		Op:      "substitute",
		From:    from,
		To:      to,
	}
	for _, inst := range nl.Instances {
		if inst.Spec.Name != from {
			continue
		}
		if err := nl.Resize(inst, toSpec); err != nil {
			return nil, fmt.Errorf("query: substitute %s: %w", inst.Name, err)
		}
		res.Changed++
		if len(res.Changes) < maxReportedChanges {
			res.Changes = append(res.Changes, Change{Inst: inst.Name, From: from, To: to})
		}
	}
	if res.Changed == 0 {
		res.Baseline, res.Result = s.base, s.base
		res.FullAnalyses, res.IncrementalUpdates = ss.counts()
		return res, nil
	}
	nr, err := ss.eng.Analyze()
	if err != nil {
		return nil, fmt.Errorf("query: substituted analysis: %w", err)
	}
	ss.snap = nr
	after, err := s.metrics(nl, nr)
	if err != nil {
		return nil, err
	}
	res.Baseline, res.Result, res.Delta = s.base, after, after.sub(s.base)
	res.FullAnalyses, res.IncrementalUpdates = ss.counts()
	return res, nil
}

// Widen evaluates "what if every tuned window were wider by factor f":
// each window expands about its center (half-spans scaled by f, lower
// bounds clamped at 0), then a greedy topological downsize pass
// recovers area wherever the widened windows newly permit a smaller
// drive, accepting only moves that keep timing and window legality.
// factor > 1 widens, factor < 1 narrows. The report is the classic
// tuning trade: area recovered vs sigma cost, with no synthesis run.
func (s *Store) Widen(factor float64) (*WhatIfResult, error) { return s.widen(factor, nil) }

// widen is Widen with a hook run after every probe's update, before the
// accept/revert decision.
func (s *Store) widen(factor float64, probed func(*widening)) (*WhatIfResult, error) {
	if s.nl == nil {
		return nil, ErrNoDesign
	}
	if s.windows == nil || s.windows.Len() == 0 {
		return nil, fmt.Errorf("%w: library has no restriction windows to widen", ErrBadQuery)
	}
	ss, err := s.checkout()
	if err != nil {
		return nil, err
	}
	defer s.checkin(ss)
	nl, eng := ss.nl, ss.eng
	cat := nl.Cat
	w := &widening{
		nl:     nl,
		eng:    eng,
		lim:    restrict.Resolve(widenSet(s.windows, factor), cat),
		viol:   make([]uint8, nl.NetExtent()),
		minWNS: math.Min(0, eng.WNS()) - 1e-9,
		late:   make([]int32, nl.NetExtent()),
	}
	for _, n := range nl.Nets {
		w.recheck(n)
	}

	res := &WhatIfResult{
		Schema:  SchemaWhatIf,
		Library: s.Library,
		Op:      "widen",
		Factor:  factor,
	}

	order, err := nl.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("query: what-if topo order: %w", err)
	}
	// Probe one step down per instance: apply, update incrementally,
	// keep if timing holds (never worse than the baseline WNS) and the
	// widened windows stay satisfied; otherwise revert. A reverted
	// probe's dirty marks resolve in the next probe's update.
	for _, inst := range order {
		down := cat.Step(inst.Spec, -1)
		if down == nil {
			continue
		}
		prev := inst.Spec
		if err := w.resize(inst, down); err != nil {
			continue
		}
		if err := w.update(); err != nil {
			return nil, fmt.Errorf("query: widen probe: %w", err)
		}
		if probed != nil {
			probed(w)
		}
		if w.nlate == 0 && w.violations == 0 {
			res.Changed++
			if len(res.Changes) < maxReportedChanges {
				res.Changes = append(res.Changes, Change{Inst: inst.Name, From: prev.Name, To: down.Name})
			}
			continue
		}
		if err := w.resize(inst, prev); err != nil {
			return nil, fmt.Errorf("query: widen revert %s: %w", inst.Name, err)
		}
	}
	// The one snapshot of the pass, after resolving a trailing revert.
	r, err := eng.Analyze()
	if err != nil {
		return nil, fmt.Errorf("query: widen final analysis: %w", err)
	}
	ss.snap = r
	after, err := s.metrics(nl, r)
	if err != nil {
		return nil, err
	}
	res.Baseline, res.Result, res.Delta = s.base, after, after.sub(s.base)
	res.FullAnalyses, res.IncrementalUpdates = ss.counts()
	return res, nil
}

// widening is the acceptance state of one widen pass: per-net counts of
// violations against the widened windows and of endpoints whose slack
// is below minWNS, both kept current by rechecking only the nets a probe
// can have moved.
type widening struct {
	nl  *netlist.Netlist
	eng *sta.Engine
	lim *restrict.Table

	viol       []uint8 // per net ID: load and slew violations, 0..2
	violations int     // sum of viol

	// late counts, per net ID, the endpoints on the net whose slack is
	// below minWNS; nlate is its sum. nlate == 0 is exactly
	// eng.WNS() >= minWNS: WNS is the least slack that compares below
	// +Inf, so a NaN slack is neither the minimum nor late, and a design
	// whose every slack is NaN or +Inf reads WNS 0, above minWNS < 0.
	minWNS float64
	late   []int32
	nlate  int

	// touched holds the nets of the instances resized since the last
	// update: their limits follow the driver (load) and sink (slew)
	// specs, and a resized flop's setup time moves the slack of the
	// endpoint on its D net, so they need a recheck even where their
	// values held.
	touched []*netlist.Net
}

func (w *widening) resize(inst *netlist.Instance, to *stdcell.Spec) error {
	if err := w.nl.Resize(inst, to); err != nil {
		return err
	}
	for _, n := range inst.In {
		if n != nil {
			w.touched = append(w.touched, n)
		}
	}
	for _, n := range inst.Out {
		if n != nil {
			w.touched = append(w.touched, n)
		}
	}
	return nil
}

// update brings the engine current and rechecks the nets it changed
// plus the touched ones; after a full pass, every net (and so every
// endpoint).
func (w *widening) update() error {
	if err := w.eng.Update(); err != nil {
		return err
	}
	ids, all := w.eng.ChangedNets()
	if all {
		for _, n := range w.nl.Nets {
			w.recheck(n)
		}
	} else {
		for _, id := range ids {
			w.recheck(w.nl.Nets[id])
		}
		for _, n := range w.touched {
			w.recheck(n)
		}
	}
	w.touched = w.touched[:0]
	return nil
}

// recheck recounts one net's violations — the driver's load limit, and
// the tightest input-slew limit of any cell the net feeds: the same
// legality the synthesizer enforces, under the widened windows — and
// the endpoints on it with slack below minWNS.
func (w *widening) recheck(n *netlist.Net) {
	var late int32
	for _, i := range w.eng.NetEndpoints(n.ID) {
		if w.eng.EndpointSlack(int(i)) < w.minWNS {
			late++
		}
	}
	w.nlate += int(late - w.late[n.ID])
	w.late[n.ID] = late
	var v uint8
	if n.Driver != nil && w.eng.Load(n.ID) > w.lim.Pin(n.Driver.Spec, n.DrvPin).Load+1e-12 {
		v++
	}
	limit := math.Inf(1)
	for _, snk := range n.Sinks {
		if snk.Inst == nil {
			continue
		}
		if l := w.lim.SinkSlew(snk.Inst.Spec); l < limit {
			limit = l
		}
	}
	if w.eng.Slew(n.ID) > limit+1e-12 {
		v++
	}
	w.violations += int(v) - int(w.viol[n.ID])
	w.viol[n.ID] = v
}

// widenSet scales every window's half-spans by factor about the window
// center, clamping lower bounds at zero.
func widenSet(set *restrict.Set, factor float64) *restrict.Set {
	out := restrict.NewSet(set.Name + "-widened")
	for _, k := range set.Keys() {
		cell, pin := splitKey(k)
		w, _ := set.Window(cell, pin)
		cl, cs := (w.MinLoad+w.MaxLoad)/2, (w.MinSlew+w.MaxSlew)/2
		hl, hs := (w.MaxLoad-w.MinLoad)/2*factor, (w.MaxSlew-w.MinSlew)/2*factor
		out.Put(cell, pin, restrict.Window{
			MinLoad: math.Max(0, cl-hl), MaxLoad: cl + hl,
			MinSlew: math.Max(0, cs-hs), MaxSlew: cs + hs,
		})
	}
	return out
}
