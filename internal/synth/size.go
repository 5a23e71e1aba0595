package synth

import (
	"context"
	"math"

	"stdcelltune/internal/logic"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/restrict"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/stdcell"
)

// Options configures a synthesis run.
type Options struct {
	Clock    float64       // target clock period, ns
	STA      sta.Config    // timing context; zero value derives from Clock
	Restrict *restrict.Set // per-pin LUT windows (nil = unrestricted)
	MaxIter  int           // optimization iteration budget (0 = default)
}

// DefaultOptions returns the standard synthesis setup at a clock period.
func DefaultOptions(clock float64) Options {
	return Options{Clock: clock, STA: sta.DefaultConfig(clock), MaxIter: 60}
}

func (o Options) normalized() Options {
	if o.STA.ClockPeriod == 0 {
		o.STA = sta.DefaultConfig(o.Clock)
	}
	if o.MaxIter == 0 {
		o.MaxIter = 60
	}
	return o
}

// Result is a completed synthesis run.
type Result struct {
	Netlist *netlist.Netlist
	Timing  *sta.Result
	Opts    Options

	Met        bool // timing met and all legality satisfied
	Iterations int
	Buffered   int // repeater pairs inserted
	Upsized    int
	Downsized  int

	// Timing-analysis accounting for this run: how many whole-design
	// propagations the incremental engine ran versus dirty-cone updates.
	// Surfaced in exp.Flow's manifest outcomes so the perf trajectory is
	// auditable from artifacts alone.
	FullAnalyses       int
	IncrementalUpdates int
}

// Area returns the total cell area of the synthesized design.
func (r *Result) Area() float64 { return r.Netlist.Area() }

// Violations recounts the legality violations of the final solution:
// loads above the binding limit (max_capacitance or window) and input
// slews above the window bound.
func (r *Result) Violations() int {
	o := newOptimizer(r.Netlist, r.Opts)
	return o.legal(r.Timing)
}

// Violation describes one remaining legality problem.
type Violation struct {
	Cell, Pin string
	Kind      string // "load" or "slew"
	Value     float64
	Limit     float64
}

// ViolationList enumerates remaining legality problems for diagnostics.
func (r *Result) ViolationList() []Violation {
	o := newOptimizer(r.Netlist, r.Opts)
	var out []Violation
	for _, op := range r.Timing.OperatingPoints() {
		lim := o.lim.Pins(op.Inst.Spec)[op.OutIdx]
		if op.Load > lim.Load+1e-12 {
			out = append(out, Violation{Cell: op.Inst.Spec.Name, Pin: op.OutPin, Kind: "load", Value: op.Load, Limit: lim.Load})
		}
		if op.WorstIn > lim.Slew+1e-12 {
			out = append(out, Violation{Cell: op.Inst.Spec.Name, Pin: op.OutPin, Kind: "slew", Value: op.WorstIn, Limit: lim.Slew})
		}
	}
	return out
}

// optimizer carries the state of one synthesis optimization.
type optimizer struct {
	nl   *netlist.Netlist
	cat  *stdcell.Catalogue
	opts Options
	res  *Result
	eng  *sta.Engine

	// lim is opts.Restrict resolved per spec: every legality check reads
	// it, none builds a window-set key.
	lim *restrict.Table

	// batchScratch backs collectDownsizes' move list, reused across the
	// ~50 margin-ladder calls per recovery pass. Only one batch is alive
	// at a time: tryBatch consumes it fully before the next collection.
	batchScratch []sizeMove
}

func newOptimizer(nl *netlist.Netlist, opts Options) *optimizer {
	return &optimizer{nl: nl, cat: nl.Cat, opts: opts, lim: restrict.Resolve(opts.Restrict, nl.Cat)}
}

// Optimize sizes, legalizes and area-recovers an already mapped netlist
// in place.
func Optimize(nl *netlist.Netlist, opts Options) (*Result, error) {
	return OptimizeCtx(context.Background(), nl, opts)
}

// OptimizeCtx is Optimize with a context carrying the observability
// tracer: when tracing is on, every sizing iteration becomes a span, so
// the trace shows where the optimization loop spends its time.
func OptimizeCtx(ctx context.Context, nl *netlist.Netlist, opts Options) (*Result, error) {
	opts = opts.normalized()
	o := newOptimizer(nl, opts)
	o.res = &Result{Netlist: nl, Opts: opts}
	o.eng = sta.NewEngine(nl, opts.STA)
	defer o.eng.Close()
	if err := o.run(ctx); err != nil {
		return nil, err
	}
	o.res.FullAnalyses, o.res.IncrementalUpdates = o.eng.Counts()
	return o.res, nil
}

func (o *optimizer) run(ctx context.Context) error {
	tr := obs.TracerFrom(ctx)
	var r, prevR *sta.Result
	var err error
	stuck := 0
	lastWNS := math.Inf(-1)
	for iter := 0; iter < o.opts.MaxIter; iter++ {
		o.res.Iterations = iter + 1
		var span *obs.Span
		if tr != nil {
			span = tr.Start("size-iter", "synth-iter", "iter", iter+1)
		}
		r, err = o.eng.Analyze()
		if err != nil {
			span.End()
			return err
		}
		// The previous iteration's snapshot is dead once a new one
		// replaces it; Recycle's guards keep the engine's own live
		// snapshots out of the pool.
		if prevR != nil && prevR != r {
			o.eng.Recycle(prevR)
		}
		prevR = r
		fixes := o.fixLegality(r)
		if span != nil {
			span.Set("wns", r.WNS())
			span.Set("fixes", fixes)
		}
		if fixes > 0 {
			span.End()
			continue
		}
		if r.WNS() >= 0 {
			span.End()
			break
		}
		moves := o.timingStep(r)
		if span != nil {
			span.Set("moves", moves)
		}
		span.End()
		if moves == 0 {
			break // nothing more to do; timing unmet
		}
		// Stop when WNS stalls.
		if r.WNS() <= lastWNS+1e-9 {
			stuck++
			if stuck >= 5 {
				break
			}
		} else {
			stuck = 0
		}
		lastWNS = r.WNS()
	}
	// Area recovery only when timing has margin.
	r, err = o.eng.Analyze()
	if err != nil {
		return err
	}
	if r.WNS() >= 0 && o.legal(r) == 0 {
		var span *obs.Span
		if tr != nil {
			span = tr.Start("area-recovery", "synth-iter")
		}
		r, err = o.areaRecovery(r)
		span.End()
		if err != nil {
			return err
		}
	}
	o.res.Timing = r
	o.res.Met = r.MeetsTiming() && o.legal(r) == 0
	return nil
}

// legal counts remaining legality violations (load over limit or input
// slew over window).
func (o *optimizer) legal(r *sta.Result) int {
	n := 0
	r.EachOperatingPoint(func(op sta.OperatingPoint) {
		lim := o.lim.Pins(op.Inst.Spec)[op.OutIdx]
		if op.Load > lim.Load+1e-12 {
			n++
		}
		if op.WorstIn > lim.Slew+1e-12 {
			n++
		}
	})
	return n
}

// fixLegality repairs load and slew violations; returns the number of
// repairs applied.
func (o *optimizer) fixLegality(r *sta.Result) int {
	fixes := 0
	// Load violations: upsize the driver or split the fanout.
	for _, n := range o.nl.Nets {
		if n.Driver == nil {
			continue
		}
		spec := n.Driver.Spec
		limit := o.lim.Pin(spec, n.DrvPin).Load
		load := r.Load[n.ID]
		if load <= limit+1e-12 {
			continue
		}
		if up := o.nextSizeFor(spec, n.DrvPin, load); up != nil {
			if err := o.nl.Resize(n.Driver, up); err == nil {
				o.res.Upsized++
				fixes++
				continue
			}
		}
		if o.shedLoad(n, load, limit) {
			o.res.Buffered++
			fixes++
		}
	}
	if fixes > 0 {
		return fixes
	}
	// Slew violations: a net whose transition exceeds the tightest window
	// of any sink must be made faster — upsize the driver, else shed load
	// by splitting the fanout. (A repeater in front of one sink cannot
	// help: its own first stage would see the same slow edge.)
	for _, n := range o.nl.Nets {
		if n.Driver == nil {
			continue
		}
		limit := math.Inf(1)
		for _, s := range n.Sinks {
			if s.Inst == nil {
				continue
			}
			// A multi-output sink's outputs may carry different
			// windows: take its first connected output in Spec.Outputs
			// order.
			var outPin string
			for i, out := range s.Inst.Out {
				if out != nil {
					outPin = s.Inst.Spec.Outputs[i]
					break
				}
			}
			if outPin == "" {
				continue
			}
			if l := o.lim.Pin(s.Inst.Spec, outPin).Slew; l < limit {
				limit = l
			}
		}
		if r.Slew[n.ID] <= limit+1e-12 {
			continue
		}
		if up := o.cat.Step(n.Driver.Spec, +1); up != nil {
			if o.nl.Resize(n.Driver, up) == nil {
				o.res.Upsized++
				fixes++
				continue
			}
		}
		if len(n.Sinks) > 1 {
			o.splitFanout(n)
			o.res.Buffered++
			fixes++
		}
		// Single-sink net with a maxed driver and still-slow edge: the
		// window is unattainable here; reported as unmet.
	}
	return fixes
}

// nextSizeFor returns the smallest same-family spec able to drive load
// within its own limit, or nil.
func (o *optimizer) nextSizeFor(spec *stdcell.Spec, pin string, load float64) *stdcell.Spec {
	for _, s := range o.cat.Families[spec.Family] {
		if s.Drive <= spec.Drive {
			continue
		}
		if load <= o.lim.Pin(s, pin).Load {
			return s
		}
	}
	return nil
}

// shedLoad moves the heaviest sinks of an overloaded net behind an
// inverter-pair repeater until the remaining load fits the limit (the
// paper observes restricted designs gain inverters used as buffers to
// restore signal integrity). Returns false when nothing useful can move.
func (o *optimizer) shedLoad(n *netlist.Net, load, limit float64) bool {
	sinks := append([]netlist.Sink(nil), n.Sinks...)
	sortSinksByCapDesc(sinks, o.opts.STA)
	var moved []netlist.Sink
	remaining := load
	for _, s := range sinks {
		if remaining <= limit {
			break
		}
		moved = append(moved, s)
		remaining -= sinkCap(s, o.opts.STA)
	}
	if len(moved) == 0 {
		return false
	}
	o.insertRepeater(n, moved)
	return true
}

// splitFanout sheds the heavier half of a net's sinks behind a repeater,
// used to speed up a slow transition.
func (o *optimizer) splitFanout(n *netlist.Net) {
	sinks := append([]netlist.Sink(nil), n.Sinks...)
	sortSinksByCapDesc(sinks, o.opts.STA)
	o.insertRepeater(n, sinks[:(len(sinks)+1)/2])
}

func sinkCap(s netlist.Sink, cfg sta.Config) float64 {
	if s.Inst == nil {
		return cfg.OutputLoad
	}
	return s.Inst.Spec.InputCap()
}

func sortSinksByCapDesc(sinks []netlist.Sink, cfg sta.Config) {
	for i := 1; i < len(sinks); i++ {
		for j := i; j > 0 && sinkCap(sinks[j], cfg) > sinkCap(sinks[j-1], cfg); j-- {
			sinks[j], sinks[j-1] = sinks[j-1], sinks[j]
		}
	}
}

// insertRepeater drives the given sinks through an inverter pair so
// polarity is preserved. The second stage is sized for the moved load;
// the first stage is a small inverter sized only to drive the second —
// so the capacitance presented back to the original net is tiny and the
// repair strictly reduces the driver's load.
func (o *optimizer) insertRepeater(n *netlist.Net, moved []netlist.Sink) {
	load := o.opts.STA.WireCapPerFanout * float64(len(moved))
	for _, s := range moved {
		if s.Inst == nil {
			load += o.opts.STA.OutputLoad
		} else {
			load += s.Inst.Spec.InputCap()
		}
	}
	spec2 := o.smallestInvFor(load, 2)
	spec1 := o.smallestInvFor(spec2.InputCap()+o.opts.STA.WireCapPerFanout, 1)
	i1 := o.nl.AddInstance("", spec1)
	o.nl.Connect(i1, "A", n)
	mid := o.nl.AddNet("")
	o.nl.Drive(i1, "Y", mid)
	i2 := o.nl.AddInstance("", spec2)
	o.nl.Connect(i2, "A", mid)
	out := o.nl.AddNet("")
	o.nl.Drive(i2, "Y", out)
	o.nl.MoveSinks(n, out, moved)
}

// smallestInvFor picks the smallest inverter of at least minDrive that
// can legally drive the load.
func (o *optimizer) smallestInvFor(load float64, minDrive int) *stdcell.Spec {
	fam := o.cat.Families["INV"]
	for _, s := range fam {
		if s.Drive < minDrive {
			continue
		}
		if load <= o.lim.Pin(s, "Y").Load {
			return s
		}
	}
	return fam[len(fam)-1]
}

// timingStep upsizes cells on negative-slack nets; returns the number of
// moves applied.
func (o *optimizer) timingStep(r *sta.Result) int {
	slacks := r.NetSlacks()
	moves := 0
	// Focus on the critical half of the negative-slack population; the
	// tail often heals by itself once the worst drivers strengthen, and
	// indiscriminate upsizing bloats the design.
	threshold := 0.5 * r.WNS()
	for _, n := range o.nl.Nets {
		if n.Driver == nil || slacks[n.ID] >= threshold {
			continue
		}
		inst := n.Driver
		up := o.cat.Step(inst.Spec, +1)
		if up == nil {
			// Driver maxed out: a critical high-fanout net gains from a
			// buffer split instead (the moved half trades two repeater
			// delays for a halved load on the critical driver).
			if len(n.Sinks) > 4 {
				o.splitFanout(n)
				o.res.Buffered++
				moves++
			}
			continue
		}
		// The bigger cell must itself be legal at this operating point.
		if r.Load[n.ID] > o.lim.Pin(up, n.DrvPin).Load {
			continue
		}
		if !o.windowAllowsSlew(up, n.DrvPin, r, inst) {
			continue
		}
		if o.nl.Resize(inst, up) == nil {
			o.res.Upsized++
			moves++
		}
	}
	return moves
}

// windowAllowsSlew checks the candidate spec's slew window against the
// instance's current worst input slew.
func (o *optimizer) windowAllowsSlew(cand *stdcell.Spec, pin string, r *sta.Result, inst *netlist.Instance) bool {
	limit := o.lim.Pin(cand, pin).Slew
	for _, in := range inst.In {
		if in == nil || in.ID >= len(r.Slew) {
			continue // net created after this STA pass; checked next pass
		}
		if r.Slew[in.ID] > limit {
			return false
		}
	}
	return true
}

// areaRecovery downsizes cells with generous slack in batches, reverting
// (with one bisection retry) any batch that breaks timing or legality.
// The margin ladder repeats until a full pass yields no accepted batch,
// so a heavily oversized solution shrinks step by step.
func (o *optimizer) areaRecovery(r *sta.Result) (*sta.Result, error) {
	margins := []float64{0.5, 0.3, 0.2, 0.12, 0.08, 0.05, 0.03, 0.02, 0.01}
	// rExact tracks whether r is known to describe the netlist exactly.
	// It turns false when a bisection round accepts one half and reverts
	// the other: a multi-output instance collected once per driven net
	// can straddle the halves, and reverting the rejected half clobbers
	// its accepted duplicate, leaving r slightly stale (the pre-engine
	// code had the same semantics and healed at the next full analysis).
	// The engine may only Rewind to exact snapshots.
	rExact := true
	for pass := 0; pass < 6; pass++ {
		changed := false
		for _, frac := range margins {
			margin := frac * o.opts.STA.ClockPeriod
			batch := o.collectDownsizes(r, margin)
			if len(batch) == 0 {
				continue
			}
			nr, accepted, exact, err := o.tryBatch(r, batch, rExact)
			if err != nil {
				return nil, err
			}
			if accepted > 0 {
				o.res.Downsized += accepted
				if nr != r {
					o.eng.Recycle(r) // superseded by the accepted snapshot
				}
				r = nr
				rExact = exact
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return r, nil
}

type sizeMove struct {
	inst *netlist.Instance
	from *stdcell.Spec
	to   *stdcell.Spec
}

// collectDownsizes gathers one-step downsize candidates whose output net
// has at least margin slack and whose estimated delay increase fits
// comfortably inside that slack.
func (o *optimizer) collectDownsizes(r *sta.Result, margin float64) []sizeMove {
	slacks := r.NetSlacks()
	batch := o.batchScratch[:0]
	defer func() { o.batchScratch = batch }()
	for _, n := range o.nl.Nets {
		if n.Driver == nil || n.ID >= len(slacks) {
			continue
		}
		inst := n.Driver
		slack := slacks[n.ID]
		if slack < margin {
			continue
		}
		down := o.cat.Step(inst.Spec, -1)
		if down == nil {
			continue
		}
		if r.Load[n.ID] > o.lim.Pin(down, n.DrvPin).Load {
			continue
		}
		if !o.windowAllowsSlew(down, n.DrvPin, r, inst) {
			continue
		}
		if !math.IsInf(slack, 1) {
			if delta := o.resizeDelayDelta(r, inst, n, down); delta > 0.4*slack {
				continue
			}
		}
		batch = append(batch, sizeMove{inst: inst, from: inst.Spec, to: down})
	}
	return batch
}

// resizeDelayDelta estimates how much slower the instance's worst arc
// into this net becomes when swapped to cand, at the frozen operating
// point.
func (o *optimizer) resizeDelayDelta(r *sta.Result, inst *netlist.Instance, n *netlist.Net, cand *stdcell.Spec) float64 {
	oldCell := o.cat.Lib.Cell(inst.Spec.Name)
	newCell := o.cat.Lib.Cell(cand.Name)
	if oldCell == nil || newCell == nil {
		return math.Inf(1)
	}
	op := oldCell.Pin(n.DrvPin)
	np := newCell.Pin(n.DrvPin)
	if op == nil || np == nil {
		return math.Inf(1)
	}
	worst := 0.0
	for i, arc := range op.Timing {
		if i >= len(np.Timing) {
			break
		}
		inNet := inst.Input(arc.RelatedPin)
		slew := o.opts.STA.InputSlew
		if inNet != nil && inNet.ID < len(r.Slew) {
			slew = r.Slew[inNet.ID]
		}
		dOld, _ := arc.Eval(r.Load[n.ID], slew)
		dNew, _ := np.Timing[i].Eval(r.Load[n.ID], slew)
		if d := dNew - dOld; d > worst {
			worst = d
		}
	}
	return worst
}

// tryBatch applies a downsize batch; if the result breaks timing or
// legality it reverts and retries each half once (a single bisection
// level), returning the accepted move count and the current STA. rExact
// says whether r exactly describes the netlist; only then can a revert
// be followed by an engine Rewind to r (zero cost) — otherwise the
// revert's dirty marks are left pending and the next Analyze resolves
// them incrementally. The returned exact flag reports the same property
// for the returned Result: it turns false when an accepted half is
// followed by a rejected one, whose revert may clobber a duplicate
// move of a multi-output instance straddling the halves (matching the
// pre-engine semantics, which healed at the next fresh analysis).
func (o *optimizer) tryBatch(r *sta.Result, batch []sizeMove, rExact bool) (*sta.Result, int, bool, error) {
	apply := func(moves []sizeMove) error {
		for _, mv := range moves {
			if err := o.nl.Resize(mv.inst, mv.to); err != nil {
				return err
			}
		}
		return nil
	}
	revert := func(moves []sizeMove) error {
		for _, mv := range moves {
			if err := o.nl.Resize(mv.inst, mv.from); err != nil {
				return err
			}
		}
		return nil
	}
	if err := apply(batch); err != nil {
		return nil, 0, false, err
	}
	nr, err := o.eng.Analyze()
	if err != nil {
		return nil, 0, false, err
	}
	if nr.WNS() >= 0 && o.legal(nr) == 0 {
		return nr, len(batch), true, nil
	}
	if err := revert(batch); err != nil {
		return nil, 0, false, err
	}
	if rExact {
		if err := o.eng.Rewind(r); err != nil {
			return nil, 0, false, err
		}
	}
	// The rejected probe snapshot is dead either way: the edits are
	// reverted (and rewound when r was exact) and nothing escaped with
	// it. Its slices back the next snapshot.
	o.eng.Recycle(nr)
	if len(batch) < 2 {
		return r, 0, rExact, nil
	}
	accepted := 0
	cur := r
	curExact := rExact
	for _, half := range [][]sizeMove{batch[:len(batch)/2], batch[len(batch)/2:]} {
		if err := apply(half); err != nil {
			return nil, 0, false, err
		}
		nr, err := o.eng.Analyze()
		if err != nil {
			return nil, 0, false, err
		}
		if nr.WNS() >= 0 && o.legal(nr) == 0 {
			accepted += len(half)
			if cur != r {
				o.eng.Recycle(cur) // superseded first-half snapshot
			}
			cur = nr
			curExact = true
			continue
		}
		if err := revert(half); err != nil {
			return nil, 0, false, err
		}
		if accepted == 0 {
			// Nothing accepted yet: the revert provably restored cur's
			// exact state, so the rewind (when cur is exact) is sound.
			if curExact {
				if err := o.eng.Rewind(cur); err != nil {
					return nil, 0, false, err
				}
			}
		} else {
			// The rejected half may share a multi-output instance with
			// the accepted one; its revert clobbers that duplicate, so
			// cur no longer exactly describes the netlist.
			curExact = false
		}
		// The rejected half's probe snapshot is dead in every branch.
		o.eng.Recycle(nr)
	}
	return cur, accepted, curExact, nil
}

// Synthesize maps the logic network onto the catalogue and optimizes it
// against the options — the full front-end flow of the paper's
// experiments.
func Synthesize(name string, src *logic.Network, cat *stdcell.Catalogue, opts Options) (*Result, error) {
	return SynthesizeCtx(context.Background(), name, src, cat, opts)
}

// SynthesizeCtx is Synthesize with a context carrying the observability
// tracer for per-iteration optimization spans.
func SynthesizeCtx(ctx context.Context, name string, src *logic.Network, cat *stdcell.Catalogue, opts Options) (*Result, error) {
	nl, err := Map(name, src, cat)
	if err != nil {
		return nil, err
	}
	return OptimizeCtx(ctx, nl, opts)
}
