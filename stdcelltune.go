// Package stdcelltune reproduces "Standard Cell Library Tuning for
// Variability Tolerant Designs" (Fabrie, DATE 2014): a library tuning
// method that confines each standard cell's look-up table to the
// slew/load region where its delay sigma is low, binding synthesis to
// the variation-robust part of the library and reducing a design's
// sensitivity to local (intra-die) process variation.
//
// The package is a facade over the full flow. Every stage takes a
// context (cancellation aborts promptly; the returned error matches
// ErrCancelled) and an Options struct whose zero value reproduces the
// paper's defaults:
//
//	ctx := context.Background()
//	cat := stdcelltune.NewCatalogue(stdcelltune.Typical) // 304-cell 40nm-class library
//	stat, _ := stdcelltune.CharacterizeCtx(ctx, cat,     // Monte-Carlo statistical library
//		stdcelltune.CharacterizeOptions{Instances: 50, Seed: 1})
//	win, rep, _ := stdcelltune.TuneCtx(ctx, stat,
//		stdcelltune.TuneOptions{Method: stdcelltune.SigmaCeiling, Bound: 0.02})
//	mcu, _ := stdcelltune.NewMCU()                       // 20k-gate evaluation design
//	base, _ := stdcelltune.SynthesizeCtx(ctx, mcu, cat,  // baseline
//		stdcelltune.SynthesizeOptions{Clock: 5.0})
//	tuned, _ := stdcelltune.SynthesizeCtx(ctx, mcu, cat, // restricted
//		stdcelltune.SynthesizeOptions{Clock: 5.0, Windows: win})
//	bs, _ := stdcelltune.AnalyzeVariationCtx(ctx, base, stat, stdcelltune.AnalyzeVariationOptions{})
//	ts, _ := stdcelltune.AnalyzeVariationCtx(ctx, tuned, stat, stdcelltune.AnalyzeVariationOptions{})
//	// ts.Design.Sigma < bs.Design.Sigma at a modest area cost.
//
// Failures carry typed sentinels — ErrQuarantined, ErrWindowInfeasible,
// ErrCancelled — so service layers map them with errors.Is.
//
// Every table and figure of the paper regenerates through Experiments
// (see the root bench_test.go and cmd/experiments); the same pipeline
// is served on demand by the cmd/stcd daemon (internal/service).
package stdcelltune

import (
	"context"

	"stdcelltune/internal/core"
	"stdcelltune/internal/exp"
	"stdcelltune/internal/liberty"
	"stdcelltune/internal/logic"
	"stdcelltune/internal/power"
	"stdcelltune/internal/restrict"
	"stdcelltune/internal/rtlgen"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/synth"
)

// Corner is a process/voltage/temperature corner.
type Corner = stdcell.Corner

// Process corners.
const (
	Typical = stdcell.Typical
	Fast    = stdcell.Fast
	Slow    = stdcell.Slow
)

// Catalogue is the 304-cell standard cell library: the Liberty model
// plus the analytic NLDM behind every cell.
type Catalogue = stdcell.Catalogue

// NewCatalogue builds the library characterized at a corner.
func NewCatalogue(c Corner) *Catalogue { return stdcell.NewCatalogue(c) }

// Library is a parsed or generated Liberty (.lib) model.
type Library = liberty.Library

// WriteLiberty serializes a Liberty library to text.
func WriteLiberty(l *Library) (string, error) { return liberty.WriteString(l) }

// ParseLiberty loads Liberty text.
func ParseLiberty(src string) (*Library, error) { return liberty.Parse(src) }

// StatisticalLibrary holds per-LUT-entry delay mean and sigma across the
// Monte-Carlo instances (paper Section IV, Fig. 2).
type StatisticalLibrary = statlib.Library

// Method is one of the paper's five tuning methods.
type Method = core.Method

// The five tuning methods (paper Section VI.A).
const (
	CellStrengthLoadSlope = core.CellStrengthLoadSlope
	CellStrengthSlewSlope = core.CellStrengthSlewSlope
	CellLoadSlope         = core.CellLoadSlope
	CellSlewSlope         = core.CellSlewSlope
	SigmaCeiling          = core.SigmaCeiling
)

// Methods lists all five tuning methods in paper order.
var Methods = core.Methods

// SweepBounds returns the paper's Table 2 sweep values for a method.
func SweepBounds(m Method) []float64 { return core.SweepBounds(m) }

// Windows is a set of per-pin slew/load operating windows — the tuning
// output that binds synthesis to each cell's robust LUT region.
type Windows = restrict.Set

// TuningReport records the thresholds and per-pin restrictions of a
// tuning run.
type TuningReport = core.Report

// Design is a technology-independent logic network, the synthesis input.
type Design = logic.Network

// MCUConfig sizes the generated microcontroller.
type MCUConfig = rtlgen.Config

// NewMCU generates the paper's evaluation workload: a ~20k-gate 32-bit
// microcontroller (CPU, AHB-style bus, timers, GPIO, SRAM interface).
func NewMCU() (*Design, error) {
	m, err := rtlgen.Build(rtlgen.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return m.Net, nil
}

// NewMCUWith generates the microcontroller with a custom configuration.
func NewMCUWith(cfg MCUConfig) (*Design, error) {
	m, err := rtlgen.Build(cfg)
	if err != nil {
		return nil, err
	}
	return m.Net, nil
}

// SynthesisResult is a completed synthesis run: the mapped and sized
// netlist, its timing, and the optimization statistics.
type SynthesisResult = synth.Result

// DesignStats is the statistical timing of a synthesized design: per
// worst path and design-level delay mean and sigma (paper eqs. 5-11).
type DesignStats = stattime.DesignStats

// Compare summarizes tuned-versus-baseline sigma and area.
type Compare = stattime.Compare

// PowerReport is a power estimate: switching, internal and leakage
// components in mW plus the local-variation sigma of the internal part.
type PowerReport = power.Report

// EstimatePower runs activity-based power estimation on a synthesis
// result at the given clock period.
func EstimatePower(res *SynthesisResult, clock float64) (*PowerReport, error) {
	return power.Estimate(res.Netlist, res.Timing, power.DefaultConfig(clock))
}

// Experiments drives the paper's full evaluation: every table and figure
// regenerates through its methods (Table1..Table3, Fig1..Fig16).
type Experiments = exp.Flow

// ExperimentsConfig sizes the experiment flow.
type ExperimentsConfig = exp.FlowConfig

// NewExperiments builds the experiment flow at paper scale (50 MC
// instances, the 20k-gate MCU).
func NewExperiments() (*Experiments, error) {
	return exp.NewFlow(context.Background(), exp.DefaultFlowConfig())
}

// NewExperimentsWith builds the flow with a custom configuration (the
// scaled-down exp.SmallFlowConfig is useful for quick runs).
func NewExperimentsWith(cfg ExperimentsConfig) (*Experiments, error) {
	return exp.NewFlow(context.Background(), cfg)
}

// NewExperimentsContext builds the flow bound to a context: cancelling
// it aborts construction and any driver still running, promptly and
// without goroutine leaks (see DESIGN.md, "Failure semantics").
func NewExperimentsContext(ctx context.Context, cfg ExperimentsConfig) (*Experiments, error) {
	return exp.NewFlow(ctx, cfg)
}
