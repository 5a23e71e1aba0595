package stdcelltune

import (
	"context"
	"fmt"

	"stdcelltune/internal/core"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/synth"
	"stdcelltune/internal/variation"
)

// This file is the ctx-first facade: every pipeline stage as a
// (ctx, input, Options) function.
//
// Contract shared by all *Ctx functions:
//
//   - A cancelled context aborts promptly between (and, where the
//     underlying stage supports it, inside) units of work; the returned
//     error matches ErrCancelled via errors.Is.
//   - The zero Options value reproduces the paper's defaults.

// CharacterizeOptions configures Monte-Carlo characterization.
type CharacterizeOptions struct {
	// Instances is the number of Monte-Carlo library instances folded
	// into the statistical library. Zero means the paper's 50.
	Instances int
	// Seed of the variation sampler. Used verbatim (zero is a valid
	// seed); the paper's experiments use 1.
	Seed int64
}

// CharacterizeCtx runs the Monte-Carlo characterization (instances are
// generated in parallel, as a delay-sample matrix) and folds them into
// the statistical library.
func CharacterizeCtx(ctx context.Context, cat *Catalogue, opts CharacterizeOptions) (*StatisticalLibrary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := opts.Instances
	if n == 0 {
		n = 50
	}
	rows, err := variation.SamplesCtx(ctx, cat, variation.Config{N: n, Seed: opts.Seed, CharNoise: 0.02})
	if err != nil {
		return nil, wrapCancel(err)
	}
	stat, err := statlib.FoldSamples("stat_"+cat.Corner.Name(), cat.Layout(), rows)
	return stat, wrapCancel(err)
}

// TuneOptions configures a tuning run.
type TuneOptions struct {
	// Method is one of the paper's five tuning methods.
	Method Method
	// Bound is the swept constraint value of the method (Table 2); the
	// other two constraint parameters stay at their paper defaults.
	Bound float64
}

// TuneCtx runs a tuning method against the statistical library. When
// the resulting window set excludes every pin it carries a window — the
// restriction would forbid synthesis outright — the error matches
// ErrWindowInfeasible.
func TuneCtx(ctx context.Context, stat *StatisticalLibrary, opts TuneOptions) (*Windows, *TuningReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, wrapCancel(err)
	}
	set, rep, err := core.NewTuner(stat).Tune(core.ParamsFor(opts.Method, opts.Bound))
	if err != nil {
		return nil, nil, wrapCancel(err)
	}
	if len(rep.Pins) > 0 && rep.ExcludedPins() == len(rep.Pins) {
		return nil, nil, fmt.Errorf("%w: method %q at bound %g excluded all %d pins",
			ErrWindowInfeasible, opts.Method.String(), opts.Bound, len(rep.Pins))
	}
	return set, rep, nil
}

// SynthesizeOptions configures a synthesis run.
type SynthesizeOptions struct {
	// Clock is the target clock period in ns.
	Clock float64
	// Windows restricts synthesis to the tuned LUT regions; nil is the
	// unrestricted baseline.
	Windows *Windows
	// MaxIter bounds the optimization loop; zero means the default (60).
	MaxIter int
	// Name labels the produced netlist; empty means "design".
	Name string
}

// SynthesizeCtx maps the design onto the catalogue and sizes it against
// the clock period.
func SynthesizeCtx(ctx context.Context, d *Design, cat *Catalogue, opts SynthesizeOptions) (*SynthesisResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapCancel(err)
	}
	so := synth.DefaultOptions(opts.Clock)
	so.Restrict = opts.Windows
	if opts.MaxIter > 0 {
		so.MaxIter = opts.MaxIter
	}
	name := opts.Name
	if name == "" {
		name = "design"
	}
	res, err := synth.SynthesizeCtx(ctx, name, d, cat, so)
	return res, wrapCancel(err)
}

// AnalyzeVariationOptions configures statistical timing analysis.
type AnalyzeVariationOptions struct {
	// Rho is the path-to-path correlation coefficient; zero is the
	// paper's local-variation assumption.
	Rho float64
}

// AnalyzeVariationCtx computes the local-variation statistics of a
// synthesis result against the statistical library.
func AnalyzeVariationCtx(ctx context.Context, res *SynthesisResult, stat *StatisticalLibrary, opts AnalyzeVariationOptions) (*DesignStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapCancel(err)
	}
	ds, err := stattime.AnalyzeCtx(ctx, res.Timing, stat, opts.Rho)
	return ds, wrapCancel(err)
}
