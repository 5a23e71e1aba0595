// Package variation models the two variation components of the paper:
//
//   - Local (intra-die, mismatch) variation: independent per cell
//     instance, scaled by Pelgrom's law through the catalogue's Sigma
//     model. Used to generate the N Monte-Carlo library instances the
//     statistical library is distilled from (Section IV).
//   - Global (inter-die) variation: one correlated factor per die that
//     scales every cell's delay together, on top of the process corner
//     (Section VII.C).
//
// All sampling is deterministic given a seed.
package variation

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"stdcelltune/internal/dist"
	"stdcelltune/internal/liberty"
	"stdcelltune/internal/robust"
	"stdcelltune/internal/stdcell"
)

// Config parameterizes Monte-Carlo library generation.
type Config struct {
	// N is the number of library instances (the paper uses 50; the
	// central limit theorem wants at least 30).
	N int
	// Seed makes the run reproducible.
	Seed int64
	// GlobalSigma is the relative standard deviation of the global
	// (inter-die) delay factor. Zero disables global variation, which is
	// the setting for building the local-variation statistical library.
	GlobalSigma float64
	// CharNoise adds a small independent per-entry measurement noise
	// (relative to the entry's local sigma), mimicking finite-precision
	// characterization. The paper attributes part of its statistical
	// library error to exactly this kind of noise.
	CharNoise float64
}

// DefaultConfig mirrors the paper's characterization setup: 50 instances,
// local variation only, a little characterization noise.
func DefaultConfig() Config {
	return Config{N: 50, Seed: 1, GlobalSigma: 0, CharNoise: 0.02}
}

// DefaultGlobalSigma is the inter-die sigma used by the path Monte-Carlo
// experiments (Figs. 15/16) where global variation is enabled.
const DefaultGlobalSigma = 0.035

// CellSample holds the per-cell local mismatch draws of one Monte-Carlo
// instance. Two components mimic threshold-voltage and current-factor
// mismatch; their squared weights sum to one so the per-entry delay
// standard deviation equals the catalogue's Sigma model exactly.
type CellSample struct {
	Vth, Beta float64
}

const (
	wVth  = 0.8
	wBeta = 0.6
)

// Delta returns the delay offset this sample induces at an operating
// point of the given cell.
func (cs CellSample) Delta(s *stdcell.Spec, load, slew float64, corner stdcell.Corner) float64 {
	return cs.delta(s.Sigma(load, slew, corner))
}

// delta is Delta at an operating point whose model sigma is known.
func (cs CellSample) delta(sigma float64) float64 {
	return sigma * (wVth*cs.Vth + wBeta*cs.Beta)
}

// Sampler draws deterministic local-variation samples keyed by instance
// and cell name.
type Sampler struct {
	rng *dist.RNG
}

// NewSampler creates a sampler for the given seed.
func NewSampler(seed int64) *Sampler {
	return &Sampler{rng: dist.NewRNG(seed)}
}

// Cell returns the mismatch sample of the named cell in the given
// Monte-Carlo instance. The draw depends only on (seed, instance, name).
//
// The fork key is assembled with append/strconv into a stack buffer
// instead of fmt.Sprintf: this runs once per (instance, cell) across
// every Monte-Carlo fold, and the Sprintf allocation dominated the
// sampler's profile. The byte stream is identical to the previous
// "mc%d/%s" key, so every draw stays bit-identical; the buffer must be
// per-call (not a Sampler field) because InstancesCtx and SamplesCtx
// share one Sampler across parallel ranges.
func (sm *Sampler) Cell(instance int, name string) CellSample {
	var buf [48]byte
	key := append(buf[:0], "mc"...)
	key = strconv.AppendInt(key, int64(instance), 10)
	key = append(key, '/')
	key = append(key, name...)
	g := sm.rng.ForkNamedBytes(key)
	return CellSample{Vth: g.StandardNormal(), Beta: g.StandardNormal()}
}

// Global returns the die-level delay factor of the given instance,
// centred on 1.0. The fork key matches the previous "global%d" bytes
// exactly (see Cell for why it is built without Sprintf).
func (sm *Sampler) Global(instance int, sigma float64) float64 {
	var buf [32]byte
	key := append(buf[:0], "global"...)
	key = strconv.AppendInt(key, int64(instance), 10)
	g := sm.rng.ForkNamedBytes(key)
	return 1 + sigma*g.StandardNormal()
}

// Instances generates cfg.N Monte-Carlo Liberty libraries from the
// catalogue. Each instance perturbs every cell's delay tables by that
// cell's local mismatch sample (plus optional characterization noise and
// global factor). Clean characterization folds SamplesCtx instead; the
// libraries are for callers that need the instances themselves
// (writing .lib files, fault injection).
func Instances(cat *stdcell.Catalogue, cfg Config) []*liberty.Library {
	libs, _ := InstancesCtx(context.Background(), cat, cfg)
	return libs
}

// InstancesCtx is Instances fanned out as contiguous instance ranges
// (robust.ForRanges): the ranges generate in parallel (each instance's
// streams are named by (seed, instance, cell), so the result is
// bit-identical to the sequential order) and the context cancels
// generation between instances. On cancellation the partial slice is
// discarded and ctx's error returned.
func InstancesCtx(ctx context.Context, cat *stdcell.Catalogue, cfg Config) ([]*liberty.Library, error) {
	sm := NewSampler(cfg.Seed)
	libs := make([]*liberty.Library, cfg.N)
	err := robust.ForRanges(ctx, "variation.instances", robust.Split(cfg.N), func(ctx context.Context, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			libs[i] = Instance(cat, sm, i, cfg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return libs, nil
}

// Instance generates the i-th Monte-Carlo library.
func Instance(cat *stdcell.Catalogue, sm *Sampler, i int, cfg Config) *liberty.Library {
	return cat.BuildLibrary(fmt.Sprintf("%s_mc%03d", cat.Lib.Name, i), instancePerturb(sm, i, cfg))
}

// SamplesCtx generates the N Monte-Carlo instances as a delay-sample
// matrix instead of Liberty libraries: row i holds instance i's delay
// entries in cat.Layout() order, bit-identical to the nominal delay
// tables Instance(cat, sm, i, cfg) would build (the same perturbation,
// with its noise stream consumed in the same order). It is SampleRows
// over [0, cfg.N) with no pacing.
//
// This is what clean characterization folds (statlib.FoldSamples):
// the fold reads only the delay tables, so the transition, power and
// constraint tables, function strings and pin lists of 50 libraries
// are never built.
func SamplesCtx(ctx context.Context, cat *stdcell.Catalogue, cfg Config) ([][]float64, error) {
	return SampleRows(ctx, cat, cfg, 0, cfg.N, 0)
}

// SampleRows generates rows [lo, hi) of the delay-sample matrix:
// element k of the result is instance lo+k. An instance's draws depend
// only on (seed, instance, cell), never on cfg.N or on the range, so
// row i is the same bits whichever range, process or node generates
// it; this is what lets the cluster tier split the matrix into shards.
// The rows are views into one contiguous slab and generate as
// contiguous row ranges (robust.ForRanges), at most one per CPU; on
// cancellation the partial matrix is discarded and ctx's error
// returned.
//
// pace, when positive, is slept before each row. It stands in for an
// external characterizer (one SPICE run per instance) whose latency,
// not local CPU, bounds characterization: it changes when rows are
// ready, never their bytes.
func SampleRows(ctx context.Context, cat *stdcell.Catalogue, cfg Config, lo, hi int, pace time.Duration) ([][]float64, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("variation: sample range [%d,%d) invalid", lo, hi)
	}
	sm := NewSampler(cfg.Seed)
	e := cat.Layout().Entries
	slab := make([]float64, (hi-lo)*e)
	rows := make([][]float64, hi-lo)
	err := robust.ForRanges(ctx, "variation.instances", robust.Split(hi-lo), func(ctx context.Context, klo, khi int) error {
		for k := klo; k < khi; k++ {
			if err := sleep(ctx, pace); err != nil {
				return err
			}
			rows[k] = slab[k*e : (k+1)*e : (k+1)*e]
			cat.DelaySamples(rows[k], instancePerturb(sm, lo+k, cfg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// sleep waits d, or until ctx is done, and returns ctx's error if it
// is; a non-positive d only checks ctx.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// instancePerturb is the delay perturbation of the i-th Monte-Carlo
// instance: the cell's local mismatch, plus the per-entry
// characterization noise (one stream per instance, drawn in entry
// order) and the global factor when enabled. Each cell's mismatch is
// drawn once, on its first entry; the draw depends only on (seed, i,
// cell), so the cache needs to hold only the cell in progress. The
// entry's model values come from the catalogue's Layout tables (see
// stdcell.Perturb), so an instance costs draws and arithmetic, not
// 3× the analytic model per entry.
func instancePerturb(sm *Sampler, i int, cfg Config) stdcell.Perturb {
	global := 1.0
	if cfg.GlobalSigma > 0 {
		global = sm.Global(i, cfg.GlobalSigma)
	}
	var nbuf [32]byte
	nkey := append(nbuf[:0], "noise"...)
	nkey = strconv.AppendInt(nkey, int64(i), 10)
	noise := dist.NewRNG(cfg.Seed).ForkNamedBytes(nkey)
	var (
		cur *stdcell.Spec
		cs  CellSample
	)
	return func(s *stdcell.Spec, nominal, sigma float64) float64 {
		if s != cur {
			cur, cs = s, sm.Cell(i, s.Name)
		}
		d := cs.delta(sigma)
		if cfg.CharNoise > 0 {
			d += cfg.CharNoise * sigma * noise.StandardNormal()
		}
		if global != 1 {
			d += (global - 1) * nominal
		}
		return d
	}
}

// CellDelay evaluates the perturbed delay of one cell instance at an
// operating point — the path Monte-Carlo (Figs. 15/16) uses this directly
// instead of materializing whole libraries.
func CellDelay(s *stdcell.Spec, cs CellSample, global float64, load, slew float64, corner stdcell.Corner) float64 {
	return global*s.Delay(load, slew, corner) + cs.Delta(s, load, slew, corner)
}
