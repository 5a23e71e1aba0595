// Package exp contains one driver per table and figure of the paper's
// evaluation (see DESIGN.md §4). All drivers share a Flow, which caches
// the expensive artifacts — the statistical library, the microcontroller
// network, and every synthesis and statistical-timing run. Synthesis is
// cached by content, not by name: a (method, bound, clock) request whose
// windows resolve to the same limits as another request at the same
// clock shares its netlist and timing, so the full experiment suite
// performs each distinct synthesis problem exactly once.
package exp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"stdcelltune/internal/core"
	"stdcelltune/internal/liberty"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/perfstat"
	"stdcelltune/internal/restrict"
	"stdcelltune/internal/robust"
	"stdcelltune/internal/robust/faultinject"
	"stdcelltune/internal/rtlgen"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/synth"
	"stdcelltune/internal/variation"
)

// FlowConfig sizes the experiment flow.
type FlowConfig struct {
	Samples int // Monte-Carlo instances for the statistical library
	Seed    int64
	MCU     rtlgen.Config // evaluation design
	Corner  stdcell.Corner

	// Fault optionally corrupts the Monte-Carlo instances before the
	// statistical library is folded, exercising the quarantine and
	// degradation paths. Rate 0 (the zero value) disables injection and
	// reproduces the clean flow bit-identically.
	Fault faultinject.Config
}

// DefaultFlowConfig mirrors the paper's setup: 50 instances, the 20k-gate
// MCU, typical corner.
func DefaultFlowConfig() FlowConfig {
	return FlowConfig{Samples: 50, Seed: 1, MCU: rtlgen.DefaultConfig(), Corner: stdcell.Typical}
}

// SmallFlowConfig is the scaled-down flow used by fast tests.
func SmallFlowConfig() FlowConfig {
	return FlowConfig{Samples: 15, Seed: 1, MCU: rtlgen.SmallConfig(), Corner: stdcell.Typical}
}

// Flow owns the shared experiment state.
type Flow struct {
	Cfg  FlowConfig
	Cat  *stdcell.Catalogue
	Stat *statlib.Library
	MCU  *rtlgen.MCU

	// Quarantine reports the cells the statistical-library build
	// skipped (always non-nil; empty on a clean run).
	Quarantine *robust.Quarantine
	// Injected summarizes what fault injection corrupted, if enabled.
	Injected faultinject.Report

	// Obs is the flow's observability bundle (always non-nil): the
	// tracer pulled off the construction context (nil inside when
	// tracing is off), the perfstat collector backing the phase
	// timings, and the metrics registry. Perf aliases Obs.Perf for the
	// established -benchjson path; both cost two ReadMemStats per unit
	// of work, which is noise next to a synthesis or tuning run.
	Obs  *obs.Run
	Perf *perfstat.Collector

	ctx       context.Context
	mu        sync.Mutex
	synthRes  map[string]*call[*synth.Result]  // per display key: its header
	problems  map[problem]*call[*synth.Result] // per distinct problem: the shared run
	problemOf map[string]problem               // display key -> its problem
	statRes   map[problem]*call[*stattime.DesignStats]
	tuneRes   map[string]*call[*tuneEntry]
	synthOut  map[string]obs.SynthOutcome
	minClock  float64

	// mapped is the MCU mapped onto the catalogue, once: mapping reads
	// no clock and no windows, so every synthesis sizes a clone of it.
	// The template itself is never edited, observed or asked for a
	// topological order, so concurrent syntheses clone it freely.
	mapped call[*netlist.Netlist]
}

// problem is the content key of one synthesis: the exact clock bits and
// the digest of the resolved limits. Flow.synth builds
// synth.DefaultOptions(clock), which fixes every option but Restrict
// from the clock, and synthesis reads Restrict only through
// restrict.Resolve, so two requests with equal problems synthesize the
// same netlist (DESIGN.md §10, "Experiment fan-out").
type problem struct {
	clock  uint64
	limits string
}

// Counters of the content-keyed synthesis memo, exported in the run
// manifest's metrics: every display key either runs its problem or
// shares a run, so runs + shared equals the synth_outcomes rows.
var (
	synthRuns   = obs.Default().Counter("exp.synth_runs")
	synthShared = obs.Default().Counter("exp.synth_shared")
)

type tuneEntry struct {
	set *restrict.Set
	rep *core.Report
}

// call is a single-flight cache slot: the first caller computes under
// the Once, every concurrent or later caller for the same key blocks on
// (or reads) the same slot. This is what makes the parallel fan-out
// deterministic — a unit of work runs exactly once no matter how many
// pool workers ask for it, so results can't depend on scheduling.
type call[T any] struct {
	once sync.Once
	val  T
	err  error
}

// flowCall returns the slot for key in m, creating it under mu if absent.
func flowCall[K comparable, T any](mu *sync.Mutex, m map[K]*call[T], key K) *call[T] {
	mu.Lock()
	defer mu.Unlock()
	c, ok := m[key]
	if !ok {
		c = &call[T]{}
		m[key] = c
	}
	return c
}

// poolWorkers sizes the experiment fan-out pools; tests pin it to 1 to
// prove serial/parallel result identity.
var poolWorkers = robust.DefaultWorkers

// NewFlow builds the shared artifacts: catalogue, Monte-Carlo instances
// (generated in parallel on the worker pool), statistical library and
// the microcontroller network. The context cancels both construction
// and every driver run later on the returned flow; nil means
// context.Background().
func NewFlow(ctx context.Context, cfg FlowConfig) (*Flow, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	run := obs.NewRun(obs.TracerFrom(ctx))
	log := obs.Log()
	cat := stdcell.NewCatalogue(cfg.Corner)
	stopChar := run.Phase("characterize", "samples", cfg.Samples, "seed", cfg.Seed)
	mc, err := characterize(ctx, cat, cfg.Samples, cfg.Seed, cfg.Fault)
	stopChar()
	if err != nil {
		return nil, err
	}
	log.Debug("characterized", "samples", cfg.Samples, "seed", cfg.Seed)
	stopFold := run.Phase("statlib-fold", "instances", cfg.Samples)
	stat, err := mc.fold("stat_" + cfg.Corner.Name())
	stopFold()
	if err != nil {
		return nil, err
	}
	log.Debug("statistical library folded", "cells", len(stat.Cells), "quarantined", stat.Quarantine.Len())
	stopRTL := run.Phase("rtlgen")
	mcu, err := rtlgen.Build(cfg.MCU)
	stopRTL()
	if err != nil {
		return nil, err
	}
	log.Debug("mcu generated", "gates", mcu.Net.GateCount())
	return &Flow{
		Cfg: cfg, Cat: cat, Stat: stat, MCU: mcu,
		Quarantine: stat.Quarantine,
		Injected:   mc.injected,
		Obs:        run,
		Perf:       run.Perf,
		ctx:        ctx,
		synthRes:   make(map[string]*call[*synth.Result]),
		problems:   make(map[problem]*call[*synth.Result]),
		problemOf:  make(map[string]problem),
		statRes:    make(map[problem]*call[*stattime.DesignStats]),
		tuneRes:    make(map[string]*call[*tuneEntry]),
		synthOut:   make(map[string]obs.SynthOutcome),
	}, nil
}

// monteCarlo is the product of the characterize step, ready to fold:
// the clean delay-sample matrix, or, when fault injection is on, the
// corrupted Liberty instances. Faults need the instances: the injector
// damages one table of an entry or drops an arc, which a sample row
// (one value per entry, the structure fixed) cannot express.
type monteCarlo struct {
	cat      *stdcell.Catalogue
	rows     [][]float64
	libs     []*liberty.Library
	injected faultinject.Report
}

// characterize generates the n Monte-Carlo instances of the catalogue
// (on the worker pool) and applies the fault injector, if enabled.
func characterize(ctx context.Context, cat *stdcell.Catalogue, n int, seed int64, fault faultinject.Config) (*monteCarlo, error) {
	cfg := variation.Config{N: n, Seed: seed, CharNoise: 0.02}
	mc := &monteCarlo{cat: cat}
	var err error
	if fault.Rate > 0 {
		mc.libs, err = variation.InstancesCtx(ctx, cat, cfg)
		mc.injected = faultinject.Corrupt(mc.libs, fault)
	} else {
		mc.rows, err = variation.SamplesCtx(ctx, cat, cfg)
	}
	return mc, err
}

// fold builds the statistical library (Fig. 2) from the instances.
func (mc *monteCarlo) fold(name string) (*statlib.Library, error) {
	if mc.libs != nil {
		return statlib.Build(name, mc.libs)
	}
	return statlib.FoldSamples(name, mc.cat.Layout(), mc.rows)
}

// Context returns the context the flow was built with.
func (f *Flow) Context() context.Context { return f.ctx }

// checkCtx is the cancellation checkpoint every driver passes through
// before starting an expensive unit of work (a tuning run, a synthesis,
// a statistical analysis).
func (f *Flow) checkCtx() error { return f.ctx.Err() }

// Tune runs (and caches, single-flight) a tuning method at a bound.
func (f *Flow) Tune(m core.Method, bound float64) (*restrict.Set, *core.Report, error) {
	key := fmt.Sprintf("%d/%g", m, bound)
	c := flowCall(&f.mu, f.tuneRes, key)
	c.once.Do(func() {
		if err := f.checkCtx(); err != nil {
			c.err = err
			return
		}
		// The span name carries the tuning unit (method @ bound) so each
		// unit is its own row in the trace; the perfstat phase stays the
		// aggregate "tune" row of the bench JSON.
		stopPerf := f.Perf.Start("tune")
		span := f.Obs.Tracer.Start(fmt.Sprintf("tune %s @%g", m, bound), "tune", "method", m.String(), "bound", bound)
		set, rep, err := core.NewTuner(f.Stat).Tune(core.ParamsFor(m, bound))
		span.End()
		stopPerf()
		if err != nil {
			c.err = err
			return
		}
		obs.Log().Debug("tuned", "method", m.String(), "bound", bound, "windows", set.Len())
		c.val = &tuneEntry{set: set, rep: rep}
	})
	if c.err != nil {
		return nil, nil, c.err
	}
	return c.val.set, c.val.rep, nil
}

// Baseline synthesizes (cached) the MCU without restrictions.
func (f *Flow) Baseline(clock float64) (*synth.Result, error) {
	return f.synth(fmt.Sprintf("base/%g", clock), clock, nil)
}

// Tuned synthesizes (cached) under the windows of a method at a bound.
func (f *Flow) Tuned(m core.Method, bound, clock float64) (*synth.Result, error) {
	set, _, err := f.Tune(m, bound)
	if err != nil {
		return nil, err
	}
	return f.synth(fmt.Sprintf("tuned/%d/%g/%g", m, bound, clock), clock, set)
}

// synth returns the result of one display key. The key's problem is
// synthesized once, by whichever key asks first; every key gets its
// own header — its own Opts.Restrict, the caller's set — over the
// shared, read-only Netlist and Timing, and its own outcome row.
func (f *Flow) synth(key string, clock float64, set *restrict.Set) (*synth.Result, error) {
	c := flowCall(&f.mu, f.synthRes, key)
	c.once.Do(func() {
		if err := f.checkCtx(); err != nil {
			c.err = err
			return
		}
		p := problem{clock: math.Float64bits(clock), limits: restrict.Resolve(set, f.Cat).Digest()}
		shared, ran, err := f.solve(p, key, clock, set)
		if err != nil {
			c.err = err
			return
		}
		res := *shared
		res.Opts.Restrict = set
		f.mu.Lock()
		f.problemOf[key] = p
		f.synthOut[key] = obs.SynthOutcome{
			Key: key, Clock: clock, Met: res.Met, Area: res.Area(),
			Iterations: res.Iterations, FullAnalyses: res.FullAnalyses,
			IncrementalUpdates: res.IncrementalUpdates,
		}
		f.mu.Unlock()
		if ran {
			synthRuns.Add(1)
		} else {
			synthShared.Add(1)
		}
		c.val = &res
	})
	return c.val, c.err
}

// solve synthesizes a problem (cached, single-flight); ran reports
// whether this call did the work. The phase span carries the display
// key that asked first.
func (f *Flow) solve(p problem, key string, clock float64, set *restrict.Set) (*synth.Result, bool, error) {
	c := flowCall(&f.mu, f.problems, p)
	ran := false
	c.once.Do(func() {
		ran = true
		opts := synth.DefaultOptions(clock)
		opts.Restrict = set
		stop := f.Obs.Phase("synth", "key", key, "clock", clock)
		res, err := f.synthesize(opts)
		stop()
		if err != nil {
			c.err = err
			return
		}
		obs.Log().Debug("synthesized", "key", key, "met", res.Met, "area", res.Area(),
			"iterations", res.Iterations, "sta_full", res.FullAnalyses, "sta_incremental", res.IncrementalUpdates)
		c.val = res
	})
	return c.val, ran, c.err
}

// synthesize sizes a clone of the mapped MCU; the first call maps it.
func (f *Flow) synthesize(opts synth.Options) (*synth.Result, error) {
	c := &f.mapped
	c.once.Do(func() { c.val, c.err = synth.Map("mcu", f.MCU.Net, f.Cat) })
	if c.err != nil {
		return nil, c.err
	}
	return synth.OptimizeCtx(f.ctx, c.val.Clone(), opts)
}

// SynthOutcomes lists what every cached synthesis unit did, sorted by
// cache key — the manifest's synth_outcomes section. Keys that shared a
// problem each keep their own row.
func (f *Flow) SynthOutcomes() []obs.SynthOutcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]obs.SynthOutcome, 0, len(f.synthOut))
	for _, o := range f.synthOut {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Stats computes (cached, single-flight) the statistical timing of a
// synthesis result. key is the display key res was synthesized under;
// the analysis is cached by that key's problem, so keys sharing a
// synthesis share one analysis too. A result the flow did not
// synthesize is cached under its key alone.
func (f *Flow) Stats(key string, res *synth.Result) (*stattime.DesignStats, error) {
	f.mu.Lock()
	p, ok := f.problemOf[key]
	f.mu.Unlock()
	if !ok {
		p = problem{limits: key}
	}
	c := flowCall(&f.mu, f.statRes, p)
	c.once.Do(func() {
		if err := f.checkCtx(); err != nil {
			c.err = err
			return
		}
		stop := f.Obs.Phase("stattime", "key", key)
		c.val, c.err = stattime.AnalyzeCtx(f.ctx, res.Timing, f.Stat, 0)
		stop()
	})
	return c.val, c.err
}

// BaselineStats is a convenience joining Baseline and Stats.
func (f *Flow) BaselineStats(clock float64) (*synth.Result, *stattime.DesignStats, error) {
	res, err := f.Baseline(clock)
	if err != nil {
		return nil, nil, err
	}
	ds, err := f.Stats(fmt.Sprintf("base/%g", clock), res)
	return res, ds, err
}

// TunedStats is a convenience joining Tuned and Stats.
func (f *Flow) TunedStats(m core.Method, bound, clock float64) (*synth.Result, *stattime.DesignStats, error) {
	res, err := f.Tuned(m, bound, clock)
	if err != nil {
		return nil, nil, err
	}
	ds, err := f.Stats(fmt.Sprintf("tuned/%d/%g/%g", m, bound, clock), res)
	return res, ds, err
}

// MinClock finds (cached) the minimum clock period at which the baseline
// synthesis still meets timing, to the given resolution — the paper's
// "reducing the clock period until the synthesis fails" (Table 1).
func (f *Flow) MinClock() (float64, error) {
	f.mu.Lock()
	cached := f.minClock
	f.mu.Unlock()
	if cached > 0 {
		return cached, nil
	}
	// Trace span only (no perfstat phase): the binary search is made of
	// Baseline calls whose synth windows already account the time; a
	// minclock perf window on top would just double-count their wall.
	span := f.Obs.Tracer.Start("minclock", "phase")
	defer span.End()
	lo, hi := 0.5, 16.0
	// Ensure hi is feasible.
	res, err := f.Baseline(hi)
	if err != nil {
		return 0, err
	}
	if !res.Met {
		return 0, fmt.Errorf("exp: design infeasible even at %.1f ns", hi)
	}
	for hi-lo > 0.1 {
		if err := f.checkCtx(); err != nil {
			return 0, err
		}
		mid := math.Round((lo+hi)/2*20) / 20 // 0.05 ns grid
		res, err := f.Baseline(mid)
		if err != nil {
			return 0, err
		}
		if res.Met {
			hi = mid
		} else {
			lo = mid
		}
	}
	f.mu.Lock()
	f.minClock = hi
	f.mu.Unlock()
	return hi, nil
}

// ClockSet is the experiment's Table 1: the four timing constraints.
type ClockSet struct {
	HighPerf   float64 // minimum achievable period
	CloseToMax float64 // just above the minimum (paper: 2.5 vs 2.41)
	Medium     float64 // paper ratio 4/2.41
	Low        float64 // paper ratio 10/2.41 (relaxed knee)
}

// Periods lists the four clocks in Table-1 order.
func (c ClockSet) Periods() []float64 {
	return []float64{c.HighPerf, c.CloseToMax, c.Medium, c.Low}
}

// Clocks derives the four constraint periods from the measured minimum,
// using the paper's ratios (2.41 : 2.5 : 4 : 10).
func (f *Flow) Clocks() (ClockSet, error) {
	minClk, err := f.MinClock()
	if err != nil {
		return ClockSet{}, err
	}
	round := func(v float64) float64 { return math.Round(v*10) / 10 }
	return ClockSet{
		HighPerf:   minClk,
		CloseToMax: round(minClk * 2.5 / 2.41),
		Medium:     round(minClk * 4 / 2.41),
		Low:        round(minClk * 10 / 2.41),
	}, nil
}
