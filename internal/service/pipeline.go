package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"stdcelltune"
	"stdcelltune/internal/liberty"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/service/shard"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/synth"
	"stdcelltune/internal/variation"
)

// Artifact names produced by one pipeline run. Every run yields exactly
// this set; the cache seals them content-addressed, so a warm request
// replays the cold run's bytes exactly.
const (
	ArtifactSpec      = "spec.json"          // normalized request + digest
	ArtifactStatLib   = "statlib.lib"        // statistical library, Liberty text
	ArtifactWindows   = "windows.json"       // tuned per-pin operating windows
	ArtifactTuning    = "tuning_report.json" // thresholds and per-pin restriction report
	ArtifactSynthesis = "synthesis.json"     // restricted synthesis outcome
	ArtifactVariation = "variation.json"     // statistical timing of the result
	ArtifactNetlist   = "netlist.v"          // synthesized design, structural Verilog
)

// Versioned artifact schema identifiers.
const (
	SchemaWindows   = "stdcelltune-windows/1"
	SchemaTuning    = "stdcelltune-tuning/1"
	SchemaSynthesis = "stdcelltune-synth/1"
	SchemaVariation = "stdcelltune-variation/1"
)

// DefaultShardSize is the instances-per-shard default of the cluster
// tier: small enough that a 200-instance job spreads over a handful of
// workers with steals possible, large enough that per-task overhead
// stays negligible against generating the rows. It schedules only: no
// shard size changes a byte of the result.
const DefaultShardSize = 25

// charNoise is the characterization-noise setting of the service
// pipeline, matching the facade's CharacterizeCtx exactly — every row
// generator, local or on a worker, must see the identical Config or
// the rows change.
var charNoise = variation.DefaultConfig().CharNoise

// Pipeline is the service compute function with its cluster knobs. The
// zero value is the single-node pipeline (package-level Run delegates
// to it). No knob changes the artifacts: a spec's bytes are the same in
// every mode, which is what lets one digest name them.
type Pipeline struct {
	// Cluster, when non-nil and currently seeing live workers, has
	// workers generate the characterize stage's sample rows as shard
	// tasks. If the fleet dies mid-job (shard.ErrNoWorkers) the rows
	// are generated locally — cluster loss costs latency, never the
	// job.
	Cluster *shard.Coordinator
	// ShardSize is the instances-per-shard split; 0 means
	// DefaultShardSize. It is scheduling only: any split assembles the
	// same sample matrix.
	ShardSize int
	// SimCharLatency injects a per-row sleep into row generation,
	// modeling an external characterizer (one SPICE run per
	// Monte-Carlo instance). Workers apply the same sleep through their
	// Executor, so single-node and cluster benchmarks time the same
	// latency-bound workload. It changes timing, never bytes.
	SimCharLatency time.Duration
}

// Run executes the full paper pipeline for a spec and returns the
// artifact set. It is the compute function behind the cache: pure in
// the spec (the pipeline is deterministic per spec digest), cancellable
// through ctx, and instrumented with service-category spans so a job's
// SSE stream shows stage progress.
//
// Errors propagate the facade's typed sentinels: ErrCancelled,
// ErrQuarantined and ErrWindowInfeasible all survive to the HTTP
// mapping via errors.Is.
func Run(ctx context.Context, spec Spec) (map[string][]byte, error) {
	var p Pipeline
	return p.Run(ctx, spec)
}

// catalogues holds one catalogue per corner for the process. A
// catalogue is immutable once built (its timing-arc cache is
// lock-protected), so every job and query store of a corner shares
// one, as the shard executor's workers do, instead of each rebuilding
// the 304-cell library with its per-entry model tables and keeping it
// for as long as the job runs or the query store stays cached.
var catalogues struct {
	mu sync.Mutex
	m  map[stdcelltune.Corner]*stdcelltune.Catalogue
}

// catalogue returns the process's catalogue of a corner, building it on
// first use.
func catalogue(corner stdcelltune.Corner) *stdcelltune.Catalogue {
	catalogues.mu.Lock()
	defer catalogues.mu.Unlock()
	cat, ok := catalogues.m[corner]
	if !ok {
		if catalogues.m == nil {
			catalogues.m = make(map[stdcelltune.Corner]*stdcelltune.Catalogue)
		}
		cat = stdcelltune.NewCatalogue(corner)
		catalogues.m[corner] = cat
	}
	return cat
}

// templates holds one mapped netlist per (design, corner). Mapping
// reads only the design's configuration and the corner's catalogue,
// never a job's clock or windows, so every job of a design sizes a
// clone of one template instead of generating and mapping the design
// again. A stored template is read-only: nothing resizes it, observes
// it or caches a topological order on it, so concurrent jobs clone it
// without further locking.
var templates struct {
	mu sync.Mutex
	m  map[templateKey]*netlist.Netlist
}

type templateKey struct {
	design string
	corner stdcelltune.Corner
}

// mappedDesign returns the process's template of a design at a corner,
// generating and mapping it on first use.
func mappedDesign(design string, corner stdcelltune.Corner, cat *stdcelltune.Catalogue) (*netlist.Netlist, error) {
	templates.mu.Lock()
	defer templates.mu.Unlock()
	key := templateKey{design, corner}
	if nl, ok := templates.m[key]; ok {
		return nl, nil
	}
	cfg, _ := designConfig(design)
	src, err := stdcelltune.NewMCUWith(cfg)
	if err != nil {
		return nil, fmt.Errorf("rtlgen: %w", err)
	}
	nl, err := synth.Map(design, src, cat)
	if err != nil {
		return nil, fmt.Errorf("synthesize: %w", err)
	}
	if templates.m == nil {
		templates.m = make(map[templateKey]*netlist.Netlist)
	}
	templates.m[key] = nl
	return nl, nil
}

// synthesize sizes a clone of the design's template against the job's
// clock and windows.
func synthesize(ctx context.Context, spec Spec, corner stdcelltune.Corner, cat *stdcelltune.Catalogue, win *stdcelltune.Windows) (*stdcelltune.SynthesisResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("synthesize: %w: %v", stdcelltune.ErrCancelled, err)
	}
	tmpl, err := mappedDesign(spec.Design, corner, cat)
	if err != nil {
		return nil, err
	}
	opts := synth.DefaultOptions(spec.ClockNS)
	opts.Restrict = win
	res, err := synth.OptimizeCtx(ctx, tmpl.Clone(), opts)
	if err != nil {
		return nil, fmt.Errorf("synthesize: %w", err)
	}
	return res, nil
}

// Stage counters in the process-default registry: how many times the
// pipeline's two expensive stages started. A request answered from the
// cache or by the query layer leaves both unchanged — the direct witness
// that nothing was recomputed (the worker-pool task counter is not one:
// a what-if's own statistical timing fans out on the pool).
var (
	characterizeRuns = obs.Default().Counter("service.characterize_runs")
	synthesizeRuns   = obs.Default().Counter("service.synthesize_runs")
)

// Run is the pipeline with this Pipeline's cluster configuration; see
// the package-level Run for the contract.
func (p *Pipeline) Run(ctx context.Context, spec Spec) (map[string][]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.Normalized()
	tr := obs.TracerFrom(ctx)

	corner, _ := cornerFromSlug(spec.Corner)
	cat := catalogue(corner)

	characterizeRuns.Add(1)
	stat, err := p.characterize(ctx, cat, spec)
	if err != nil {
		return nil, fmt.Errorf("characterize: %w", err)
	}

	// The statistical library is final once characterize returns: tune,
	// synthesize and analyze-variation only read it, and synthesis runs
	// on one core. So its Liberty text renders now, on the core the
	// later stages leave idle, and encodeArtifacts joins it. If a later
	// stage fails the text is dropped; the channel is buffered, so the
	// render never blocks. It gets no service span: the job's stage
	// spans must not overlap, or the trace would count time twice.
	type rendered struct {
		text []byte
		err  error
	}
	statLib := make(chan rendered, 1)
	go func() {
		text, err := liberty.Append(nil, stat.ToLiberty())
		statLib <- rendered{text, err}
	}()

	method, _ := methodFromSlug(spec.Method)
	span := tr.Start("tune", "service", "method", spec.Method, "bound", spec.Bound)
	win, rep, err := stdcelltune.TuneCtx(ctx, stat, stdcelltune.TuneOptions{Method: method, Bound: spec.Bound})
	span.End()
	if err != nil {
		return nil, fmt.Errorf("tune: %w", err)
	}

	synthesizeRuns.Add(1)
	span = tr.Start("synthesize", "service", "design", spec.Design, "clock_ns", spec.ClockNS)
	res, err := synthesize(ctx, spec, corner, cat, win)
	span.End()
	if err != nil {
		return nil, err
	}

	span = tr.Start("analyze-variation", "service", "rho", spec.Rho)
	ds, err := stdcelltune.AnalyzeVariationCtx(ctx, res, stat, stdcelltune.AnalyzeVariationOptions{Rho: spec.Rho})
	span.End()
	if err != nil {
		return nil, fmt.Errorf("analyze variation: %w", err)
	}

	lib := <-statLib
	if lib.err != nil {
		return nil, fmt.Errorf("encode %s: %w", ArtifactStatLib, lib.err)
	}
	return encodeArtifacts(spec, lib.text, win, rep, res, ds)
}

// characterize runs the Monte-Carlo characterization stage: it gets the
// N×E delay-sample matrix, from the cluster's workers when it has live
// ones or else from the local generator at pool width, and folds it
// once through statlib.FoldSamples. Row i depends only on (seed, i,
// cell), so the matrix, and the library folded from it, is the same
// bits in every mode and at every shard size.
func (p *Pipeline) characterize(ctx context.Context, cat *stdcelltune.Catalogue, spec Spec) (*stdcelltune.StatisticalLibrary, error) {
	tr := obs.TracerFrom(ctx)
	n := spec.Instances
	name := "stat_" + cat.Corner.Name()
	var rows [][]float64

	if p.Cluster != nil && p.Cluster.Workers() > 0 {
		size := p.ShardSize
		if size <= 0 {
			size = DefaultShardSize
		}
		span := tr.Start("characterize", "service",
			"instances", n, "seed", spec.Seed, "mode", "cluster", "shard_size", size)
		dig := spec.Digest()
		raws, err := p.Cluster.Run(ctx, dig, shard.CharTasks(dig, name, spec.Corner, spec.Seed, charNoise, n, size))
		if err == nil {
			rows, err = p.Cluster.Assemble(dig, name, n, cat.Layout().Entries, raws)
		}
		switch {
		case err == nil:
			defer span.End()
		case errors.Is(err, shard.ErrNoWorkers):
			// The fleet died mid-wait. Cluster loss costs latency, never
			// the job: generate the rows locally below.
			span.End()
			obs.Log().Warn("cluster characterize lost its workers, computing locally", "spec", dig)
		default:
			span.End()
			return nil, err
		}
	}

	if rows == nil {
		span := tr.Start("characterize", "service", "instances", n, "seed", spec.Seed)
		defer span.End()
		var err error
		cfg := variation.Config{N: n, Seed: spec.Seed, CharNoise: charNoise}
		if rows, err = variation.SampleRows(ctx, cat, cfg, 0, n, p.SimCharLatency); err != nil {
			if ctx.Err() != nil {
				err = fmt.Errorf("%w: %v", stdcelltune.ErrCancelled, err)
			}
			return nil, err
		}
	}
	stat, err := statlib.FoldSamples(name, cat.Layout(), rows)
	if err != nil {
		return nil, err
	}
	return (*stdcelltune.StatisticalLibrary)(stat), nil
}

// windowsDoc is the ArtifactWindows JSON shape.
type windowsDoc struct {
	Schema  string      `json:"schema"`
	Name    string      `json:"name"`
	Windows []windowRow `json:"windows"`
}

type windowRow struct {
	Cell    string  `json:"cell"`
	Pin     string  `json:"pin"`
	MinLoad float64 `json:"min_load_pf"`
	MaxLoad float64 `json:"max_load_pf"`
	MinSlew float64 `json:"min_slew_ns"`
	MaxSlew float64 `json:"max_slew_ns"`
}

// tuningDoc is the ArtifactTuning JSON shape.
type tuningDoc struct {
	Schema       string   `json:"schema"`
	Method       string   `json:"method"`
	Bound        float64  `json:"bound"`
	Clusters     int      `json:"clusters"`
	Pins         int      `json:"pins"`
	ExcludedPins int      `json:"excluded_pins"`
	MeanRetained float64  `json:"mean_retained"`
	PinReports   []pinRow `json:"pin_reports"`
}

type pinRow struct {
	Cell     string  `json:"cell"`
	Pin      string  `json:"pin"`
	Retained float64 `json:"retained"`
	Excluded bool    `json:"excluded,omitempty"`
}

// synthDoc is the ArtifactSynthesis JSON shape.
type synthDoc struct {
	Schema             string  `json:"schema"`
	Design             string  `json:"design"`
	ClockNS            float64 `json:"clock_ns"`
	Met                bool    `json:"met"`
	Area               float64 `json:"area_um2"`
	WNS                float64 `json:"wns_ns"`
	TNS                float64 `json:"tns_ns"`
	Iterations         int     `json:"iterations"`
	Buffered           int     `json:"buffered"`
	Upsized            int     `json:"upsized"`
	Downsized          int     `json:"downsized"`
	FullAnalyses       int     `json:"full_analyses"`
	IncrementalUpdates int     `json:"incremental_updates"`
}

// variationDoc is the ArtifactVariation JSON shape.
type variationDoc struct {
	Schema            string         `json:"schema"`
	Rho               float64        `json:"rho"`
	DesignMu          float64        `json:"design_mu_ns"`
	DesignSigma       float64        `json:"design_sigma_ns"`
	Variability       float64        `json:"variability"`
	WorstMeanPlus3Sig float64        `json:"worst_mu_plus_3sigma_ns"`
	Paths             int            `json:"paths"`
	MaxDepth          int            `json:"max_depth"`
	DegradedCells     map[string]int `json:"degraded_cells,omitempty"`
}

// encodeArtifacts renders the pipeline outputs into the artifact set;
// statLib is the statistical library's Liberty text, already rendered.
// Every encoder is deterministic: fixed field order, sorted slices, and
// Go's stable float formatting, so the cache's byte-identity invariant
// holds across runs.
func encodeArtifacts(spec Spec, statLib []byte, win *stdcelltune.Windows,
	rep *stdcelltune.TuningReport, res *stdcelltune.SynthesisResult, ds *stdcelltune.DesignStats) (map[string][]byte, error) {

	out := make(map[string][]byte, 7)
	put := func(name string, v any) error {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return fmt.Errorf("encode %s: %w", name, err)
		}
		out[name] = append(data, '\n')
		return nil
	}

	specDoc := struct {
		Spec
		Digest string `json:"digest"`
	}{spec.Normalized(), spec.Digest()}
	if err := put(ArtifactSpec, specDoc); err != nil {
		return nil, err
	}

	out[ArtifactStatLib] = statLib

	wd := windowsDoc{Schema: SchemaWindows, Name: win.Name}
	for _, k := range win.Keys() {
		cell, pin, _ := strings.Cut(k, "/")
		w, _ := win.Window(cell, pin)
		wd.Windows = append(wd.Windows, windowRow{
			Cell: cell, Pin: pin,
			MinLoad: w.MinLoad, MaxLoad: w.MaxLoad,
			MinSlew: w.MinSlew, MaxSlew: w.MaxSlew,
		})
	}
	if err := put(ArtifactWindows, wd); err != nil {
		return nil, err
	}

	td := tuningDoc{
		Schema:       SchemaTuning,
		Method:       spec.Method,
		Bound:        spec.Bound,
		Clusters:     len(rep.Clusters),
		Pins:         len(rep.Pins),
		ExcludedPins: rep.ExcludedPins(),
	}
	for _, p := range rep.Pins {
		td.MeanRetained += p.Retained
		td.PinReports = append(td.PinReports, pinRow{Cell: p.Cell, Pin: p.Pin, Retained: p.Retained, Excluded: p.Excluded})
	}
	if len(rep.Pins) > 0 {
		td.MeanRetained /= float64(len(rep.Pins))
	}
	sort.Slice(td.PinReports, func(i, j int) bool {
		a, b := td.PinReports[i], td.PinReports[j]
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		return a.Pin < b.Pin
	})
	if err := put(ArtifactTuning, td); err != nil {
		return nil, err
	}

	sd := synthDoc{
		Schema:             SchemaSynthesis,
		Design:             spec.Design,
		ClockNS:            spec.ClockNS,
		Met:                res.Met,
		Area:               res.Area(),
		WNS:                res.Timing.WNS(),
		TNS:                res.Timing.TNS(),
		Iterations:         res.Iterations,
		Buffered:           res.Buffered,
		Upsized:            res.Upsized,
		Downsized:          res.Downsized,
		FullAnalyses:       res.FullAnalyses,
		IncrementalUpdates: res.IncrementalUpdates,
	}
	if err := put(ArtifactSynthesis, sd); err != nil {
		return nil, err
	}

	// The synthesized netlist rides along as deterministic structural
	// Verilog: WriteVerilog emits sorted ports, wires and connections, so
	// the byte-identity invariant holds — and the query layer can rebuild
	// the exact design (instances, nets, what-if evaluation) from the
	// artifact set alone.
	var nb bytes.Buffer
	if err := netlist.WriteVerilog(&nb, res.Netlist); err != nil {
		return nil, fmt.Errorf("encode %s: %w", ArtifactNetlist, err)
	}
	out[ArtifactNetlist] = nb.Bytes()

	maxDepth := 0
	for _, p := range ds.Paths {
		if p.Depth > maxDepth {
			maxDepth = p.Depth
		}
	}
	vd := variationDoc{
		Schema:            SchemaVariation,
		Rho:               ds.Rho,
		DesignMu:          ds.Design.Mu,
		DesignSigma:       ds.Design.Sigma,
		Variability:       ds.Design.Variability(),
		WorstMeanPlus3Sig: ds.WorstMeanPlus3Sigma(),
		Paths:             len(ds.Paths),
		MaxDepth:          maxDepth,
		DegradedCells:     ds.Degraded,
	}
	if err := put(ArtifactVariation, vd); err != nil {
		return nil, err
	}
	return out, nil
}
