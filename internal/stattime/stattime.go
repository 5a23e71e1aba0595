// Package stattime computes the local-variation statistics of a
// synthesized design (Section V of the paper): every cell on a worst
// path contributes a delay mean and sigma interpolated from the
// statistical library at its operating point (bilinear, eqs. 2-4); cells
// convolve into path distributions (eqs. 5-10, correlation rho
// configurable, paper uses rho = 0) and paths into the design
// distribution (eq. 11). The design sigma is the figure of merit the
// library tuning minimizes.
package stattime

import (
	"context"
	"fmt"
	"math"
	"sort"

	"stdcelltune/internal/dist"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/robust"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stdcell"
)

// PathStats is the statistical timing of one worst path.
type PathStats struct {
	Path  sta.Path
	Dist  dist.Normal // path delay distribution (eqs. 5, 10)
	Depth int         // number of cells on the path
}

// MeanPlus3Sigma returns the mu+3sigma worst-case bound (Fig. 14).
func (p PathStats) MeanPlus3Sigma() float64 { return p.Dist.ThreeSigmaUpper() }

// DesignStats aggregates a whole design.
type DesignStats struct {
	Paths  []PathStats
	Design dist.Normal // eq. (11) over all paths
	Rho    float64

	// Degraded counts, per cell name, the path steps that fell back to
	// the nominal STA delay with zero sigma because the cell was
	// quarantined out of the statistical library. Empty on a clean run.
	Degraded map[string]int
}

// WorstMeanPlus3Sigma returns the largest mu+3sigma across paths — the
// value that must stay below the effective clock period.
func (d *DesignStats) WorstMeanPlus3Sigma() float64 {
	w := 0.0
	for _, p := range d.Paths {
		if v := p.MeanPlus3Sigma(); v > w {
			w = v
		}
	}
	return w
}

// MaxDepth returns the deepest path.
func (d *DesignStats) MaxDepth() int {
	m := 0
	for _, p := range d.Paths {
		if p.Depth > m {
			m = p.Depth
		}
	}
	return m
}

// DepthHistogram counts paths per depth (Fig. 12).
func (d *DesignStats) DepthHistogram() map[int]int {
	h := make(map[int]int)
	for _, p := range d.Paths {
		h[p.Depth]++
	}
	return h
}

// SortByDepth orders the paths by depth then endpoint name, the x-axis
// ordering of Fig. 14.
func (d *DesignStats) SortByDepth() {
	sort.Slice(d.Paths, func(i, j int) bool {
		if d.Paths[i].Depth != d.Paths[j].Depth {
			return d.Paths[i].Depth < d.Paths[j].Depth
		}
		return d.Paths[i].Path.Endpoint.Name < d.Paths[j].Path.Endpoint.Name
	})
}

// Analyze computes the statistics of every worst path (one per unique
// endpoint, as in the paper) and the design-level convolution. Steps
// through cells the statistical library quarantined degrade to their
// nominal STA delay with zero sigma and are tallied in Degraded; a cell
// missing for any other reason is still a hard error.
func Analyze(r *sta.Result, stat *statlib.Library, rho float64) (*DesignStats, error) {
	return AnalyzeCtx(context.Background(), r, stat, rho)
}

// AnalyzeCtx is Analyze bound to a context. The per-path analysis fans
// out as contiguous path ranges (robust.ForRanges): every path's
// distribution lands at its path's index and the per-range degradation
// tallies merge by summation, so the result — path order, every
// distribution, the design convolution and the Degraded counts — is
// identical to a serial run. Each range interns its repeated (cell,
// arc, load, slew) step lookups in a map of its own, which collapses
// the bilinear interpolation work on designs where many paths share
// cell instances.
func AnalyzeCtx(ctx context.Context, r *sta.Result, stat *statlib.Library, rho float64) (*DesignStats, error) {
	all, err := r.WorstPathsCtx(ctx)
	if err != nil {
		return nil, err
	}
	paths := all[:0] // filtered in place: all is not read again
	for _, path := range all {
		if len(path.Steps) == 0 {
			continue // endpoint fed directly by a primary input
		}
		paths = append(paths, path)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("stattime: design has no cell paths")
	}
	span := obs.TracerFrom(ctx).Start("stattime.analyze", "analyze", "paths", len(paths))
	defer span.End()
	results := make([]PathStats, len(paths))
	bounds := robust.Split(len(paths))
	tallies := make([]map[string]int, len(bounds)-1) // one per range
	err = robust.ForRanges(ctx, "stattime.paths", bounds, func(ctx context.Context, lo, hi int) error {
		depth := 0
		for _, path := range paths[lo:hi] {
			depth = max(depth, len(path.Steps))
		}
		an := &analyzer{stat: stat, rho: rho, intern: make(map[stepKey]stepStats), scratch: make([]dist.Normal, 0, depth)}
		deg := make(map[string]int)
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			ps, err := an.pathDist(paths[i], deg)
			if err != nil {
				return err
			}
			results[i] = ps
		}
		tallies[sort.SearchInts(bounds, lo)] = deg
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds := &DesignStats{Rho: rho, Degraded: make(map[string]int), Paths: results}
	pathDists := make([]dist.Normal, len(results))
	for i, ps := range results {
		pathDists[i] = ps.Dist
	}
	for _, deg := range tallies {
		for cell, n := range deg {
			ds.Degraded[cell] += n
		}
	}
	design, err := dist.ConvolveDesign(pathDists)
	if err != nil {
		return nil, err
	}
	ds.Design = design
	return ds, nil
}

// DegradedSteps returns the total number of path steps that fell back
// to nominal timing because their cell was quarantined.
func (d *DesignStats) DegradedSteps() int {
	n := 0
	for _, c := range d.Degraded {
		n += c
	}
	return n
}

// PathDist computes the delay distribution of one path: per-step
// statistics interpolated from the statistical library at the step's
// operating point, convolved along the path.
func PathDist(path sta.Path, stat *statlib.Library, rho float64) (PathStats, error) {
	an := &analyzer{stat: stat, rho: rho}
	return an.pathDist(path, nil)
}

// analyzer carries the state of one range of an Analyze call: the
// library, the correlation, and (when non-nil) the intern table of
// resolved step statistics, keyed by (cell, out pin, in pin, load,
// slew). A given key always resolves to the same statistics, so
// interning cannot change any result — only skip repeated name
// resolution and bilinear interpolation.
type analyzer struct {
	stat   *statlib.Library
	rho    float64
	intern map[stepKey]stepStats // nil disables interning (exported PathDist)

	// scratch, when non-nil, is the per-path step buffer reused across
	// pathDist calls; nil allocates one per path.
	scratch []dist.Normal
}

type stepKey struct {
	cell, out, from string
	load, slew      float64
}

type stepStats struct {
	n   dist.Normal
	err error
}

func (a *analyzer) pathDist(path sta.Path, degraded map[string]int) (PathStats, error) {
	var cells []dist.Normal
	if a.scratch != nil {
		cells = a.scratch[:0]
		defer func() { a.scratch = cells[:0] }()
	} else {
		cells = make([]dist.Normal, 0, len(path.Steps))
	}
	for _, step := range path.Steps {
		if step.Inst.Spec.Kind == stdcell.KindTie {
			continue // tie cells have no timing arcs and no variation
		}
		n, err := a.stepStats(step)
		if err != nil {
			if !a.stat.Quarantined(step.Inst.Spec.Name) {
				return PathStats{}, err
			}
			// Quarantined cell: its statistics were degenerate, so take
			// the step's nominal STA delay as a zero-sigma contribution
			// instead of killing the analysis.
			if degraded != nil {
				degraded[step.Inst.Spec.Name]++
			}
			n = dist.Normal{Mu: step.Delay}
		}
		cells = append(cells, n)
	}
	if len(cells) == 0 {
		return PathStats{Path: path, Depth: len(path.Steps)}, nil
	}
	d, err := dist.ConvolvePathCorrelated(cells, a.rho)
	if err != nil {
		return PathStats{}, err
	}
	return PathStats{Path: path, Dist: d, Depth: len(path.Steps)}, nil
}

// stepStats resolves one step through the intern table when one is
// attached. NaN loads or slews never intern (NaN keys miss every map
// probe), which is fine: they are pathological and rare by definition.
func (a *analyzer) stepStats(step sta.PathStep) (dist.Normal, error) {
	if a.intern == nil {
		return StepStats(step, a.stat)
	}
	key := stepKey{
		cell: step.Inst.Spec.Name, out: step.OutPin, from: step.FromPin,
		load: step.Load, slew: step.Slew,
	}
	if s, ok := a.intern[key]; ok {
		return s.n, s.err
	}
	n, err := StepStats(step, a.stat)
	a.intern[key] = stepStats{n: n, err: err}
	return n, err
}

// StepStats interpolates the statistical library for one path step.
func StepStats(step sta.PathStep, stat *statlib.Library) (dist.Normal, error) {
	cell := stat.Cell(step.Inst.Spec.Name)
	if cell == nil {
		return dist.Normal{}, fmt.Errorf("stattime: cell %s missing from statistical library", step.Inst.Spec.Name)
	}
	pin := cell.Pin(step.OutPin)
	if pin == nil {
		return dist.Normal{}, fmt.Errorf("stattime: pin %s/%s missing", step.Inst.Spec.Name, step.OutPin)
	}
	arc := pin.Arc(step.FromPin)
	if arc == nil {
		return dist.Normal{}, fmt.Errorf("stattime: arc %s/%s<-%s missing", step.Inst.Spec.Name, step.OutPin, step.FromPin)
	}
	return arc.Stats(step.Load, step.Slew), nil
}

// Compare summarizes a tuned design against a baseline: the relative
// sigma decrease and area increase the paper reports in Figs. 10 and 11.
type Compare struct {
	BaselineSigma float64
	TunedSigma    float64
	BaselineArea  float64
	TunedArea     float64
}

// SigmaReduction returns the fractional sigma decrease (0.37 = 37%).
func (c Compare) SigmaReduction() float64 {
	if c.BaselineSigma == 0 {
		return 0
	}
	return (c.BaselineSigma - c.TunedSigma) / c.BaselineSigma
}

// AreaIncrease returns the fractional area increase (0.07 = 7%).
func (c Compare) AreaIncrease() float64 {
	if c.BaselineArea == 0 {
		return 0
	}
	return (c.TunedArea - c.BaselineArea) / c.BaselineArea
}

// Yield returns the parametric timing yield at an effective clock
// period: the probability that every worst path meets timing, with each
// path delay normal (mu_i, sigma_i) and paths treated as independent —
// the same independence eq. (11) assumes. This quantifies the paper's
// motivation: lower sigma lets the clock uncertainty shrink, which buys
// either yield or frequency.
func (d *DesignStats) Yield(effectiveClock float64) float64 {
	y := 1.0
	for _, p := range d.Paths {
		if p.Dist.Sigma == 0 {
			if p.Dist.Mu > effectiveClock {
				return 0
			}
			continue
		}
		y *= p.Dist.CDF(effectiveClock)
		if y == 0 {
			return 0
		}
	}
	return y
}

// MinClockForYield returns the smallest effective clock period achieving
// the target yield (bisection; target in (0,1)).
func (d *DesignStats) MinClockForYield(target float64) float64 {
	lo, hi := 0.0, 1.0
	for d.Yield(hi) < target {
		hi *= 2
		if hi > 1e6 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if d.Yield(mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// SigmaVsDepth returns (depth, sigma) pairs for the Fig. 13 scatter.
func (d *DesignStats) SigmaVsDepth() (depths []int, sigmas []float64) {
	for _, p := range d.Paths {
		depths = append(depths, p.Depth)
		sigmas = append(sigmas, p.Dist.Sigma)
	}
	return depths, sigmas
}

// DepthSigmaCorrelation returns the Pearson correlation between path
// depth and path sigma — the paper's Fig. 13 point is that this is weak
// ("no direct relation between the path depth and the local variation").
func (d *DesignStats) DepthSigmaCorrelation() float64 {
	depths, sigmas := d.SigmaVsDepth()
	if len(depths) < 2 {
		return 0
	}
	n := float64(len(depths))
	var sx, sy float64
	for i := range depths {
		sx += float64(depths[i])
		sy += sigmas[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range depths {
		dx := float64(depths[i]) - mx
		dy := sigmas[i] - my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
