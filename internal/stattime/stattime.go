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
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stdcell"
)

// PathStats is the statistical timing of one worst path.
type PathStats struct {
	Endpoint sta.Endpoint
	Dist     dist.Normal // path delay distribution (eqs. 5, 10)
	Depth    int         // number of cells on the path
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
		return d.Paths[i].Endpoint.Name < d.Paths[j].Endpoint.Name
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

// netMoments are the eq. (9) moments of the worst path into one net,
// summed launch → net. A net's worst path is its fromPin parent's worst
// path plus one step, so the moments are prefix sums along the
// worst-arrival tree and every net on some worst path is evaluated once.
type netMoments struct {
	m     dist.Moments
	depth int32 // cells on the path, tie cells included; 0 = not yet computed
	cells int32 // cells that contribute moments (all but tie cells)
}

// AnalyzeCtx is Analyze bound to a context, checked every 64
// endpoints. It materializes no paths: walking back from each endpoint
// through the worst-arrival tree to the first net whose moments are
// known, it computes the new nets launch → capture, each from its
// parent's moments plus its own step. Every path's moments therefore
// come from the same additions in the same order as convolving its
// steps one by one (dist.ConvolvePathCorrelated), so every result is
// bit-identical to the path-by-path analysis at any rho.
func AnalyzeCtx(ctx context.Context, r *sta.Result, stat *statlib.Library, rho float64) (*DesignStats, error) {
	span := obs.TracerFrom(ctx).Start("stattime.analyze", "analyze")
	defer span.End()
	nets := make([]netMoments, len(r.Arrival))
	var degraded []bool // per net, allocated at the first quarantined step
	ds := &DesignStats{Rho: rho, Degraded: make(map[string]int), Paths: make([]PathStats, 0, len(r.Endpoints))}
	pathDists := make([]dist.Normal, 0, len(r.Endpoints))
	var chain []*netlist.Net // nets of the current walk, capture → launch
	for i, ep := range r.Endpoints {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if ep.Net.Driver == nil {
			continue // endpoint fed directly by a primary input
		}
		chain = chain[:0]
		n := ep.Net
		for ; n != nil && n.Driver != nil && nets[n.ID].depth == 0; _, n = r.Step(n) {
			chain = append(chain, n)
		}
		var acc netMoments // launch: no cells yet
		if n != nil && n.Driver != nil {
			acc = nets[n.ID]
		}
		for j := len(chain) - 1; j >= 0; j-- {
			n := chain[j]
			acc.depth++
			if n.Driver.Spec.Kind != stdcell.KindTie { // tie cells have no timing arcs and no variation
				step, _ := r.Step(n)
				c, deg, err := stepDist(step, stat)
				if err != nil {
					return nil, err
				}
				if deg {
					if degraded == nil {
						degraded = make([]bool, len(nets))
					}
					degraded[n.ID] = true
				}
				acc.m = acc.m.Add(c)
				acc.cells++
			}
			nets[n.ID] = acc
		}
		at := nets[ep.Net.ID]
		ps := PathStats{Endpoint: ep, Depth: int(at.depth)}
		if at.cells > 0 {
			var err error
			if ps.Dist, err = at.m.Correlated(rho); err != nil {
				return nil, err
			}
		}
		ds.Paths = append(ds.Paths, ps)
		pathDists = append(pathDists, ps.Dist)
	}
	if len(ds.Paths) == 0 {
		return nil, fmt.Errorf("stattime: design has no cell paths")
	}
	span.Set("paths", len(ds.Paths))
	if degraded != nil {
		// Degraded counts (path, step) pairs: each degraded net once per
		// endpoint whose worst path crosses it.
		for _, ps := range ds.Paths {
			for n := ps.Endpoint.Net; n != nil && n.Driver != nil; _, n = r.Step(n) {
				if degraded[n.ID] {
					ds.Degraded[n.Driver.Spec.Name]++
				}
			}
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
// operating point, convolved along the path. A step through a
// quarantined cell takes its nominal STA delay with zero sigma.
func PathDist(path sta.Path, stat *statlib.Library, rho float64) (PathStats, error) {
	cells := make([]dist.Normal, 0, len(path.Steps))
	for _, step := range path.Steps {
		if step.Inst.Spec.Kind == stdcell.KindTie {
			continue
		}
		n, _, err := stepDist(step, stat)
		if err != nil {
			return PathStats{}, err
		}
		cells = append(cells, n)
	}
	ps := PathStats{Endpoint: path.Endpoint, Depth: len(path.Steps)}
	if len(cells) > 0 {
		var err error
		if ps.Dist, err = dist.ConvolvePathCorrelated(cells, rho); err != nil {
			return PathStats{}, err
		}
	}
	return ps, nil
}

// stepDist is one step's delay distribution: the statistical library's
// at the step's operating point, or, through a cell quarantined out of
// the library (its statistics were degenerate), the step's nominal STA
// delay with zero sigma, reported as degraded. A cell missing for any
// other reason is an error.
func stepDist(step sta.PathStep, stat *statlib.Library) (n dist.Normal, degraded bool, err error) {
	n, err = StepStats(step, stat)
	if err != nil && stat.Quarantined(step.Inst.Spec.Name) {
		return dist.Normal{Mu: step.Delay}, true, nil
	}
	return n, false, err
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
