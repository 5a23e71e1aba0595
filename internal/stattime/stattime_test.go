package stattime

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"stdcelltune/internal/dist"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/variation"
)

var (
	once sync.Once
	cat  *stdcell.Catalogue
	slib *statlib.Library
)

func env(t *testing.T) (*stdcell.Catalogue, *statlib.Library) {
	t.Helper()
	once.Do(func() {
		cat = stdcell.NewCatalogue(stdcell.Typical)
		libs := variation.Instances(cat, variation.Config{N: 25, Seed: 2})
		var err error
		slib, err = statlib.Build("stat", libs)
		if err != nil {
			t.Fatal(err)
		}
	})
	return cat, slib
}

// invChainNetlist builds FF -> n INVs -> FF.
func invChainNetlist(t *testing.T, n int) *netlist.Netlist {
	t.Helper()
	c, _ := env(t)
	nl := netlist.New("chain", c)
	in := nl.AddInput("si")
	ff1 := nl.AddInstance("launch", c.Spec("DFQ_2"))
	nl.Connect(ff1, "D", in)
	cur := nl.AddNet("")
	nl.Drive(ff1, "Q", cur)
	for i := 0; i < n; i++ {
		inv := nl.AddInstance("", c.Spec("INV_2"))
		nl.Connect(inv, "A", cur)
		next := nl.AddNet("")
		nl.Drive(inv, "Y", next)
		cur = next
	}
	ff2 := nl.AddInstance("capture", c.Spec("DFQ_2"))
	nl.Connect(ff2, "D", cur)
	q := nl.AddNet("")
	nl.Drive(ff2, "Q", q)
	nl.MarkOutput("so", q)
	return nl
}

func TestPathDistAgainstManualConvolution(t *testing.T) {
	_, sl := env(t)
	nl := invChainNetlist(t, 4)
	r, err := sta.Analyze(nl, sta.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	// Endpoint "capture" path: launch FF + 4 INVs.
	var ep sta.Endpoint
	for _, e := range r.Endpoints {
		if e.Name == "capture" {
			ep = e
		}
	}
	path := r.WorstPath(ep)
	if path.Depth() != 5 {
		t.Fatalf("depth %d want 5", path.Depth())
	}
	ps, err := PathDist(path, sl, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Manual: sum of means, RSS of sigmas via the same arc lookups.
	var mu, varsum float64
	for _, step := range path.Steps {
		n, err := StepStats(step, sl)
		if err != nil {
			t.Fatal(err)
		}
		mu += n.Mu
		varsum += n.Sigma * n.Sigma
	}
	if math.Abs(ps.Dist.Mu-mu) > 1e-12 {
		t.Errorf("mu %g want %g", ps.Dist.Mu, mu)
	}
	if math.Abs(ps.Dist.Sigma-math.Sqrt(varsum)) > 1e-12 {
		t.Errorf("sigma %g want %g", ps.Dist.Sigma, math.Sqrt(varsum))
	}
	// The statistical-library mean must be close to the STA arrival
	// (same tables, modulo MC estimation error).
	if rel := math.Abs(ps.Dist.Mu-ep.Arrival) / ep.Arrival; rel > 0.05 {
		t.Errorf("statistical mean %g far from STA arrival %g", ps.Dist.Mu, ep.Arrival)
	}
}

// TestSqrtDepthScaling: for identical cells, path sigma grows like
// sqrt(depth) (eq. 10).
func TestSqrtDepthScaling(t *testing.T) {
	_, sl := env(t)
	sigmaOf := func(n int) float64 {
		nl := invChainNetlist(t, n)
		r, err := sta.Analyze(nl, sta.DefaultConfig(10))
		if err != nil {
			t.Fatal(err)
		}
		var worst sta.Path
		for _, p := range r.WorstPaths() {
			if p.Depth() > worst.Depth() {
				worst = p
			}
		}
		// Strip the launch FF so only the identical inverters remain —
		// the clean eq. (10) setting.
		comb := worst
		comb.Steps = comb.Steps[1:]
		ps, err := PathDist(comb, sl, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ps.Dist.Sigma
	}
	s4, s16 := sigmaOf(4), sigmaOf(16)
	ratio := s16 / s4
	// Identical cells: sigma scales as sqrt(16/4) = 2 (eq. 10); the
	// differing last-stage load leaves a little wiggle.
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("sigma ratio 16/4 = %g, want ~2 (sqrt growth)", ratio)
	}
}

func TestAnalyzeDesignConvolution(t *testing.T) {
	_, sl := env(t)
	nl := invChainNetlist(t, 3)
	r, err := sta.Analyze(nl, sta.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Analyze(r, sl, 0)
	if err != nil {
		t.Fatal(err)
	}
	// eq. (11): design sigma = RSS of path sigmas; mean = sum of means.
	var mu, varsum float64
	for _, p := range ds.Paths {
		mu += p.Dist.Mu
		varsum += p.Dist.Sigma * p.Dist.Sigma
	}
	if math.Abs(ds.Design.Mu-mu) > 1e-12 || math.Abs(ds.Design.Sigma-math.Sqrt(varsum)) > 1e-12 {
		t.Errorf("design convolution mismatch")
	}
	if ds.MaxDepth() != 4 {
		t.Errorf("max depth %d want 4", ds.MaxDepth())
	}
	h := ds.DepthHistogram()
	if h[4] != 1 {
		t.Errorf("depth histogram %v", h)
	}
	if ds.WorstMeanPlus3Sigma() <= ds.Design.Mu/float64(len(ds.Paths)) {
		t.Error("worst mu+3sigma implausible")
	}
}

func TestRhoRaisesPathSigma(t *testing.T) {
	_, sl := env(t)
	nl := invChainNetlist(t, 6)
	r, err := sta.Analyze(nl, sta.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	d0, err := Analyze(r, sl, 0)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Analyze(r, sl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var s0, s1 float64
	for _, p := range d0.Paths {
		if p.Dist.Sigma > s0 {
			s0 = p.Dist.Sigma
		}
	}
	for _, p := range d1.Paths {
		if p.Dist.Sigma > s1 {
			s1 = p.Dist.Sigma
		}
	}
	if s1 <= s0 {
		t.Errorf("rho=0.5 sigma %g not above rho=0 %g (eq. 9 vs eq. 10)", s1, s0)
	}
}

func TestCompareArithmetic(t *testing.T) {
	c := Compare{BaselineSigma: 0.049, TunedSigma: 0.031, BaselineArea: 5.39e4, TunedArea: 5.77e4}
	if r := c.SigmaReduction(); math.Abs(r-0.367) > 0.01 {
		t.Errorf("sigma reduction %g", r)
	}
	if a := c.AreaIncrease(); math.Abs(a-0.0705) > 0.01 {
		t.Errorf("area increase %g", a)
	}
	zero := Compare{}
	if zero.SigmaReduction() != 0 || zero.AreaIncrease() != 0 {
		t.Error("zero baseline should not divide by zero")
	}
}

func TestSortByDepthAndCorrelation(t *testing.T) {
	_, sl := env(t)
	nl := invChainNetlist(t, 5)
	r, err := sta.Analyze(nl, sta.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Analyze(r, sl, 0)
	if err != nil {
		t.Fatal(err)
	}
	ds.SortByDepth()
	for i := 1; i < len(ds.Paths); i++ {
		if ds.Paths[i].Depth < ds.Paths[i-1].Depth {
			t.Fatal("not sorted by depth")
		}
	}
	depths, sigmas := ds.SigmaVsDepth()
	if len(depths) != len(ds.Paths) || len(sigmas) != len(depths) {
		t.Fatal("scatter dimensions")
	}
	corr := ds.DepthSigmaCorrelation()
	if corr < -1-1e-9 || corr > 1+1e-9 {
		t.Errorf("correlation %g outside [-1,1]", corr)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	c, sl := env(t)
	// Netlist whose only endpoint is a PI-driven PO: no cell paths.
	nl := netlist.New("empty", c)
	in := nl.AddInput("a")
	nl.MarkOutput("y", in)
	r, err := sta.Analyze(nl, sta.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(r, sl, 0); err == nil {
		t.Error("design with no cell paths accepted")
	}
}

// TestAnalyzeDegradesQuarantinedCell: a step through a quarantined cell
// falls back to its nominal STA delay with zero sigma and is tallied,
// while a cell missing for any other reason stays a hard error.
func TestAnalyzeDegradesQuarantinedCell(t *testing.T) {
	c, _ := env(t)
	libs := variation.Instances(c, variation.Config{N: 5, Seed: 9})
	sl, err := statlib.Build("q", libs)
	if err != nil {
		t.Fatal(err)
	}
	nl := invChainNetlist(t, 6)
	r, err := sta.Analyze(nl, sta.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Analyze(r, sl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if clean.DegradedSteps() != 0 {
		t.Fatalf("clean run reports %d degraded steps", clean.DegradedSteps())
	}
	// Quarantine the chain's inverter out of the statistical library.
	sl.Quarantine.Add("INV_2", "test: degenerate statistics")
	delete(sl.Cells, "INV_2")
	ds, err := Analyze(r, sl, 0)
	if err != nil {
		t.Fatalf("quarantined cell must degrade, not fail: %v", err)
	}
	if ds.Degraded["INV_2"] == 0 {
		t.Fatal("inverter steps not tallied as degraded")
	}
	if ds.DegradedSteps() < 6 {
		t.Errorf("degraded steps %d, chain has 6 inverters", ds.DegradedSteps())
	}
	// Zero-sigma fallback: design sigma must shrink, mean must stay finite
	// and in the same ballpark (nominal delay replaces the statistical mean).
	if ds.Design.Sigma >= clean.Design.Sigma {
		t.Errorf("degraded sigma %g not below clean %g", ds.Design.Sigma, clean.Design.Sigma)
	}
	if math.IsNaN(ds.Design.Mu) || ds.Design.Mu <= 0 {
		t.Errorf("degraded mean %g not finite-positive", ds.Design.Mu)
	}
	// Missing without quarantine is still fatal.
	delete(sl.Cells, "DFQ_2")
	if _, err := Analyze(r, sl, 0); err == nil {
		t.Error("unquarantined missing cell accepted")
	}
}

// analyzeSerial reproduces the seed's sequential Analyze exactly: one
// pathDist per worst path in endpoint order, no worker pool, no
// interning. The concurrent AnalyzeCtx must match it bit for bit.
func analyzeSerial(t *testing.T, r *sta.Result, stat *statlib.Library, rho float64) *DesignStats {
	t.Helper()
	ds := &DesignStats{Rho: rho, Degraded: make(map[string]int)}
	var pathDists []dist.Normal
	for _, path := range r.WorstPaths() {
		if len(path.Steps) == 0 {
			continue
		}
		an := &analyzer{stat: stat, rho: rho}
		ps, err := an.pathDist(path, ds.Degraded)
		if err != nil {
			t.Fatal(err)
		}
		ds.Paths = append(ds.Paths, ps)
		pathDists = append(pathDists, ps.Dist)
	}
	design, err := dist.ConvolveDesign(pathDists)
	if err != nil {
		t.Fatal(err)
	}
	ds.Design = design
	return ds
}

// TestAnalyzeConcurrentMatchesSerial: the pooled, interned AnalyzeCtx
// must reproduce the serial analysis exactly — same path order, every
// distribution bit-identical, same design convolution, same Degraded
// tallies — including when quarantined cells degrade mid-path.
func TestAnalyzeConcurrentMatchesSerial(t *testing.T) {
	c, _ := env(t)
	libs := variation.Instances(c, variation.Config{N: 8, Seed: 11})
	sl, err := statlib.Build("cmp", libs)
	if err != nil {
		t.Fatal(err)
	}
	nl := invChainNetlist(t, 9)
	r, err := sta.Analyze(nl, sta.DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string) {
		t.Helper()
		want := analyzeSerial(t, r, sl, 0.25)
		for run := 0; run < 5; run++ { // several runs: scheduling must not matter
			got, err := Analyze(r, sl, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Paths) != len(want.Paths) {
				t.Fatalf("%s: %d paths want %d", name, len(got.Paths), len(want.Paths))
			}
			for i := range got.Paths {
				g, w := got.Paths[i], want.Paths[i]
				if g.Path.Endpoint.Name != w.Path.Endpoint.Name || g.Depth != w.Depth {
					t.Fatalf("%s: path %d is %s/%d want %s/%d (ordering)",
						name, i, g.Path.Endpoint.Name, g.Depth, w.Path.Endpoint.Name, w.Depth)
				}
				if g.Dist != w.Dist {
					t.Fatalf("%s: path %d dist %+v want %+v (bit-identical)", name, i, g.Dist, w.Dist)
				}
			}
			if got.Design != want.Design {
				t.Fatalf("%s: design %+v want %+v", name, got.Design, want.Design)
			}
			if len(got.Degraded) != len(want.Degraded) {
				t.Fatalf("%s: degraded %v want %v", name, got.Degraded, want.Degraded)
			}
			for cell, n := range want.Degraded {
				if got.Degraded[cell] != n {
					t.Fatalf("%s: degraded[%s]=%d want %d", name, cell, got.Degraded[cell], n)
				}
			}
		}
	}
	check("clean")
	sl.Quarantine.Add("INV_2", "test: degenerate statistics")
	delete(sl.Cells, "INV_2")
	check("quarantined")
}

// fanNetlist builds chains FF -> k cells -> FF for k = 1..chains, the
// cells alternating INV_2 and BUF_4, so the design has one worst path
// per chain at depths that differ from range to range.
func fanNetlist(t *testing.T, chains int) *netlist.Netlist {
	t.Helper()
	c, _ := env(t)
	nl := netlist.New("fan", c)
	for k := 1; k <= chains; k++ {
		launch := nl.AddInstance("", c.Spec("DFQ_2"))
		nl.Connect(launch, "D", nl.AddInput(fmt.Sprintf("si%d", k)))
		cur := nl.AddNet("")
		nl.Drive(launch, "Q", cur)
		for i := 0; i < k; i++ {
			cell := "INV_2"
			if i%2 == 1 {
				cell = "BUF_4"
			}
			g := nl.AddInstance("", c.Spec(cell))
			nl.Connect(g, "A", cur)
			cur = nl.AddNet("")
			nl.Drive(g, "Y", cur)
		}
		capture := nl.AddInstance("", c.Spec("DFQ_2"))
		nl.Connect(capture, "D", cur)
		q := nl.AddNet("")
		nl.Drive(capture, "Q", q)
		nl.MarkOutput(fmt.Sprintf("so%d", k), q)
	}
	return nl
}

// TestFanOutWorkerInvariant: worst-path backtracking and the per-path
// statistical timing give bit-identical results at GOMAXPROCS 1, 2, 3
// and 8, whichever way the paths fall into ranges, including the
// Degraded tally of a quarantined cell merged across ranges.
func TestFanOutWorkerInvariant(t *testing.T) {
	c, _ := env(t)
	sl, err := statlib.Build("fan", variation.Instances(c, variation.Config{N: 6, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	sl.Quarantine.Add("INV_2", "test: degenerate statistics")
	delete(sl.Cells, "INV_2")
	r, err := sta.Analyze(fanNetlist(t, 23), sta.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		paths, err := r.WorstPathsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ds, err := AnalyzeCtx(context.Background(), r, sl, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Degraded["INV_2"] == 0 || ds.Degraded["BUF_4"] != 0 {
			t.Fatalf("degraded tally %v, want INV_2 steps only", ds.Degraded)
		}
		var b strings.Builder
		for _, p := range paths {
			fmt.Fprintf(&b, "path %s:", p.Endpoint.Name)
			for _, st := range p.Steps {
				fmt.Fprintf(&b, " %s/%s<-%s %x %x %x", st.Inst.Name, st.OutPin, st.FromPin,
					math.Float64bits(st.Load), math.Float64bits(st.Slew), math.Float64bits(st.Delay))
			}
			b.WriteByte('\n')
		}
		for _, ps := range ds.Paths {
			fmt.Fprintf(&b, "stat %s %d %x %x\n", ps.Path.Endpoint.Name, ps.Depth,
				math.Float64bits(ps.Dist.Mu), math.Float64bits(ps.Dist.Sigma))
		}
		fmt.Fprintf(&b, "design %x %x degraded %v\n",
			math.Float64bits(ds.Design.Mu), math.Float64bits(ds.Design.Sigma), ds.Degraded)
		return b.String()
	}
	want := ""
	for _, procs := range []int{1, 2, 3, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got := render()
		runtime.GOMAXPROCS(prev)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("GOMAXPROCS=%d differs from GOMAXPROCS=1:\n%s\nwant:\n%s", procs, got, want)
		}
	}
}

func TestYield(t *testing.T) {
	_, sl := env(t)
	nl := invChainNetlist(t, 5)
	r, err := sta.Analyze(nl, sta.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Analyze(r, sl, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Yield is monotone in the clock and spans (0,1).
	if y := ds.Yield(1e-6); y > 1e-6 {
		t.Errorf("yield at ~zero clock %g", y)
	}
	if y := ds.Yield(100); y < 0.999999 {
		t.Errorf("yield at huge clock %g", y)
	}
	prev := -1.0
	for _, clk := range []float64{0.05, 0.1, 0.2, 0.5, 1, 2} {
		y := ds.Yield(clk)
		if y < prev {
			t.Fatalf("yield not monotone at %g", clk)
		}
		prev = y
	}
	// MinClockForYield inverts Yield.
	for _, target := range []float64{0.5, 0.99, 0.999} {
		mc := ds.MinClockForYield(target)
		if y := ds.Yield(mc); y < target-1e-6 {
			t.Errorf("Yield(MinClock(%g)) = %g below target", target, y)
		}
		if y := ds.Yield(mc * 0.99); y > target {
			t.Errorf("min clock for %g not tight", target)
		}
	}
}
