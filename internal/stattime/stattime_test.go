package stattime

import (
	"context"
	"errors"
	"fmt"
	"maps"
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

// analyzeReference is the path-by-path analysis the prefix-moment pass
// replaced, kept as the reference Analyze must match bit for bit: one
// materialized worst path per endpoint (WorstPaths), each step looked
// up on its own (StepStats, or its nominal delay with zero sigma through
// a quarantined cell, tallied per step), and each path convolved
// launch → capture by dist.ConvolvePathCorrelated.
func analyzeReference(r *sta.Result, stat *statlib.Library, rho float64) (*DesignStats, error) {
	ds := &DesignStats{Rho: rho, Degraded: make(map[string]int)}
	var pathDists []dist.Normal
	for _, path := range r.WorstPaths() {
		if len(path.Steps) == 0 {
			continue // endpoint fed directly by a primary input
		}
		var cells []dist.Normal
		for _, step := range path.Steps {
			if step.Inst.Spec.Kind == stdcell.KindTie {
				continue
			}
			n, err := StepStats(step, stat)
			if err != nil {
				if !stat.Quarantined(step.Inst.Spec.Name) {
					return nil, err
				}
				ds.Degraded[step.Inst.Spec.Name]++
				n = dist.Normal{Mu: step.Delay}
			}
			cells = append(cells, n)
		}
		ps := PathStats{Endpoint: path.Endpoint, Depth: len(path.Steps)}
		if len(cells) > 0 {
			d, err := dist.ConvolvePathCorrelated(cells, rho)
			if err != nil {
				return nil, err
			}
			ps.Dist = d
		}
		ds.Paths = append(ds.Paths, ps)
		pathDists = append(pathDists, ps.Dist)
	}
	design, err := dist.ConvolveDesign(pathDists)
	if err != nil {
		return nil, err
	}
	ds.Design = design
	return ds, nil
}

// checkMatchesReference fails unless Analyze reproduces
// analyzeReference exactly: the same endpoints in the same order, the
// same depths, every path's and the design's mean and sigma to the bit,
// and the same Degraded tallies. It returns Analyze's result.
func checkMatchesReference(t *testing.T, name string, r *sta.Result, stat *statlib.Library, rho float64) *DesignStats {
	t.Helper()
	want, err := analyzeReference(r, stat, rho)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := Analyze(r, stat, rho)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("%s: %d paths want %d", name, len(got.Paths), len(want.Paths))
	}
	bits := func(n dist.Normal) [2]uint64 { return [2]uint64{math.Float64bits(n.Mu), math.Float64bits(n.Sigma)} }
	for i := range got.Paths {
		g, w := got.Paths[i], want.Paths[i]
		if g.Endpoint.Name != w.Endpoint.Name || g.Depth != w.Depth {
			t.Fatalf("%s: path %d is %s/%d want %s/%d", name, i, g.Endpoint.Name, g.Depth, w.Endpoint.Name, w.Depth)
		}
		if bits(g.Dist) != bits(w.Dist) {
			t.Fatalf("%s: path %d (%s) dist %+v want %+v (bit-identical)", name, i, g.Endpoint.Name, g.Dist, w.Dist)
		}
	}
	if bits(got.Design) != bits(want.Design) || got.Rho != want.Rho {
		t.Fatalf("%s: design %+v rho %g want %+v rho %g", name, got.Design, got.Rho, want.Design, want.Rho)
	}
	if !maps.Equal(got.Degraded, want.Degraded) {
		t.Fatalf("%s: degraded %v want %v", name, got.Degraded, want.Degraded)
	}
	return got
}

// referenceRhos are the correlations the reference checks run at: the
// paper's rho = 0 and one positive and one negative rho, where eq. (9)'s
// cross term and its clamp at 0 come in.
var referenceRhos = []float64{0, 0.25, -0.3}

// mixedNetlist builds the path shapes the prefix-moment pass treats
// specially, in one design: an FF -> INV chain -> FF path; a fan-out
// whose branches share the chain's first inverter; a tie cell driving a
// buffer into an FF and a tie cell driving an FF directly (paths with a
// tie step, the second with no cell that contributes moments); and a
// primary output fed straight by a primary input (no steps at all).
func mixedNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	c, _ := env(t)
	nl := netlist.New("mixed", c)
	cell := func(spec string, in *netlist.Net) *netlist.Net {
		g := nl.AddInstance("", c.Spec(spec))
		if in != nil {
			nl.Connect(g, g.Spec.Inputs[0], in)
		}
		out := nl.AddNet("")
		nl.Drive(g, g.Spec.Outputs[0], out)
		return out
	}
	capture := func(name string, d *netlist.Net) {
		ff := nl.AddInstance(name, c.Spec("DFQ_2"))
		nl.Connect(ff, "D", d)
		q := nl.AddNet("")
		nl.Drive(ff, "Q", q)
		nl.MarkOutput(name+"_q", q)
	}
	launch := nl.AddInstance("launch", c.Spec("DFQ_2"))
	nl.Connect(launch, "D", nl.AddInput("si"))
	q := nl.AddNet("")
	nl.Drive(launch, "Q", q)
	first := cell("INV_2", q)
	cur := first
	for i := 0; i < 5; i++ {
		cur = cell("INV_2", cur)
	}
	capture("chain", cur)
	capture("branch_buf", cell("BUF_4", first))
	nl.MarkOutput("branch_po", cell("INV_2", cell("INV_2", first)))
	capture("tie_buf", cell("BUF_4", cell("TIEH_1", nil)))
	capture("tie_only", cell("TIEL_1", nil))
	nl.MarkOutput("feedthrough", nl.AddInput("pi"))
	return nl
}

// TestAnalyzeMatchesPathByPath: the prefix-moment pass reproduces the
// path-by-path reference bit for bit on chains, shared prefixes, tie
// steps and input-fed endpoints, clean and with a quarantined cell, at
// every reference rho. The flow's synthesized designs are checked in
// TestAnalyzeMatchesPathByPathOnFlow.
func TestAnalyzeMatchesPathByPath(t *testing.T) {
	c, _ := env(t)
	// TestAnalyzeDegradesQuarantinedCell's library and chain.
	sl, err := statlib.Build("q", variation.Instances(c, variation.Config{N: 5, Seed: 9}))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := sta.Analyze(invChainNetlist(t, 6), sta.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := sta.Analyze(mixedNetlist(t), sta.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	depth := map[string]int{}
	for _, p := range mixed.WorstPaths() {
		depth[p.Endpoint.Name] = p.Depth()
	}
	if depth["tie_buf"] != 2 || depth["tie_only"] != 1 || depth["feedthrough"] != 0 || depth["branch_buf"] != 3 {
		t.Fatalf("mixed netlist worst-path depths %v", depth)
	}
	for _, quarantined := range []bool{false, true} {
		if quarantined {
			sl.Quarantine.Add("INV_2", "test: degenerate statistics")
			delete(sl.Cells, "INV_2")
		}
		for _, rho := range referenceRhos {
			name := fmt.Sprintf("quarantined=%v rho=%g", quarantined, rho)
			checkMatchesReference(t, "chain "+name, chain, sl, rho)
			ds := checkMatchesReference(t, "mixed "+name, mixed, sl, rho)
			if quarantined && ds.Degraded["INV_2"] != 6+1+3 {
				t.Fatalf("mixed %s: INV_2 degraded %d times, want 10 (chain 6, branch_buf 1, branch_po 3)",
					name, ds.Degraded["INV_2"])
			}
		}
	}
}

// TestAnalyzeCancelled: a cancelled context stops the pass with the
// context's error and no statistics.
func TestAnalyzeCancelled(t *testing.T) {
	_, sl := env(t)
	r, err := sta.Analyze(invChainNetlist(t, 3), sta.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds, err := AnalyzeCtx(ctx, r, sl, 0)
	if !errors.Is(err, context.Canceled) || ds != nil {
		t.Fatalf("cancelled AnalyzeCtx = %v, %v; want nil, context.Canceled", ds, err)
	}
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

// TestFanOutWorkerInvariant: worst-path backtracking and the
// statistical timing give bit-identical results at GOMAXPROCS 1, 2, 3
// and 8, including the Degraded tally of a quarantined cell.
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
		paths := r.WorstPaths()
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
			fmt.Fprintf(&b, "stat %s %d %x %x\n", ps.Endpoint.Name, ps.Depth,
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
