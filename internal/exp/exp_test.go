package exp

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stdcelltune/internal/core"
	"stdcelltune/internal/restrict"
)

var (
	flowOnce sync.Once
	flowInst *Flow
	flowErr  error
)

// smallFlow shares one scaled-down flow across all exp tests.
func smallFlow(t *testing.T) *Flow {
	t.Helper()
	flowOnce.Do(func() {
		flowInst, flowErr = NewFlow(context.Background(), SmallFlowConfig())
	})
	if flowErr != nil {
		t.Fatal(flowErr)
	}
	return flowInst
}

func TestMinClockAndTable1(t *testing.T) {
	f := smallFlow(t)
	minClk, err := f.MinClock()
	if err != nil {
		t.Fatal(err)
	}
	if minClk < 0.5 || minClk > 16 {
		t.Fatalf("min clock %g implausible", minClk)
	}
	// The minimum must actually be met and a slightly smaller one not.
	res, err := f.Baseline(minClk)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Errorf("min clock %g not met", minClk)
	}
	t1, err := f.Table1()
	if err != nil {
		t.Fatal(err)
	}
	c := t1.Clocks
	if !(c.HighPerf < c.CloseToMax && c.CloseToMax < c.Medium && c.Medium < c.Low) {
		t.Errorf("clock ordering broken: %+v", c)
	}
	if got := len(c.Periods()); got != 4 {
		t.Errorf("periods %d want 4", got)
	}
	if !strings.Contains(t1.Render(), "High performance") {
		t.Error("render missing rows")
	}
}

func TestTable2Static(t *testing.T) {
	f := smallFlow(t)
	t2 := f.Table2()
	if len(t2.LoadSlopeBounds) != 4 || len(t2.SigmaCeilings) != 4 {
		t.Fatalf("table 2 shape: %+v", t2)
	}
	out := t2.Render()
	for _, want := range []string{"Load slope", "Slew slope", "Sigma ceiling", "0.06", "100"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2 render missing %q", want)
		}
	}
}

func TestFig1(t *testing.T) {
	f := smallFlow(t)
	r := f.Fig1()
	if r.Left.Variability() != r.Right.Variability() {
		t.Error("Fig 1 premise broken: variabilities must match")
	}
	if r.Left.Sigma >= r.Right.Sigma {
		t.Error("left must have the smaller sigma")
	}
	if !strings.Contains(r.Render(), "variability") {
		t.Error("render empty")
	}
}

func TestFig2Through7(t *testing.T) {
	f := smallFlow(t)
	f2, err := f.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if f2.MeanRelErr > 0.05 {
		t.Errorf("statlib mean error %g too large", f2.MeanRelErr)
	}
	if f2.SigmaRelErr > 0.5 {
		t.Errorf("statlib sigma error %g too large", f2.SigmaRelErr)
	}

	f3, err := f.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := f3.Corners[0], f3.Corners[0]
	for _, c := range f3.Corners {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if f3.OffGrid < lo || f3.OffGrid > hi {
		t.Errorf("interpolated %g outside corner range [%g,%g]", f3.OffGrid, lo, hi)
	}

	f4, err := f.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent drives differ by only sqrt(2) in sigma, which a small MC
	// sample count can blur; compare two steps apart (4x drive = 2x
	// sigma) where the ordering must be unambiguous.
	for i := 2; i < len(f4.Surfaces); i++ {
		if f4.Surfaces[i].SigmaMax >= f4.Surfaces[i-2].SigmaMax {
			t.Errorf("Fig 4: sigma not falling with drive (%s vs %s)",
				f4.Surfaces[i].Cell, f4.Surfaces[i-2].Cell)
		}
	}
	for i := 1; i < len(f4.Surfaces); i++ {
		if f4.Surfaces[i].LoadMax <= f4.Surfaces[i-1].LoadMax {
			t.Errorf("Fig 4: load range not growing with drive")
		}
	}

	f5, err := f.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Surfaces) < 10 {
		t.Errorf("drive-6 cluster too small: %d", len(f5.Surfaces))
	}
	seenNR4 := false
	for _, s := range f5.Surfaces {
		if s.Cell == "NR4_6" {
			seenNR4 = true
		}
		if s.Drive != 6 {
			t.Errorf("non-drive-6 cell %s in cluster", s.Cell)
		}
	}
	if !seenNR4 {
		t.Error("NR4_6 (the paper's example) missing from the cluster")
	}

	f6, err := f.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if f6.Rect.Empty() {
		t.Error("Fig 6 rectangle empty at ceiling 0.02")
	}
	if !f6.Fig6Sanity() {
		t.Error("fast and exhaustive rectangle extraction disagree")
	}
	if f6.Threshold > f6.Ceiling {
		t.Errorf("threshold %g above ceiling %g", f6.Threshold, f6.Ceiling)
	}

	f7, err := f.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if f7.Tables < 600 {
		t.Errorf("only %d sigma tables in library", f7.Tables)
	}
	if !(f7.Percentile[50] <= f7.Percentile[90] && f7.Percentile[90] <= f7.Percentile[99]) {
		t.Error("percentiles not ordered")
	}
	if f7.GlobalMax < f7.Percentile[99] {
		t.Error("global max below p99")
	}
	for _, r := range []interface{ Render() string }{f2, f3, f4, f5, f6, f7} {
		if r.Render() == "" {
			t.Error("empty render")
		}
	}
}

func TestFig8Curve(t *testing.T) {
	f := smallFlow(t)
	r, err := f.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Periods) < 8 {
		t.Fatalf("sweep too short: %d", len(r.Periods))
	}
	// Area must broadly decrease toward relaxed clocks: the last point
	// must be below the first met point.
	var first float64
	for i, met := range r.Met {
		if met {
			first = r.Areas[i]
			break
		}
	}
	last := r.Areas[len(r.Areas)-1]
	if last >= first {
		t.Errorf("relaxed area %g not below tight area %g", last, first)
	}
	if r.Knee <= r.Periods[0] {
		t.Errorf("knee %g not beyond the minimum period", r.Knee)
	}
	if !strings.Contains(r.Render(), "knee") {
		t.Error("render missing knee")
	}
}

func TestTable3AndFig10(t *testing.T) {
	f := smallFlow(t)
	r, err := f.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table3.Best) != 5*4 {
		t.Fatalf("best entries %d want 20", len(r.Table3.Best))
	}
	anyMet := false
	for _, b := range r.Table3.Best {
		if !b.Met {
			continue
		}
		anyMet = true
		if b.SigmaTuned > b.SigmaBase {
			t.Errorf("%v @ %.2f: tuned sigma above baseline", b.Method, b.Clock)
		}
		if b.AreaIncrease() >= AreaCap {
			t.Errorf("%v @ %.2f: area increase %.2f over cap", b.Method, b.Clock, b.AreaIncrease())
		}
	}
	if !anyMet {
		t.Fatal("no method met timing at any clock")
	}
	if sr, _, ok := r.Headline(); ok && sr < 0.05 {
		t.Errorf("headline sigma reduction %.2f implausibly small", sr)
	}
	if !strings.Contains(r.Render(), "headline") && !strings.Contains(r.Render(), "sigma dec") {
		t.Error("fig10 render incomplete")
	}
	if !strings.Contains(r.Table3.Render(), "sigma ceiling") {
		t.Error("table3 render incomplete")
	}
}

func TestFig11Tradeoff(t *testing.T) {
	f := smallFlow(t)
	r, err := f.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points %d want 4", len(r.Points))
	}
	// Tightening the ceiling must not decrease the sigma reduction among
	// met points (trade-off monotonicity).
	prev := -1.0
	for _, p := range r.Points {
		if !p.Met {
			continue
		}
		if p.SigmaReduction < prev-0.02 {
			t.Errorf("sigma reduction fell when ceiling tightened: %v", r.Points)
		}
		prev = p.SigmaReduction
	}
	if !strings.Contains(r.Render(), "ceiling") {
		t.Error("render incomplete")
	}
}

func TestFig9CellUse(t *testing.T) {
	f := smallFlow(t)
	clocks, err := f.Clocks()
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Fig9(clocks.HighPerf)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) == 0 {
		t.Fatal("no cells above the use threshold")
	}
	if r.BaselineInvUse == 0 || r.TunedInvUse == 0 {
		t.Error("inverter counts empty")
	}
	if !strings.Contains(r.Render(), "baseline") {
		t.Error("render incomplete")
	}
}

func TestFig12Through14(t *testing.T) {
	f := smallFlow(t)
	f12, err := f.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(f12.BaselineDepth) == 0 || len(f12.TunedDepth) == 0 {
		t.Fatal("empty depth histograms")
	}
	f13, err := f.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(f13.BaseSigmas) == 0 {
		t.Fatal("no scatter data")
	}
	// The Fig. 13 claim: depth alone does not dictate sigma — the
	// correlation should be visibly below perfect.
	if f13.BaseCorr > 0.95 {
		t.Errorf("depth-sigma correlation %.2f suspiciously perfect", f13.BaseCorr)
	}
	f14, err := f.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if f14.BaseWorst3S <= 0 || f14.TunedWorst3S <= 0 {
		t.Fatal("empty worst-case stats")
	}
	// Tuning reduces the worst mu+3sigma (paper: 2.23 -> 2.19).
	if f14.TunedWorst3S > f14.BaseWorst3S*1.02 {
		t.Errorf("tuned worst mu+3sigma %.3f above baseline %.3f", f14.TunedWorst3S, f14.BaseWorst3S)
	}
	for _, r := range []interface{ Render() string }{f12, f13, f14} {
		if r.Render() == "" {
			t.Error("empty render")
		}
	}
}

func TestFig15And16(t *testing.T) {
	f := smallFlow(t)
	f15, err := f.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(f15.Paths) != 3 {
		t.Fatalf("paths %d want 3", len(f15.Paths))
	}
	for _, p := range f15.Paths {
		for _, c := range p.Corners {
			if c.RelMean <= 0 || c.RelSigma <= 0 {
				t.Error("bad corner stats")
			}
			// Mean and sigma scale together (within MC noise).
			if diff := c.RelSigma/c.RelMean - 1; diff > 0.25 || diff < -0.25 {
				t.Errorf("depth %d corner %v: sigma/mean scaling diverges (%.2f)", p.Depth, c.Corner, diff)
			}
		}
	}
	f16, err := f.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if len(f16.Paths) != 3 {
		t.Fatalf("paths %d want 3", len(f16.Paths))
	}
	// Local share decays with depth.
	if !(f16.Paths[0].LocalShare > f16.Paths[1].LocalShare &&
		f16.Paths[1].LocalShare >= f16.Paths[2].LocalShare) {
		t.Errorf("local share not decaying: %+v", f16.Paths)
	}
	if !strings.Contains(f15.Render(), "corner") || !strings.Contains(f16.Render(), "local") {
		t.Error("render incomplete")
	}
	_ = core.Methods
}

func TestExtPNR(t *testing.T) {
	f := smallFlow(t)
	r, err := f.ExtPNR()
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows < 2 || r.TotalHPWL <= 0 {
		t.Fatal("placement degenerate")
	}
	if r.PreSigma <= 0 || r.PostSigma <= 0 {
		t.Fatal("sigma analysis empty")
	}
	if r.BaseBuffers == 0 || r.TunedBuffers == 0 {
		t.Fatal("clock trees empty")
	}
	// The tuned tree must not be worse in skew sigma.
	if r.TunedSkewSigma > r.BaseSkewSigma {
		t.Errorf("tuned skew sigma %.5f above baseline %.5f", r.TunedSkewSigma, r.BaseSkewSigma)
	}
	if !strings.Contains(r.Render(), "clock tree") {
		t.Error("render incomplete")
	}
}

func TestExtPower(t *testing.T) {
	f := smallFlow(t)
	r, err := f.ExtPower()
	if err != nil {
		t.Fatal(err)
	}
	if r.Base.Total() <= 0 || r.Tuned.Total() <= 0 {
		t.Fatal("empty power reports")
	}
	// The tuned design must not leak less: bigger cells are the price.
	if r.Tuned.Leakage < r.Base.Leakage*0.99 {
		t.Errorf("tuned leakage %g below baseline %g", r.Tuned.Leakage, r.Base.Leakage)
	}
	if !strings.Contains(r.Render(), "leakage") {
		t.Error("render incomplete")
	}
}

func TestExtYield(t *testing.T) {
	f := smallFlow(t)
	r, err := f.ExtYield()
	if err != nil {
		t.Fatal(err)
	}
	if r.TunedYield < r.BaseYield-1e-9 {
		t.Errorf("tuned yield %g below baseline %g", r.TunedYield, r.BaseYield)
	}
	if r.UncertaintyReclaimed() < -1e-9 {
		t.Errorf("tuning cost uncertainty: %g", r.UncertaintyReclaimed())
	}
	if len(r.SweepClocks) != 7 {
		t.Fatalf("sweep size %d", len(r.SweepClocks))
	}
	for i := 1; i < len(r.SweepBase); i++ {
		if r.SweepBase[i] < r.SweepBase[i-1] || r.SweepTuned[i] < r.SweepTuned[i-1] {
			t.Fatal("yield curves not monotone")
		}
	}
	if !strings.Contains(r.Render(), "uncertainty reclaimed") {
		t.Error("render incomplete")
	}
}

func TestFlowCaching(t *testing.T) {
	f := smallFlow(t)
	clocks, err := f.Clocks()
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Baseline(clocks.Low)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Baseline(clocks.Low)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("baseline not cached (pointer differs)")
	}
	s1, _, err := f.Tune(core.SigmaCeiling, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := f.Tune(core.SigmaCeiling, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("tuning not cached")
	}
	// MinClock stable across calls.
	m1, _ := f.MinClock()
	m2, _ := f.MinClock()
	if m1 != m2 {
		t.Error("min clock not cached")
	}
}

// TestTunedDesignStillMeetsHold: restriction can only slow paths, so the
// tuned design must keep passing hold checks.
func TestTunedDesignStillMeetsHold(t *testing.T) {
	f := smallFlow(t)
	clocks, err := f.Clocks()
	if err != nil {
		t.Fatal(err)
	}
	base, err := f.Baseline(clocks.Medium)
	if err != nil {
		t.Fatal(err)
	}
	bh, err := base.Timing.AnalyzeHold()
	if err != nil {
		t.Fatal(err)
	}
	if !bh.MeetsHold() {
		t.Fatalf("baseline violates hold: %g", bh.WorstHoldSlack())
	}
	tuned, err := f.Tuned(core.SigmaCeiling, 0.02, clocks.Medium)
	if err != nil {
		t.Fatal(err)
	}
	th, err := tuned.Timing.AnalyzeHold()
	if err != nil {
		t.Fatal(err)
	}
	if !th.MeetsHold() {
		t.Fatalf("tuned design violates hold: %g", th.WorstHoldSlack())
	}
}

func TestExtCorners(t *testing.T) {
	f := smallFlow(t)
	r, err := f.ExtCorners()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outcomes) != 3 {
		t.Fatalf("corners %d want 3", len(r.Outcomes))
	}
	var typical *CornerOutcome
	for i := range r.Outcomes {
		oc := &r.Outcomes[i]
		if !oc.Met {
			t.Fatalf("%v corner synthesis missed timing", oc.Corner)
		}
		if oc.SigmaReduction <= 0 {
			t.Errorf("%v corner: no sigma reduction (%g)", oc.Corner, oc.SigmaReduction)
		}
		if oc.Corner == f.Cfg.Corner {
			typical = oc
		}
	}
	if typical == nil {
		t.Fatal("typical corner missing")
	}
	// Relative reduction at other corners stays within a band of the
	// typical-corner reduction (paper: same factor scaling).
	for _, oc := range r.Outcomes {
		if oc.Corner == f.Cfg.Corner {
			continue
		}
		if diff := oc.SigmaReduction - typical.SigmaReduction; diff > 0.25 || diff < -0.25 {
			t.Errorf("%v corner reduction %.2f far from typical %.2f",
				oc.Corner, oc.SigmaReduction, typical.SigmaReduction)
		}
	}
	if !strings.Contains(r.Render(), "corners") {
		t.Error("render incomplete")
	}
}

// TestCancelMidTable3 checks the cancellation contract end to end:
// cancelling the flow context while Table3's method-by-clock fan-out is
// running must return promptly with context.Canceled and leave no
// worker goroutine behind.
func TestCancelMidTable3(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := NewFlow(ctx, SmallFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the clock selection so the cancel lands inside Table3 itself,
	// not in the shared MinClock bisection.
	if _, err := f.Clocks(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := f.Table3()
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the fan-out start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Table3 after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Table3 did not return promptly after cancellation")
	}
	// The pool drains before Wait returns, so the goroutine count must
	// come back down (allow the runtime a moment and a little slack).
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancel: %d before, %d after", before, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestExtWorkloads(t *testing.T) {
	f := smallFlow(t)
	r, err := f.ExtWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outcomes) != 3 {
		t.Fatalf("workloads %d want 3", len(r.Outcomes))
	}
	names := map[string]bool{}
	for _, oc := range r.Outcomes {
		names[oc.Name] = true
		if !oc.Met {
			t.Errorf("%s missed timing at %.2f ns", oc.Name, oc.Clock)
		}
		if oc.SigmaReduction <= 0 {
			t.Errorf("%s: no sigma reduction (%.3f)", oc.Name, oc.SigmaReduction)
		}
		if oc.Cells == 0 || oc.TopFamilies == "" {
			t.Errorf("%s: missing stats", oc.Name)
		}
	}
	for _, want := range []string{"mcu", "fir", "crc"} {
		if !names[want] {
			t.Errorf("workload %s missing", want)
		}
	}
	// The CRC must show an XNOR-flavoured mix (XOR-dominated logic).
	for _, oc := range r.Outcomes {
		if oc.Name == "crc" && !strings.Contains(oc.TopFamilies, "XNR") {
			t.Errorf("crc top families %q should feature XNR", oc.TopFamilies)
		}
	}
	if !strings.Contains(r.Render(), "generalizes") {
		t.Error("render incomplete")
	}
}

// TestSynthSharesResolvedProblem: two display keys whose windows resolve
// to the same limits at one clock share one synthesis — one Netlist,
// one Timing, one statistical analysis — yet each keeps its own header,
// with the caller's restriction set. A key whose limits differ runs its
// own synthesis.
func TestSynthSharesResolvedProblem(t *testing.T) {
	f := smallFlow(t)
	const clk = 8.0
	loose, _, err := f.Tune(core.CellLoadSlope, 1)
	if err != nil {
		t.Fatal(err)
	}
	if restrict.Resolve(loose, f.Cat).Digest() != restrict.Resolve(nil, f.Cat).Digest() {
		t.Fatal("precondition: load-slope bound 1 windows bind somewhere")
	}
	base, baseDS, err := f.BaselineStats(clk)
	if err != nil {
		t.Fatal(err)
	}
	tuned, tunedDS, err := f.TunedStats(core.CellLoadSlope, 1, clk)
	if err != nil {
		t.Fatal(err)
	}
	if tuned == base {
		t.Fatal("two display keys returned one header")
	}
	if tuned.Netlist != base.Netlist || tuned.Timing != base.Timing {
		t.Error("keys with equal resolved limits did not share their synthesis")
	}
	if tunedDS != baseDS {
		t.Error("keys sharing a synthesis ran two statistical analyses")
	}
	if base.Opts.Restrict != nil || tuned.Opts.Restrict != loose {
		t.Errorf("headers lost their own sets: base %p, tuned %p, want nil and %p",
			base.Opts.Restrict, tuned.Opts.Restrict, loose)
	}
	if again, _ := f.Tuned(core.CellLoadSlope, 1, clk); again != tuned {
		t.Error("display key not cached (pointer differs)")
	}

	tight, _, err := f.Tune(core.SigmaCeiling, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if restrict.Resolve(tight, f.Cat).Digest() == restrict.Resolve(nil, f.Cat).Digest() {
		t.Fatal("precondition: sigma-ceiling 0.01 windows bind nowhere")
	}
	other, err := f.Tuned(core.SigmaCeiling, 0.01, clk)
	if err != nil {
		t.Fatal(err)
	}
	if other.Netlist == base.Netlist {
		t.Error("a key with different limits shared the baseline's netlist")
	}
	// A key the flow never synthesized is analyzed under its own name.
	foreign, err := f.Stats("foreign/"+t.Name(), other)
	if err != nil {
		t.Fatal(err)
	}
	if foreign == baseDS {
		t.Error("a foreign key's analysis was served from the baseline's problem")
	}
}

// TestExtPowerPinned pins the power reports of the small flow's baseline
// and tuned designs at the medium clock bit for bit, as the map-based
// simulator computed them: index-addressed simulation may not move one
// float.
func TestExtPowerPinned(t *testing.T) {
	f := smallFlow(t)
	r, err := f.ExtPower()
	if err != nil {
		t.Fatal(err)
	}
	pins := []struct {
		name string
		got  float64
		want uint64
	}{
		{"clock", r.Clock, 0x400b333333333333},
		{"bound", r.Bound, 0x3f9eb851eb851eb8},
		{"base.Switching", r.Base.Switching, 0x3fc9485d7b1338e2},
		{"base.Internal", r.Base.Internal, 0x3fbdbff16ccf8bd1},
		{"base.Leakage", r.Base.Leakage, 0x3f853ec25d881ba3},
		{"base.SigmaInternal", r.Base.SigmaInternal, 0x3f382271099cbe9f},
		{"tuned.Switching", r.Tuned.Switching, 0x3fcc3b9923682017},
		{"tuned.Internal", r.Tuned.Internal, 0x3fc0781ddcd85ce9},
		{"tuned.Leakage", r.Tuned.Leakage, 0x3f8ca401518ebdf9},
		{"tuned.SigmaInternal", r.Tuned.SigmaInternal, 0x3f3769f83c058484},
	}
	for _, p := range pins {
		if got := math.Float64bits(p.got); got != p.want {
			t.Errorf("%s = %v (%#x), want %v (%#x)", p.name, p.got, got, math.Float64frombits(p.want), p.want)
		}
	}
}
