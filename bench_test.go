// Benchmark harness: one benchmark per table and figure of the paper
// (see DESIGN.md §4). All benchmarks share one experiment flow, so every
// synthesis/tuning combination runs exactly once and later iterations
// measure the cached regeneration; the rendered table/series of each
// experiment is attached with b.Log (visible with -v).
//
// Set STC_BENCH=small to run against the scaled-down MCU and a smaller
// Monte-Carlo sample count.
package stdcelltune_test

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"

	"stdcelltune"
	"stdcelltune/internal/core"
	"stdcelltune/internal/dist"
	"stdcelltune/internal/exp"
	"stdcelltune/internal/liberty"
	"stdcelltune/internal/lut"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/pathmc"
	"stdcelltune/internal/power"
	"stdcelltune/internal/query"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/synth"
	"stdcelltune/internal/variation"
)

var (
	benchOnce sync.Once
	benchFlow *exp.Flow
	benchErr  error
)

func flow(b *testing.B) *exp.Flow {
	b.Helper()
	benchOnce.Do(func() {
		cfg := exp.DefaultFlowConfig()
		if os.Getenv("STC_BENCH") == "small" {
			cfg = exp.SmallFlowConfig()
		}
		benchFlow, benchErr = exp.NewFlow(context.Background(), cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchFlow
}

func logOnce(b *testing.B, i int, text string) {
	if i == 0 {
		b.Log("\n" + text)
	}
}

// ----------------------------------------------------------- tables

func BenchmarkTable1ClockPeriods(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Table1()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkTable2ConstraintParams(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		logOnce(b, i, f.Table2().Render())
	}
}

func BenchmarkTable3BestBounds(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Table3()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

// ----------------------------------------------------------- figures

func BenchmarkFig1VariabilityMetric(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		logOnce(b, i, f.Fig1().Render())
	}
}

func BenchmarkFig2StatLibBuild(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkFig3Bilinear(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkFig4InverterSurfaces(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkFig5DriveSixSurfaces(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkFig6LargestRectangle(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkFig7AllSurfaces(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkFig8PeriodAreaCurve(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkFig9CellUseHistograms(b *testing.B) {
	f := flow(b)
	clocks, err := f.Clocks()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		hi, err := f.Fig9(clocks.HighPerf)
		if err != nil {
			b.Fatal(err)
		}
		lo, err := f.Fig9(clocks.Low)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, hi.Render()+"\n"+lo.Render())
	}
}

func BenchmarkFig10SigmaReduction(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkFig11CeilingTradeoff(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkFig12PathDepths(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkFig13SigmaVsDepth(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkFig14PathDelaySpread(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig14()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkFig15CornerScaling(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig15()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

func BenchmarkFig16LocalContribution(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.Fig16()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

// BenchmarkExtPlacementClockTree regenerates the extension experiment:
// placement wire loads plus baseline-vs-tuned clock tree synthesis (the
// paper's future-work section).
func BenchmarkExtPlacementClockTree(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.ExtPNR()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

// BenchmarkExtPowerCost regenerates the power-cost extension: baseline
// vs tuned switching/internal/leakage power and power sigma.
func BenchmarkExtPowerCost(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.ExtPower()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

// BenchmarkExtYieldReclaim regenerates the yield/uncertainty-reclaim
// extension (the paper's motivation paragraph, quantified).
func BenchmarkExtYieldReclaim(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.ExtYield()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

// BenchmarkExtCornerTransfer regenerates the PVT-corner transfer
// extension: the same relative sigma reduction at fast/typical/slow.
func BenchmarkExtCornerTransfer(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.ExtCorners()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

// BenchmarkExtWorkloadGeneralization regenerates the cross-workload
// extension: MCU vs FIR vs CRC under the same tuning.
func BenchmarkExtWorkloadGeneralization(b *testing.B) {
	f := flow(b)
	for i := 0; i < b.N; i++ {
		r, err := f.ExtWorkloads()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, r.Render())
	}
}

// --------------------------------------------------------- ablations
// The DESIGN.md §5 design-choice studies.

// Ablation 1: the paper's exhaustive largest-rectangle scan (Algorithm
// 1) against the histogram-stack implementation.
func BenchmarkAblationRectanglePaper(b *testing.B) {
	mask := rectangleMask(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mask.LargestRectangle()
	}
}

// BenchmarkAblationRectangleFast is the optimized counterpart.
func BenchmarkAblationRectangleFast(b *testing.B) {
	mask := rectangleMask(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mask.LargestRectangleFast()
	}
}

func rectangleMask(b *testing.B) *lut.Binary {
	f := flow(b)
	cell := f.Stat.Cell("NR4_6")
	maxEq, err := cell.Pins[0].MaxSigmaTable()
	if err != nil {
		b.Fatal(err)
	}
	return maxEq.ThresholdLE(0.02)
}

// Ablation 2: path convolution with rho=0 (eq. 10) vs correlated
// (eq. 9).
func BenchmarkAblationConvolutionRho(b *testing.B) {
	cells := make([]dist.Normal, 57)
	for i := range cells {
		cells[i] = dist.Normal{Mu: 0.04, Sigma: 0.002}
	}
	for i := 0; i < b.N; i++ {
		p0, err := dist.ConvolvePathCorrelated(cells, 0)
		if err != nil {
			b.Fatal(err)
		}
		p5, err := dist.ConvolvePathCorrelated(cells, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("57-cell path sigma: rho=0 %.5f ns, rho=0.5 %.5f ns", p0.Sigma, p5.Sigma)
		}
	}
}

// Ablation 3: statistical library accuracy versus Monte-Carlo sample
// count (the paper's future-work note).
func BenchmarkAblationStatlibSamples(b *testing.B) {
	cat := stdcell.NewCatalogue(stdcell.Typical)
	for i := 0; i < b.N; i++ {
		for _, n := range []int{10, 30, 50} {
			libs := variation.Instances(cat, variation.Config{N: n, Seed: 3})
			sl, err := statlib.Build("abl", libs)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				spec := cat.Spec("NR2_2")
				arc := sl.Cell("NR2_2").Pins[0].Arcs[0]
				want := spec.Sigma(spec.LoadAxis()[3], stdcell.SlewAxis[3], stdcell.Typical) * 1.05
				got := arc.SigmaRise.Values[3][3]
				b.Logf("N=%d: sigma estimate %.5f vs analytic %.5f", n, got, want)
			}
		}
	}
}

// Ablation 4: the sigma metric against the coefficient-of-variation
// metric on the Fig. 1 pair.
func BenchmarkAblationMetricChoice(b *testing.B) {
	left := dist.Normal{Mu: 0.5, Sigma: 0.01}
	right := dist.Normal{Mu: 5, Sigma: 0.1}
	for i := 0; i < b.N; i++ {
		if left.Variability() != right.Variability() {
			b.Fatal("premise broken")
		}
		if i == 0 {
			b.Logf("CoV identical (%.3f); sigma separates: %.3f vs %.3f",
				left.Variability(), left.Sigma, right.Sigma)
		}
	}
}

// Ablation 5: strength clustering vs per-cell thresholds at the same
// bound (built into the method set; timed here head-to-head).
func BenchmarkAblationClusteringMode(b *testing.B) {
	f := flow(b)
	tuner := core.NewTuner(f.Stat)
	for i := 0; i < b.N; i++ {
		_, repS, err := tuner.Tune(core.ParamsFor(core.CellStrengthLoadSlope, 0.03))
		if err != nil {
			b.Fatal(err)
		}
		_, repC, err := tuner.Tune(core.ParamsFor(core.CellLoadSlope, 0.03))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("clusters: strength=%d, per-cell=%d", len(repS.Clusters), len(repC.Clusters))
		}
	}
}

// BenchmarkAnalyzeDesign times the statistical-timing hot path on its
// own: one full stattime.Analyze over the baseline synthesis at the
// relaxed clock (every worst path re-analyzed per iteration, no flow
// cache in the loop). This is the headline number the benchmark JSON
// tracks.
func BenchmarkAnalyzeDesign(b *testing.B) {
	f := flow(b)
	clocks, err := f.Clocks()
	if err != nil {
		b.Fatal(err)
	}
	res, err := f.Baseline(clocks.Low)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stattime.Analyze(res.Timing, f.Stat, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterize times the facade's Monte-Carlo characterization
// at the paper's N = 50 on the typical corner: the delay-sample matrix
// generated on the worker pool, then the fold. It runs at the same scale
// whatever STC_BENCH says. BENCH_PR7.json gates its allocs_per_op, which
// catches a return to building Liberty instances (about 3.4M allocations
// per characterization, against about 49k for the sample matrix).
func BenchmarkCharacterize(b *testing.B) {
	cat := stdcelltune.NewCatalogue(stdcelltune.Typical)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stdcelltune.CharacterizeCtx(context.Background(), cat, stdcelltune.CharacterizeOptions{Instances: 50, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesize times one full map+optimize of the MCU at the
// medium clock with no restrictions — the synthesis unit the experiment
// sweeps pay ~94% of their wall time in (BENCH_PR7.json tracks it). The
// flow cache is deliberately bypassed: every iteration maps and sizes
// from scratch.
func BenchmarkSynthesize(b *testing.B) {
	f := flow(b)
	clocks, err := f.Clocks()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize("mcu", f.MCU.Net, f.Cat, synth.DefaultOptions(clocks.Medium)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeRestricted is the restricted counterpart: the same
// map+optimize under binding sigma-ceiling windows, which exercises the
// legality-repair and repeater-insertion paths on top of sizing.
func BenchmarkSynthesizeRestricted(b *testing.B) {
	f := flow(b)
	clocks, err := f.Clocks()
	if err != nil {
		b.Fatal(err)
	}
	set, _, err := f.Tune(core.SigmaCeiling, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := synth.DefaultOptions(clocks.Medium)
		opts.Restrict = set
		if _, err := synth.Synthesize("mcu", f.MCU.Net, f.Cat, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWiden times one window-widening what-if (factor 1.5) on the
// MCU synthesized under sigma-ceiling windows. The store's what-if
// session is built by the first op and reused by every later one, so
// an op is one single-instance downsize probe per sizable instance, the
// final snapshot and statistical pass, and the restore that resizes
// the accepted downsizes back and re-times them. Each probe costs its
// cone plus the endpoints; BENCH_PR7.json gates its allocs_per_op,
// which catches a return to a snapshot or a "cell/pin" window key per
// probe, or to a design clone and engine per what-if.
func BenchmarkWiden(b *testing.B) {
	f := flow(b)
	clocks, err := f.Clocks()
	if err != nil {
		b.Fatal(err)
	}
	set, _, err := f.Tune(core.SigmaCeiling, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	res, err := f.Tuned(core.SigmaCeiling, 0.02, clocks.Medium)
	if err != nil {
		b.Fatal(err)
	}
	s, err := query.Build(query.Source{
		Library: "bench", Stat: f.Stat, Windows: set,
		Netlist: res.Netlist, STA: sta.DefaultConfig(clocks.Medium),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Widen(1.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstitute times one substitution what-if, the served
// what-if workload's majority op: on the MCU synthesized under
// sigma-ceiling windows, swap every instance of the most used cell for
// the next drive up. The first op builds the store's what-if session
// (clone and baseline pass); every op then makes one batched
// incremental update, the statistical timing, and the restore's
// resize-back and incremental update.
func BenchmarkSubstitute(b *testing.B) {
	f := flow(b)
	clocks, err := f.Clocks()
	if err != nil {
		b.Fatal(err)
	}
	set, _, err := f.Tune(core.SigmaCeiling, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	res, err := f.Tuned(core.SigmaCeiling, 0.02, clocks.Medium)
	if err != nil {
		b.Fatal(err)
	}
	from, to := mostUsedUpsize(b, res.Netlist)
	s, err := query.Build(query.Source{
		Library: "bench", Stat: f.Stat, Windows: set,
		Netlist: res.Netlist, STA: sta.DefaultConfig(clocks.Medium),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Substitute(from, to); err != nil {
			b.Fatal(err)
		}
	}
}

// mostUsedUpsize returns the design's most used cell (ties by name)
// that has a larger drive in its family, and that next drive up.
func mostUsedUpsize(b *testing.B, nl *netlist.Netlist) (from, to string) {
	b.Helper()
	best := 0
	for name, n := range nl.CellUse() {
		if n < best || n == best && name > from {
			continue
		}
		if up := nl.Cat.Step(nl.Cat.Spec(name), 1); up != nil {
			from, to, best = name, up.Name, n
		}
	}
	if from == "" {
		b.Fatal("no upsizable cell in the design")
	}
	return from, to
}

// BenchmarkNetlistClone copies the MCU synthesized under sigma-ceiling
// windows, the first step of every what-if. BENCH_PR7.json gates its
// allocs_per_op, which catches a return to per-instance pin maps or
// per-object allocation.
func BenchmarkNetlistClone(b *testing.B) {
	f := flow(b)
	clocks, err := f.Clocks()
	if err != nil {
		b.Fatal(err)
	}
	res, err := f.Tuned(core.SigmaCeiling, 0.02, clocks.Medium)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = res.Netlist.Clone()
	}
}

// cloneSink keeps BenchmarkNetlistClone's result live.
var cloneSink *netlist.Netlist

// The artifact codec: the statistical library's Liberty text, written
// and read back, and a query store rebuilt from artifact text. All three
// use the flow's statistical library; the store also reads the MCU
// synthesized under sigma-ceiling windows. BENCH_PR7.json gates their
// allocs_per_op and bytes_per_op, which catch a return to fmt-based
// printing, materialized token slices or per-row string splitting.

// BenchmarkWriteLiberty renders the statistical library as Liberty
// text, the service's statlib.lib: the Liberty model, then the text.
func BenchmarkWriteLiberty(b *testing.B) {
	f := flow(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, err := liberty.Append(nil, f.Stat.ToLiberty())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(text)))
	}
}

// BenchmarkParseLiberty parses that text back into a Liberty library.
func BenchmarkParseLiberty(b *testing.B) {
	text, err := liberty.WriteString(flow(b).Stat.ToLiberty())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := liberty.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildQueryStore rebuilds a query store from artifact text
// the way the service does after a store-cache miss: parse the
// statistical library and rebuild its statistics while the netlist
// parses on a second goroutine, then build the columns (one STA and one
// statistical-timing pass).
// Ledger item "query store build".
func BenchmarkBuildQueryStore(b *testing.B) {
	f := flow(b)
	clocks, err := f.Clocks()
	if err != nil {
		b.Fatal(err)
	}
	set, _, err := f.Tune(core.SigmaCeiling, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	res, err := f.Tuned(core.SigmaCeiling, 0.02, clocks.Medium)
	if err != nil {
		b.Fatal(err)
	}
	libText, err := liberty.WriteString(f.Stat.ToLiberty())
	if err != nil {
		b.Fatal(err)
	}
	var nb strings.Builder
	if err := netlist.WriteVerilog(&nb, res.Netlist); err != nil {
		b.Fatal(err)
	}
	verilog := nb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var nl *netlist.Netlist
		var nlErr error
		nlDone := make(chan struct{})
		go func() {
			defer close(nlDone)
			nl, nlErr = netlist.ParseVerilog(verilog, f.Cat)
		}()
		lib, err := liberty.Parse(libText)
		if err != nil {
			b.Fatal(err)
		}
		stat, err := statlib.FromLiberty(lib)
		if err != nil {
			b.Fatal(err)
		}
		<-nlDone
		if nlErr != nil {
			b.Fatal(nlErr)
		}
		if _, err := query.Build(query.Source{
			Library: "bench", Stat: stat, Windows: set,
			Netlist: nl, STA: sta.DefaultConfig(clocks.Medium),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerEstimate times one activity-based power estimate of the
// MCU synthesized at the medium clock, unrestricted: 256 cycles of
// random stimulus through the netlist simulator, then the per-net
// sums. BENCH_PR7.json gates its allocs_per_op, which catches a return
// to per-gate maps in the simulator.
func BenchmarkPowerEstimate(b *testing.B) {
	f := flow(b)
	clocks, err := f.Clocks()
	if err != nil {
		b.Fatal(err)
	}
	res, err := f.Baseline(clocks.Medium)
	if err != nil {
		b.Fatal(err)
	}
	cfg := power.DefaultConfig(clocks.Medium)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := power.Estimate(res.Netlist, res.Timing, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks for the hot kernels.

func BenchmarkLUTBilinearLookup(b *testing.B) {
	f := flow(b)
	t := f.Stat.Cell("ND2_4").Pins[0].Arcs[0].SigmaRise
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.Lookup(0.01, 0.07)
	}
}

func BenchmarkPathMonteCarlo(b *testing.B) {
	f := flow(b)
	clocks, err := f.Clocks()
	if err != nil {
		b.Fatal(err)
	}
	res, err := f.Baseline(clocks.Low)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := res.Timing.CriticalPath()
	if err != nil {
		b.Fatal(err)
	}
	cfg := pathmc.DefaultConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pathmc.Simulate(cp, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
