// Command experiments regenerates every table and figure of the paper's
// evaluation section (Tables 1-3, Figs. 1-16) and prints them; with
// -out it also writes one text file per experiment into a directory.
//
// Usage:
//
//	experiments                 # paper-scale flow (several minutes)
//	experiments -small          # scaled-down quick run
//	experiments -out results/
//	experiments -seed 7         # reseed the Monte-Carlo characterization
//	experiments -faultrate 0.05 # corrupt 5% of LUT entries (robustness demo)
//	experiments -benchjson BENCH_PR7.json  # perf phase report + JSON
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof
//	experiments -trace trace.json          # Chrome trace-event JSON + run manifest
//	experiments -debugaddr localhost:6060  # live expvar/pprof/obs endpoints
//	experiments -loglevel debug            # pipeline slog output on stderr
//
// A run with -trace or -out also writes a run manifest
// (stdcelltune-manifest/1 JSON: seeds, flags, fault config, toolchain,
// wall time, failures) next to the trace file or into the -out
// directory, so every set of results is self-describing.
//
// Ctrl-C cancels the run promptly (the flow context is honoured between
// synthesis/tuning units). A failing experiment no longer aborts the
// rest of the suite: its error is reported, the remaining experiments
// run, and the process exits non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"stdcelltune/internal/exp"
	"stdcelltune/internal/lut"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/obs/debughttp"
	"stdcelltune/internal/perfstat"
	"stdcelltune/internal/robust"
	"stdcelltune/internal/robust/faultinject"
	"stdcelltune/internal/sta"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	small := flag.Bool("small", false, "scaled-down MCU and fewer MC samples (quick)")
	out := flag.String("out", "", "directory to write per-experiment text files")
	only := flag.String("only", "", "run a single experiment (e.g. table1, fig10)")
	seed := flag.Int64("seed", 0, "Monte-Carlo seed (0 keeps the paper's default)")
	faultRate := flag.Float64("faultrate", 0, "fraction of LUT entries to corrupt before folding (0 disables)")
	faultSeed := flag.Int64("faultseed", 1, "seed of the fault-injection pattern")
	benchJSON := flag.String("benchjson", "", "print the per-phase perf report and merge phase timings into this BENCH JSON file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file (chrome://tracing) of the run, plus a <file>.manifest.json run manifest")
	debugAddr := flag.String("debugaddr", "", "serve /debug/vars (expvar), /debug/pprof and /debug/obs on this address (e.g. localhost:6060)")
	logLevel := flag.String("loglevel", "", "route pipeline slog output to stderr at this level (debug|info|warn|error; empty keeps logging off)")
	flag.Parse()

	if lvl, ok := obs.ParseLogLevel(*logLevel); ok {
		obs.InitLog(os.Stderr, lvl)
	} else if *logLevel != "" {
		log.Fatalf("unknown -loglevel %q (want debug|info|warn|error)", *logLevel)
	}

	// Tracing and the debug server share the observation switches: the
	// span tracer, the pool latency histograms and the LUT hint-hit
	// counters all turn on together. None of this runs for the
	// zero-flag pipeline, which stays byte-identical and clock-free.
	var tracer *obs.Tracer
	if *traceOut != "" || *debugAddr != "" {
		tracer = obs.NewTracer(nil)
		obs.SetTimingEnabled(true)
		lut.SetHintStatsEnabled(true)
		obs.Default().GaugeFunc("lut.hint_hit_ratio", lut.HintHitRatio)
		obs.Default().GaugeFunc("sta.incremental_ratio", sta.IncrementalRatio)
	}
	if *debugAddr != "" {
		_, addr, err := debughttp.Serve(*debugAddr, debughttp.DebugState{
			Tracer: tracer, Metrics: obs.Default(),
			Extra: map[string]any{"args": os.Args[1:]},
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug server on http://%s/debug/obs", addr)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if tracer != nil {
		ctx = obs.WithTracer(ctx, tracer)
	}

	cfg := exp.DefaultFlowConfig()
	if *small {
		cfg = exp.SmallFlowConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *faultRate > 0 {
		cfg.Fault = faultinject.Config{Rate: *faultRate, Seed: *faultSeed}
	}
	start := time.Now()
	var flow *exp.Flow
	type renderable interface{ Render() string }
	experiments := []struct {
		name string
		run  func() (renderable, error)
	}{
		{"fig1", func() (renderable, error) { return flow.Fig1(), nil }},
		{"fig2", func() (renderable, error) { return flow.Fig2() }},
		{"fig3", func() (renderable, error) { return flow.Fig3() }},
		{"fig4", func() (renderable, error) { return flow.Fig4() }},
		{"fig5", func() (renderable, error) { return flow.Fig5() }},
		{"fig6", func() (renderable, error) { return flow.Fig6() }},
		{"fig7", func() (renderable, error) { return flow.Fig7() }},
		{"table1", func() (renderable, error) { return flow.Table1() }},
		{"table2", func() (renderable, error) { return flow.Table2(), nil }},
		{"fig8", func() (renderable, error) { return flow.Fig8() }},
		{"table3", func() (renderable, error) { return flow.Table3() }},
		{"fig10", func() (renderable, error) { return flow.Fig10() }},
		{"fig11", func() (renderable, error) { return flow.Fig11() }},
		{"fig9_highperf", func() (renderable, error) {
			clocks, err := flow.Clocks()
			if err != nil {
				return nil, err
			}
			return flow.Fig9(clocks.HighPerf)
		}},
		{"fig9_low", func() (renderable, error) {
			clocks, err := flow.Clocks()
			if err != nil {
				return nil, err
			}
			return flow.Fig9(clocks.Low)
		}},
		{"fig12", func() (renderable, error) { return flow.Fig12() }},
		{"fig13", func() (renderable, error) { return flow.Fig13() }},
		{"fig14", func() (renderable, error) { return flow.Fig14() }},
		{"fig15", func() (renderable, error) { return flow.Fig15() }},
		{"fig16", func() (renderable, error) { return flow.Fig16() }},
		{"ext_pnr", func() (renderable, error) { return flow.ExtPNR() }},
		{"ext_power", func() (renderable, error) { return flow.ExtPower() }},
		{"ext_yield", func() (renderable, error) { return flow.ExtYield() }},
		{"ext_corners", func() (renderable, error) { return flow.ExtCorners() }},
		{"ext_workloads", func() (renderable, error) { return flow.ExtWorkloads() }},
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	if *only != "" {
		known := false
		var names []string
		for _, e := range experiments {
			names = append(names, e.name)
			known = known || e.name == *only
		}
		// Validated before the (possibly minutes-long) flow build so a
		// typo fails in milliseconds, not after characterization.
		if !known {
			log.Fatalf("unknown experiment %q; valid names: %v", *only, names)
		}
	}

	flow, err := exp.NewFlow(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flow ready: %d cells, %d MC samples, MCU %d gate nodes (%.1fs)\n",
		len(flow.Stat.Cells), flow.Cfg.Samples, flow.MCU.Net.GateCount(), time.Since(start).Seconds())
	if cfg.Fault.Rate > 0 {
		fmt.Printf("%s\n", flow.Injected)
	}
	if flow.Quarantine.Len() > 0 {
		fmt.Printf("%s", flow.Quarantine.Render())
	}
	fmt.Println()

	var failed []string
	for _, e := range experiments {
		if *only != "" && e.name != *only {
			continue
		}
		if ctx.Err() != nil {
			log.Printf("cancelled before %s: %v", e.name, ctx.Err())
			failed = append(failed, "(cancelled)")
			break
		}
		t0 := time.Now()
		var r renderable
		// One span per experiment names the driver that owns the wall
		// time outside the phase spans. Its own category: trace readers
		// count every "phase" span as pipeline work.
		span := tracer.Start(e.name, "experiment")
		// robust.Safe: a panicking driver fails its own experiment (with
		// the recovered stack in the error), never the whole suite.
		err := robust.Safe(func() error {
			var runErr error
			r, runErr = e.run()
			return runErr
		})
		span.End()
		if err != nil {
			if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
				log.Printf("%s: cancelled: %v", e.name, err)
				failed = append(failed, "(cancelled)")
				break
			}
			// Degrade, don't abort: report and keep the suite running so
			// one broken experiment cannot hide the other twenty-four.
			log.Printf("%s: FAILED: %v", e.name, err)
			failed = append(failed, e.name)
			continue
		}
		text := r.Render()
		fmt.Printf("--- %s (%.1fs) ---\n%s\n", e.name, time.Since(t0).Seconds(), text)
		if *out != "" {
			path := filepath.Join(*out, e.name+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("total %.1fs\n", time.Since(start).Seconds())
	if *traceOut != "" {
		if err := tracer.WriteChromeTraceFile(*traceOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (%d spans)\n", *traceOut, tracer.EventCount())
	}
	if *traceOut != "" || *out != "" {
		m := obs.NewManifest()
		m.Args = os.Args[1:]
		m.SpecDigest = cfg.Digest()
		m.Samples = cfg.Samples
		m.Seed = cfg.Seed
		m.Corner = cfg.Corner.Name()
		m.Small = *small
		m.FaultRate = cfg.Fault.Rate
		m.FaultSeed = cfg.Fault.Seed
		m.WallSeconds = time.Since(start).Seconds()
		for _, e := range experiments {
			if *only == "" || e.name == *only {
				m.Experiments = append(m.Experiments, e.name)
			}
		}
		m.Failed = failed
		m.Quarantined = flow.Quarantine.Len()
		m.TraceFile = *traceOut
		m.BenchFile = *benchJSON
		m.OutDir = *out
		m.Metrics = obs.Default().Snapshot()
		m.SynthOutcomes = flow.SynthOutcomes()
		// The manifest lands next to what it describes: inside -out when
		// results are being written, else alongside the trace file.
		mpath := manifestPath(*out, *traceOut)
		if err := m.Write(mpath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run manifest written to %s\n", mpath)
	}
	if *benchJSON != "" {
		fmt.Printf("--- perf phases ---\n%s", flow.Perf.Report())
		bf, err := perfstat.ReadBenchFile(*benchJSON)
		if err != nil {
			log.Fatal(err)
		}
		bf.Phases = flow.Perf.Phases()
		if err := bf.Write(*benchJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("phase timings merged into %s\n", *benchJSON)
	}
	if *memProfile != "" {
		mf, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // flush recently-freed objects so the heap profile is current
		if err := pprof.WriteHeapProfile(mf); err != nil {
			log.Fatal(err)
		}
		mf.Close()
	}
	if len(failed) > 0 {
		// log.Fatalf skips deferred functions, so close the CPU profile
		// by hand to keep it readable on a failing run.
		pprof.StopCPUProfile()
		log.Fatalf("%d experiment(s) failed: %v", len(failed), failed)
	}
}

// manifestPath places the run manifest inside the -out directory when
// one is written, else next to the trace file (trace.json ->
// trace.manifest.json).
func manifestPath(outDir, traceFile string) string {
	if outDir != "" {
		return filepath.Join(outDir, "manifest.json")
	}
	base := strings.TrimSuffix(traceFile, filepath.Ext(traceFile))
	return base + ".manifest.json"
}
