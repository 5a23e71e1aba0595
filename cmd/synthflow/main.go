// Command synthflow synthesizes the evaluation microcontroller at a
// clock period, optionally under a tuning method's restriction windows,
// and reports timing, area, design sigma and the cell-use histogram —
// one cell of the paper's experiment matrix on demand.
//
// Usage:
//
//	synthflow -clock 5.0
//	synthflow -clock 5.0 -method ceiling -bound 0.02
//	synthflow -clock 5.0 -verilog out.v
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"stdcelltune/internal/core"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/power"
	"stdcelltune/internal/report"
	"stdcelltune/internal/rtlgen"
	"stdcelltune/internal/sdc"
	"stdcelltune/internal/sdf"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/synth"
	"stdcelltune/internal/variation"
)

var methodNames = map[string]core.Method{
	"strength-load": core.CellStrengthLoadSlope,
	"strength-slew": core.CellStrengthSlewSlope,
	"cell-load":     core.CellLoadSlope,
	"cell-slew":     core.CellSlewSlope,
	"ceiling":       core.SigmaCeiling,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("synthflow: ")
	clock := flag.Float64("clock", 5.0, "clock period (ns)")
	method := flag.String("method", "", "tuning method (empty = unrestricted baseline)")
	bound := flag.Float64("bound", 0.02, "tuning bound")
	samples := flag.Int("samples", 50, "Monte-Carlo instances for the statistical library")
	seed := flag.Int64("seed", 1, "seed")
	small := flag.Bool("small", false, "use the scaled-down MCU")
	verilogOut := flag.String("verilog", "", "write the mapped netlist as structural Verilog")
	histo := flag.Bool("cells", false, "print the cell-use histogram")
	pwr := flag.Bool("power", false, "estimate switching/internal/leakage power")
	rpt := flag.Bool("report", false, "print the critical-path timing report")
	sdcPath := flag.String("sdc", "", "read clock/uncertainty/IO constraints from an SDC file (overrides -clock)")
	sdfOut := flag.String("sdf", "", "write SDF delay annotation (sigma-derated max corner)")
	flag.Parse()

	cat := stdcell.NewCatalogue(stdcell.Typical)
	rows, err := variation.SamplesCtx(context.Background(), cat, variation.Config{N: *samples, Seed: *seed, CharNoise: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	stat, err := statlib.FoldSamples("stat", cat.Layout(), rows)
	if err != nil {
		log.Fatal(err)
	}
	cfg := rtlgen.DefaultConfig()
	if *small {
		cfg = rtlgen.SmallConfig()
	}
	mcu, err := rtlgen.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	opts := synth.DefaultOptions(*clock)
	if *sdcPath != "" {
		data, err := os.ReadFile(*sdcPath)
		if err != nil {
			log.Fatal(err)
		}
		cons, err := sdc.Parse(string(data))
		if err != nil {
			log.Fatal(err)
		}
		*clock = cons.ClockPeriod
		opts = synth.DefaultOptions(cons.ClockPeriod)
		opts.STA = cons.STAConfig()
		fmt.Printf("constraints: clock %q period %.3f ns, uncertainty %.3f ns\n",
			cons.ClockName, cons.ClockPeriod, opts.STA.Uncertainty)
	}
	if *method != "" {
		m, ok := methodNames[*method]
		if !ok {
			log.Fatalf("unknown method %q", *method)
		}
		set, rep, err := core.NewTuner(stat).Tune(core.ParamsFor(m, *bound))
		if err != nil {
			log.Fatal(err)
		}
		opts.Restrict = set
		fmt.Printf("tuning: %s bound %g (%d windows, %d excluded pins)\n",
			m, *bound, set.Len(), rep.ExcludedPins())
	}

	res, err := synth.Synthesize("mcu", mcu.Net, cat, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clock %.2f ns: met=%v WNS=%.3f ns, area=%.0f um2, instances=%d\n",
		*clock, res.Met, res.Timing.WNS(), res.Area(), len(res.Netlist.Instances))
	fmt.Printf("optimization: %d iterations, %d upsized, %d downsized, %d repeater pairs\n",
		res.Iterations, res.Upsized, res.Downsized, res.Buffered)

	ds, err := stattime.Analyze(res.Timing, stat, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design sigma %.4f ns over %d paths (max depth %d), worst mu+3sigma %.3f ns\n",
		ds.Design.Sigma, len(ds.Paths), ds.MaxDepth(), ds.WorstMeanPlus3Sigma())

	if *rpt {
		fmt.Print(res.Timing.ReportTiming())
	}
	if *pwr {
		rep, err := power.Estimate(res.Netlist, res.Timing, power.DefaultConfig(*clock))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("power: switching %.3f + internal %.3f + leakage %.3f = %.3f mW (internal sigma %.4f, activity %.3f)\n",
			rep.Switching, rep.Internal, rep.Leakage, rep.Total(), rep.SigmaInternal, rep.MeanActivity)
	}
	if *histo {
		use := res.Netlist.CellUse()
		names := make([]string, 0, len(use))
		for n := range use {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return use[names[i]] > use[names[j]] })
		tb := &report.Table{Title: "cell use", Header: []string{"cell", "count"}}
		for _, n := range names {
			tb.AddRow(n, use[n])
		}
		fmt.Print(tb.Render())
	}
	if *sdfOut != "" {
		f, err := os.Create(*sdfOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := sdf.Write(f, res.Netlist, res.Timing, sdf.Options{DesignName: "mcu", Stat: stat}); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *sdfOut)
	}
	if *verilogOut != "" {
		f, err := os.Create(*verilogOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := netlist.WriteVerilog(f, res.Netlist); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *verilogOut)
	}
}
