// Command pnr runs the post-synthesis extension flow: place the
// synthesized microcontroller, re-time it with wirelength-derived wire
// loads, and synthesize a clock tree — optionally under a tuning
// method's windows — reporting wirelength, post-placement timing and
// clock skew statistics.
//
// Usage:
//
//	pnr -clock 6.0
//	pnr -clock 6.0 -ceiling 0.001
//	pnr -clock 4.0 -small -fanout 8
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"stdcelltune/internal/core"
	"stdcelltune/internal/cts"
	"stdcelltune/internal/place"
	"stdcelltune/internal/rtlgen"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/synth"
	"stdcelltune/internal/variation"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pnr: ")
	clock := flag.Float64("clock", 6.0, "clock period (ns)")
	ceiling := flag.Float64("ceiling", 0, "sigma-ceiling bound for a tuned clock tree (0 = baseline only)")
	samples := flag.Int("samples", 50, "Monte-Carlo instances")
	seed := flag.Int64("seed", 1, "seed")
	small := flag.Bool("small", false, "use the scaled-down MCU")
	fanout := flag.Int("fanout", 12, "clock tree max fanout")
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
	res, err := synth.Synthesize("mcu", mcu.Net, cat, synth.DefaultOptions(*clock))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesis: met=%v area=%.0f um2, %d instances\n", res.Met, res.Area(), len(res.Netlist.Instances))

	p, err := place.Place(res.Netlist, place.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placement: %d rows, die %.0f x %.0f um, wirelength %.0f um\n",
		p.Rows, p.Width, p.Height(), p.TotalHPWL())

	staCfg := res.Opts.STA
	staCfg.NetWireCap = p.WireCaps()
	post, err := sta.Analyze(res.Netlist, staCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-placement timing: WNS %.3f ns (was %.3f with the fanout model)\n",
		post.WNS(), res.Timing.WNS())

	ctsCfg := cts.DefaultConfig()
	ctsCfg.MaxFanout = *fanout
	tree, a, err := cts.BuildLegal(p, cat, stat, ctsCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clock tree (baseline): %d buffers, %d levels, insertion %.3f..%.3f ns, skew %.4f ns, skew sigma %.5f ns\n",
		tree.BufferCount(), tree.Levels, a.InsertionMin, a.InsertionMax, a.NominalSkew(), a.WorstSkewSigma)

	if *ceiling > 0 {
		set, _, err := core.NewTuner(stat).Tune(core.ParamsFor(core.SigmaCeiling, *ceiling))
		if err != nil {
			log.Fatal(err)
		}
		tunedCfg := ctsCfg
		tunedCfg.Windows = set
		ttree, ta, err := cts.BuildLegal(p, cat, stat, tunedCfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("clock tree (ceiling %g): %d buffers, %d levels, skew %.4f ns, skew sigma %.5f ns (%.0f%% lower)\n",
			*ceiling, ttree.BufferCount(), ttree.Levels, ta.NominalSkew(), ta.WorstSkewSigma,
			100*(a.WorstSkewSigma-ta.WorstSkewSigma)/a.WorstSkewSigma)
	}
}
