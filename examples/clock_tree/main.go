// Clock tree: the paper's future-work question, answered as an
// application. Synthesize the MCU, place it, build a clock tree over the
// flip-flops, and compare the skew statistics of an unrestricted tree
// against one built under sigma-ceiling windows.
package main

import (
	"context"
	"fmt"
	"log"

	"stdcelltune"
	"stdcelltune/internal/cts"
	"stdcelltune/internal/place"
	"stdcelltune/internal/rtlgen"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	cat := stdcelltune.NewCatalogue(stdcelltune.Typical)
	stat, err := stdcelltune.CharacterizeCtx(ctx, cat, stdcelltune.CharacterizeOptions{Instances: 30, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	mcu, err := stdcelltune.NewMCUWith(rtlgen.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}
	res, err := stdcelltune.SynthesizeCtx(ctx, mcu, cat, stdcelltune.SynthesizeOptions{Clock: 4.0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized: %d cells, %d flip-flops\n",
		len(res.Netlist.Instances), len(res.Netlist.Sequentials()))

	p, err := place.Place(res.Netlist, place.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placed: %d rows, die %.0f x %.0f um, wirelength %.0f um\n\n",
		p.Rows, p.Width, p.Height(), p.TotalHPWL())

	baseTree, baseA, err := cts.BuildLegal(p, cat, stat, cts.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	windows, _, err := stdcelltune.TuneCtx(ctx, stat, stdcelltune.TuneOptions{Method: stdcelltune.SigmaCeiling, Bound: 0.001})
	if err != nil {
		log.Fatal(err)
	}
	cfg := cts.DefaultConfig()
	cfg.Windows = windows
	tunedTree, tunedA, err := cts.BuildLegal(p, cat, stat, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %-9s %-7s %-18s %-16s\n", "tree", "buffers", "levels", "nominal skew (ns)", "skew sigma (ns)")
	fmt.Printf("%-10s %-9d %-7d %-18.5f %-16.5f\n", "baseline",
		baseTree.BufferCount(), baseTree.Levels, baseA.NominalSkew(), baseA.WorstSkewSigma)
	fmt.Printf("%-10s %-9d %-7d %-18.5f %-16.5f\n", "tuned",
		tunedTree.BufferCount(), tunedTree.Levels, tunedA.NominalSkew(), tunedA.WorstSkewSigma)
	fmt.Printf("\nskew sigma reduction: %.0f%%\n",
		100*(baseA.WorstSkewSigma-tunedA.WorstSkewSigma)/baseA.WorstSkewSigma)
	fmt.Println("the library tuning transfers to the clock tree (paper Section VIII, future work)")
}
