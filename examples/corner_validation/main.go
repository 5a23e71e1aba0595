// Corner validation: the Section VII.C experiments as an application.
// Extract short/medium/long worst paths from a synthesized design, run
// 200-sample Monte Carlo per process corner (Fig. 15) and decompose the
// total variation into its global and local components (Fig. 16).
package main

import (
	"context"
	"fmt"
	"log"

	"stdcelltune"
	"stdcelltune/internal/pathmc"
	"stdcelltune/internal/rtlgen"
)

func main() {
	log.SetFlags(0)
	cat := stdcelltune.NewCatalogue(stdcelltune.Typical)
	mcu, err := stdcelltune.NewMCUWith(rtlgen.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}
	res, err := stdcelltune.SynthesizeCtx(context.Background(), mcu, cat, stdcelltune.SynthesizeOptions{Clock: 3.0})
	if err != nil {
		log.Fatal(err)
	}
	var paths = res.Timing.WorstPaths()
	nonEmpty := paths[:0]
	for _, p := range paths {
		if p.Depth() > 0 {
			nonEmpty = append(nonEmpty, p)
		}
	}
	picked := pathmc.PickPaths(nonEmpty, 3, 12, 25)
	cfg := pathmc.DefaultConfig(7)

	fmt.Println("=== Fig 15: corner scaling (Monte Carlo N=200) ===")
	for _, p := range picked {
		pts, err := pathmc.CornerSweep(p, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("path depth %d:\n", p.Depth())
		for _, c := range pts {
			fmt.Printf("  %-8s mean %.4f ns (x%.2f)   sigma %.5f ns (x%.2f)\n",
				c.Corner, c.Stats.Mu, c.RelMean, c.Stats.Sigma, c.RelSigma)
		}
	}
	fmt.Println("mean and sigma move together across corners: tuning at TT transfers")

	fmt.Println("\n=== Fig 16: local-variation contribution ===")
	for _, p := range picked {
		d, err := pathmc.Decompose(p, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("path depth %-3d sigma total %.5f, local-only %.5f  ->  local share %.0f%%\n",
			p.Depth(), d.Total.Sigma, d.LocalOnly.Sigma, 100*d.LocalShare)
	}
	fmt.Println("local variation dominates short paths and decays with depth")
}
