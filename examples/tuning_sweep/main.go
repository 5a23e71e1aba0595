// Tuning sweep: the Fig. 11 experiment as an application — sweep the
// sigma-ceiling bound at one clock and print the sigma-reduction versus
// area-increase trade-off, demonstrating how a designer dials robustness
// against cost.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"stdcelltune"
	"stdcelltune/internal/rtlgen"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	cat := stdcelltune.NewCatalogue(stdcelltune.Typical)
	stat, err := stdcelltune.CharacterizeCtx(ctx, cat, stdcelltune.CharacterizeOptions{Instances: 50, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	// The scaled-down MCU keeps the sweep quick; swap for NewMCU() to
	// run at paper scale.
	mcu, err := stdcelltune.NewMCUWith(rtlgen.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}
	const clock = 3.0
	base, err := stdcelltune.SynthesizeCtx(ctx, mcu, cat, stdcelltune.SynthesizeOptions{Clock: clock})
	if err != nil {
		log.Fatal(err)
	}
	bs, err := stdcelltune.AnalyzeVariationCtx(ctx, base, stat, stdcelltune.AnalyzeVariationOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline @ %.1f ns: sigma %.4f ns, area %.0f um2\n\n", clock, bs.Design.Sigma, base.Area())
	fmt.Printf("%-10s %-6s %-12s %-12s %-12s\n", "ceiling", "met", "sigma (ns)", "sigma dec %", "area inc %")

	for _, bound := range stdcelltune.SweepBounds(stdcelltune.SigmaCeiling) {
		windows, _, err := stdcelltune.TuneCtx(ctx, stat, stdcelltune.TuneOptions{Method: stdcelltune.SigmaCeiling, Bound: bound})
		infeasible := errors.Is(err, stdcelltune.ErrWindowInfeasible) // every pin excluded: nothing to synthesize with
		if err != nil && !infeasible {
			log.Fatal(err)
		}
		var res *stdcelltune.SynthesisResult
		if !infeasible {
			if res, err = stdcelltune.SynthesizeCtx(ctx, mcu, cat, stdcelltune.SynthesizeOptions{Clock: clock, Windows: windows}); err != nil {
				log.Fatal(err)
			}
		}
		if infeasible || !res.Met {
			fmt.Printf("%-10g %-6v %-12s %-12s %-12s\n", bound, false, "-", "-", "-")
			continue
		}
		ds, err := stdcelltune.AnalyzeVariationCtx(ctx, res, stat, stdcelltune.AnalyzeVariationOptions{})
		if err != nil {
			log.Fatal(err)
		}
		cmp := stdcelltune.Compare{
			BaselineSigma: bs.Design.Sigma, TunedSigma: ds.Design.Sigma,
			BaselineArea: base.Area(), TunedArea: res.Area(),
		}
		fmt.Printf("%-10g %-6v %-12.4f %-12.1f %-12.1f\n",
			bound, true, ds.Design.Sigma, 100*cmp.SigmaReduction(), 100*cmp.AreaIncrease())
	}
	fmt.Println("\ntighter ceilings buy more sigma reduction for more area — pick your point")
}
