// Command tune runs one of the five library tuning methods against a
// statistical library and prints the extracted thresholds and the
// per-pin slew/load windows that would be passed to synthesis.
//
// Usage:
//
//	tune -method ceiling -bound 0.02 -generate 50
//	tune -method cell-load -bound 0.03 -stat stat.lib
//	tune -list
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"stdcelltune/internal/core"
	"stdcelltune/internal/liberty"
	"stdcelltune/internal/report"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stdcell"
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
	log.SetPrefix("tune: ")
	method := flag.String("method", "ceiling", "tuning method: strength-load, strength-slew, cell-load, cell-slew, ceiling")
	bound := flag.Float64("bound", 0.02, "constraint bound for the chosen method")
	statPath := flag.String("stat", "", "statistical library file (LVF .lib); empty = generate")
	gen := flag.Int("generate", 50, "Monte-Carlo instances when generating the statistical library")
	seed := flag.Int64("seed", 1, "generation seed")
	list := flag.Bool("list", false, "list methods and their Table-2 sweep bounds")
	verbose := flag.Bool("v", false, "print every pin window (default: summary)")
	flag.Parse()

	if *list {
		for name, m := range methodNames {
			fmt.Printf("%-14s %-28s sweep %v\n", name, m, core.SweepBounds(m))
		}
		return
	}
	m, ok := methodNames[*method]
	if !ok {
		log.Fatalf("unknown method %q (try -list)", *method)
	}

	var stat *statlib.Library
	if *statPath != "" {
		data, err := os.ReadFile(*statPath)
		if err != nil {
			log.Fatal(err)
		}
		lib, err := liberty.Parse(string(data))
		if err != nil {
			log.Fatal(err)
		}
		stat, err = statlib.FromLiberty(lib)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		cat := stdcell.NewCatalogue(stdcell.Typical)
		rows, err := variation.SamplesCtx(context.Background(), cat, variation.Config{N: *gen, Seed: *seed, CharNoise: 0.02})
		if err != nil {
			log.Fatal(err)
		}
		stat, err = statlib.FoldSamples("stat", cat.Layout(), rows)
		if err != nil {
			log.Fatal(err)
		}
	}

	set, rep, err := core.NewTuner(stat).Tune(core.ParamsFor(m, *bound))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("method: %s, bound: %g\n", m, *bound)
	fmt.Printf("clusters: %d, pins restricted: %d, pins fully excluded: %d\n",
		len(rep.Clusters), len(rep.Pins), rep.ExcludedPins())

	retained := 0.0
	for _, p := range rep.Pins {
		retained += p.Retained
	}
	if len(rep.Pins) > 0 {
		fmt.Printf("average LUT fraction retained: %.1f%%\n", 100*retained/float64(len(rep.Pins)))
	}
	if *verbose {
		tb := &report.Table{Header: []string{"cell/pin", "window", "retained %"}}
		for _, p := range rep.Pins {
			w, _ := set.Window(p.Cell, p.Pin)
			tb.AddRow(p.Cell+"/"+p.Pin, w.String(), 100*p.Retained)
		}
		fmt.Print(tb.Render())
	}
}
