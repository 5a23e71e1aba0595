// Command stattool builds the statistical library of Section IV: it
// either loads Monte-Carlo Liberty instances from disk (the libgen
// output) or generates them in memory, folds them into per-entry
// mean/sigma tables, and writes the result as an LVF-style Liberty file
// (ocv_sigma_cell_rise/_fall groups).
//
// Usage:
//
//	stattool -in 'lib/stc40_TT1P1V25C_mc*.lib' -out stat.lib
//	stattool -generate 50 -seed 1 -out stat.lib
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"stdcelltune/internal/liberty"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/variation"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stattool: ")
	in := flag.String("in", "", "glob of Monte-Carlo .lib instances")
	gen := flag.Int("generate", 0, "generate this many instances in memory instead of reading -in")
	seed := flag.Int64("seed", 1, "seed for -generate")
	cornerFlag := flag.String("corner", "typical", "corner for -generate")
	out := flag.String("out", "stat.lib", "output statistical library")
	flag.Parse()

	var stat *statlib.Library
	switch {
	case *gen > 0:
		corner, err := stdcell.ParseCorner(*cornerFlag)
		if err != nil {
			log.Fatal(err)
		}
		cat := stdcell.NewCatalogue(corner)
		rows, err := variation.SamplesCtx(context.Background(), cat, variation.Config{N: *gen, Seed: *seed, CharNoise: 0.02})
		if err != nil {
			log.Fatal(err)
		}
		if stat, err = statlib.FoldSamples("statistical", cat.Layout(), rows); err != nil {
			log.Fatal(err)
		}
	case *in != "":
		paths, err := filepath.Glob(*in)
		if err != nil {
			log.Fatal(err)
		}
		sort.Strings(paths)
		if len(paths) < 2 {
			log.Fatalf("glob %q matched %d files; need at least 2", *in, len(paths))
		}
		var libs []*liberty.Library
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				log.Fatal(err)
			}
			lib, err := liberty.Parse(string(data))
			if err != nil {
				log.Fatalf("%s: %v", p, err)
			}
			libs = append(libs, lib)
		}
		if stat, err = statlib.Build("statistical", libs); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("need -in or -generate")
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := liberty.Write(f, stat.ToLiberty()); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("folded %d instances into %s (%d cells, max sigma %.4f ns)\n",
		stat.Samples, *out, len(stat.Cells), stat.MaxSigma())
}
