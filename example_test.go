package stdcelltune_test

import (
	"context"
	"fmt"

	"stdcelltune"
)

// ExampleNewCatalogue shows the library inventory matching the paper's
// appendix.
func ExampleNewCatalogue() {
	cat := stdcelltune.NewCatalogue(stdcelltune.Typical)
	fmt.Println(len(cat.Lib.Cells), "cells at", cat.Corner.Name())
	fmt.Println("inverter sizes:", len(cat.Families["INV"]))
	// Output:
	// 304 cells at TT1P1V25C
	// inverter sizes: 19
}

// ExampleSweepBounds lists the paper's Table 2 sweep for the sigma
// ceiling method.
func ExampleSweepBounds() {
	fmt.Println(stdcelltune.SweepBounds(stdcelltune.SigmaCeiling))
	fmt.Println(stdcelltune.SweepBounds(stdcelltune.CellLoadSlope))
	// Output:
	// [0.04 0.03 0.02 0.01]
	// [1 0.05 0.03 0.01]
}

// ExampleTuneCtx restricts a small statistical library with the sigma
// ceiling method and prints what survives.
func ExampleTuneCtx() {
	ctx := context.Background()
	cat := stdcelltune.NewCatalogue(stdcelltune.Typical)
	stat, err := stdcelltune.CharacterizeCtx(ctx, cat, stdcelltune.CharacterizeOptions{Instances: 10, Seed: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	windows, rep, err := stdcelltune.TuneCtx(ctx, stat, stdcelltune.TuneOptions{Method: stdcelltune.SigmaCeiling, Bound: 0.02})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("windows:", windows.Len() > 0)
	fmt.Println("every pin reported:", len(rep.Pins) == windows.Len())
	// Output:
	// windows: true
	// every pin reported: true
}
