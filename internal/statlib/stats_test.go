package statlib

import (
	"context"
	"math"
	"testing"

	"stdcelltune/internal/liberty"
	"stdcelltune/internal/lut"
	"stdcelltune/internal/variation"
)

// TestStatsSharedBracket: every arc of a library folded from Liberty
// instances (Build), from a sample matrix (FoldSamples) and read back
// from its Liberty text (FromLiberty) has its four tables on one grid,
// and Stats through the one bracket matches four separate lookups bit
// for bit at grid, off-grid, clamped, NaN and ±Inf points.
func TestStatsSharedBracket(t *testing.T) {
	cat, built := buildSmall(t, 4)
	rows, err := variation.SamplesCtx(context.Background(), cat, variation.Config{N: 4, Seed: 1, CharNoise: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	folded, err := FoldSamples("folded", cat.Layout(), rows)
	if err != nil {
		t.Fatal(err)
	}
	text, err := liberty.WriteString(built.ToLiberty())
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := liberty.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	read, err := FromLiberty(parsed)
	if err != nil {
		t.Fatal(err)
	}
	points := func(axis []float64) []float64 {
		pts := append([]float64(nil), axis...)
		for i := 0; i+1 < len(axis); i++ {
			pts = append(pts, axis[i]+0.37*(axis[i+1]-axis[i]))
		}
		return append(pts, axis[0]/2, axis[len(axis)-1]*1.5, math.NaN(), math.Inf(1), math.Inf(-1))
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	check := func(name string, a *Arc) {
		t.Helper()
		for _, l := range points(a.MeanRise.Loads) {
			for _, s := range points(a.MeanRise.Slews) {
				got := a.Stats(l, s)
				mu := math.Max(a.MeanRise.Lookup(l, s), a.MeanFall.Lookup(l, s))
				sg := math.Max(a.SigmaRise.Lookup(l, s), a.SigmaFall.Lookup(l, s))
				if bits(got.Mu) != bits(mu) || bits(got.Sigma) != bits(sg) {
					t.Fatalf("%s at (%v, %v): Stats %+v, four lookups (%v, %v)", name, l, s, got, mu, sg)
				}
			}
		}
	}
	// Hand-built arcs: fall above rise on part of the grid, so both
	// sides of each max are read; then one sigma table on other axes,
	// which must keep the arc off the shared bracket.
	loads, slews := []float64{0.001, 0.01, 0.1}, []float64{0.02, 0.2, 0.6}
	rise := func(l, s float64) float64 { return 1 + l + s }
	fall := func(l, s float64) float64 { return 0.5 + 4*l + 2*s }
	hand := (&Arc{RelatedPin: "A",
		MeanRise: lut.NewFilled(loads, slews, rise), MeanFall: lut.NewFilled(loads, slews, fall),
		SigmaRise: lut.NewFilled(loads, slews, fall), SigmaFall: lut.NewFilled(loads, slews, rise),
	}).prepared()
	if !hand.shared {
		t.Fatal("hand-built arc on one grid not shared")
	}
	check("hand-built", hand)
	hand.SigmaFall = lut.NewFilled([]float64{0.002, 0.05}, slews, rise)
	if hand.prepared().shared {
		t.Fatal("hand-built arc with a sigma table on other axes shared")
	}
	check("hand-built, mismatched axes", hand)
	for _, lib := range []*Library{built, folded, read} {
		arcs := 0
		for _, name := range lib.CellOrder {
			for _, p := range lib.Cells[name].Pins {
				for _, a := range p.Arcs {
					arcs++
					arc := lib.Name + " " + name + "/" + p.Name + "<-" + a.RelatedPin
					if !a.shared {
						t.Fatalf("%s: tables not on one grid", arc)
					}
					check(arc, a)
				}
			}
		}
		if arcs == 0 {
			t.Fatalf("%s: no arcs", lib.Name)
		}
	}
}
