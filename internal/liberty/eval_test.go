package liberty_test

import (
	"math"
	"math/rand"
	"testing"

	"stdcelltune/internal/liberty"
	"stdcelltune/internal/lut"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stdcell"
)

// evalPoints returns query coordinates along one axis: every grid
// point, the midpoints and a seeded off-grid point per segment, values
// clamped below and above the axis, NaN and ±Inf.
func evalPoints(axis []float64, rng *rand.Rand) []float64 {
	pts := append([]float64(nil), axis...)
	for i := 0; i+1 < len(axis); i++ {
		pts = append(pts, (axis[i]+axis[i+1])/2, axis[i]+rng.Float64()*(axis[i+1]-axis[i]))
	}
	lo, hi := axis[0], axis[len(axis)-1]
	return append(pts, lo/2, lo-1, hi*1.5, hi+1, math.NaN(), math.Inf(1), math.Inf(-1))
}

// fourLookups is the reference max-delay view: each table looked up
// on its own.
func fourLookups(a *liberty.TimingArc, load, slew float64) (float64, float64) {
	return math.Max(a.CellRise.Lookup(load, slew), a.CellFall.Lookup(load, slew)),
		math.Max(a.RiseTransition.Lookup(load, slew), a.FallTransition.Lookup(load, slew))
}

// checkEval holds Eval to fourLookups bit for bit over the points of
// both the delay and the transition tables' axes.
func checkEval(t *testing.T, name string, a *liberty.TimingArc, rng *rand.Rand) {
	t.Helper()
	loads := append(evalPoints(a.CellRise.Loads, rng), evalPoints(a.RiseTransition.Loads, rng)...)
	slews := append(evalPoints(a.CellRise.Slews, rng), evalPoints(a.RiseTransition.Slews, rng)...)
	for _, l := range loads {
		for _, s := range slews {
			d, tr := a.Eval(l, s)
			wd, wtr := fourLookups(a, l, s)
			if math.Float64bits(d) != math.Float64bits(wd) || math.Float64bits(tr) != math.Float64bits(wtr) {
				t.Fatalf("%s at (%v, %v): Eval (%v, %v), four lookups (%v, %v)", name, l, s, d, tr, wd, wtr)
			}
		}
	}
}

// delayArcs calls fn on every delay arc of the library, reporting how
// many it visited and how many Prepare found on one grid.
func delayArcs(lib *liberty.Library, fn func(name string, a *liberty.TimingArc)) (arcs, shared int) {
	for _, c := range lib.Cells {
		for _, p := range c.Pins {
			for _, a := range p.Timing {
				if a.IsConstraint() {
					continue
				}
				arcs++
				if liberty.SharesAxes(a) {
					shared++
				}
				fn(c.Name+"/"+p.Name+"<-"+a.RelatedPin, a)
			}
		}
	}
	return arcs, shared
}

func parse(t *testing.T, lib *liberty.Library) *liberty.Library {
	t.Helper()
	src, err := liberty.WriteString(lib)
	if err != nil {
		t.Fatal(err)
	}
	back, err := liberty.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestEvalMatchesFourLookups checks the one-bracket Eval against four
// independent lookups on every delay arc of the typical catalogue, of
// that library parsed back from its Liberty text, and of a parsed
// Monte-Carlo instance — grid, off-grid, clamped, NaN and ±Inf points.
// Every delay arc the catalogue builds keeps its four tables on one
// grid; TestEvalMismatchedAxes covers the other path.
func TestEvalMatchesFourLookups(t *testing.T) {
	cat := stdcell.NewCatalogue(stdcell.Typical)
	rng := rand.New(rand.NewSource(27))
	mc := cat.BuildLibrary("mc", func(_ *stdcell.Spec, _, sigma float64) float64 { return sigma * rng.NormFloat64() })
	for _, c := range []struct {
		name string
		lib  *liberty.Library
	}{
		{"catalogue", cat.Lib},
		{"parsed catalogue", parse(t, cat.Lib)},
		{"parsed Monte-Carlo instance", parse(t, mc)},
	} {
		arcs, shared := delayArcs(c.lib, func(name string, a *liberty.TimingArc) {
			checkEval(t, c.name+" "+name, a, rng)
		})
		t.Logf("%s: %d delay arcs, %d on one grid", c.name, arcs, shared)
		if arcs == 0 || shared != arcs {
			t.Fatalf("%s: %d of %d delay arcs on one grid, want all", c.name, shared, arcs)
		}
	}
}

// TestEvalStatisticalLibraryUnshared checks a parsed statistical
// library: its arcs carry mean and sigma delay tables but no transition
// tables, so Prepare must not put any of them on the one-bracket path.
func TestEvalStatisticalLibraryUnshared(t *testing.T) {
	cat := stdcell.NewCatalogue(stdcell.Typical)
	rng := rand.New(rand.NewSource(3))
	perturb := func(_ *stdcell.Spec, _, sigma float64) float64 { return sigma * rng.NormFloat64() }
	sl, err := statlib.Build("stat", []*liberty.Library{cat.BuildLibrary("a", perturb), cat.BuildLibrary("b", perturb)})
	if err != nil {
		t.Fatal(err)
	}
	arcs, shared := delayArcs(parse(t, sl.ToLiberty()), func(string, *liberty.TimingArc) {})
	if arcs == 0 || shared != 0 {
		t.Fatalf("parsed statistical library: %d of %d arcs on one grid, want none", shared, arcs)
	}
}

// TestEvalMismatchedAxes hand-builds an arc whose transition tables sit
// on other load and slew axes than its delay tables: Prepare must keep
// it off the shared bracket, and Eval must still match four lookups.
func TestEvalMismatchedAxes(t *testing.T) {
	f := func(l, s float64) float64 { return 0.02 + 3*l + 0.4*s + 5*l*s }
	delay := lut.NewFilled([]float64{0.001, 0.004, 0.016}, []float64{0.01, 0.05, 0.2}, f)
	trans := lut.NewFilled([]float64{0.002, 0.003, 0.01, 0.03}, []float64{0.02, 0.04, 0.3}, f)
	a := &liberty.TimingArc{
		RelatedPin: "A",
		CellRise:   delay, CellFall: delay.Clone().Scale(0.9),
		RiseTransition: trans, FallTransition: trans.Clone().Scale(0.8),
	}
	a.Prepare()
	if liberty.SharesAxes(a) {
		t.Fatal("Prepare put mismatched axes on one grid")
	}
	checkEval(t, "hand-built", a, rand.New(rand.NewSource(1)))

	// The same tables on one grid take the shared bracket.
	a.RiseTransition, a.FallTransition = delay.Clone().Scale(0.5), delay.Clone().Scale(0.4)
	a.Prepare()
	if !liberty.SharesAxes(a) {
		t.Fatal("Prepare missed tables on one grid")
	}
	checkEval(t, "hand-built shared", a, rand.New(rand.NewSource(1)))
}
