package statlib

import (
	"math"
	"strings"
	"testing"

	"stdcelltune/internal/liberty"
	"stdcelltune/internal/lut"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/variation"
)

// buildSmall builds a statistical library from N MC instances of the full
// catalogue. Shared across tests via sync-free package-level caching is
// avoided; tests that need it call this (it takes ~100ms for N=20).
func buildSmall(t *testing.T, n int) (*stdcell.Catalogue, *Library) {
	t.Helper()
	cat := stdcell.NewCatalogue(stdcell.Typical)
	libs := variation.Instances(cat, variation.Config{N: n, Seed: 1, CharNoise: 0.02})
	sl, err := Build("stat_"+cat.Corner.Name(), libs)
	if err != nil {
		t.Fatal(err)
	}
	return cat, sl
}

func TestBuildStructure(t *testing.T) {
	cat, sl := buildSmall(t, 5)
	if sl.Samples != 5 {
		t.Errorf("Samples=%d", sl.Samples)
	}
	if len(sl.Cells) != 304 {
		t.Fatalf("cells %d want 304", len(sl.Cells))
	}
	if len(sl.CellOrder) != 304 {
		t.Fatalf("cell order %d want 304", len(sl.CellOrder))
	}
	// Tie cells have no arcs; all others have output pins with arcs.
	for name, c := range sl.Cells {
		spec := cat.Spec(name)
		if spec.Kind == stdcell.KindTie {
			if len(c.Pins) != 0 {
				t.Errorf("%s: tie cell with statistical pins", name)
			}
			continue
		}
		if len(c.Pins) == 0 {
			t.Errorf("%s: no statistical pins", name)
		}
		for _, p := range c.Pins {
			if len(p.Arcs) == 0 {
				t.Errorf("%s/%s: no arcs", name, p.Name)
			}
			for _, a := range p.Arcs {
				if a.MeanRise == nil || a.SigmaRise == nil || a.MeanFall == nil || a.SigmaFall == nil {
					t.Fatalf("%s/%s arc from %s missing tables", name, p.Name, a.RelatedPin)
				}
			}
		}
	}
}

// TestRecoversAnalyticModel: with 50 samples (the paper's N) the
// statistical library's mean must sit within a few percent of the nominal
// delay and its sigma within ~35% of the analytic Pelgrom sigma — the
// same order of estimation error the paper reports for its own
// statistical library ("deviate to an upper-bound of two times").
func TestRecoversAnalyticModel(t *testing.T) {
	cat, sl := buildSmall(t, 50)
	for _, name := range []string{"INV_1", "INV_32", "ND2_4", "NR4_6", "XNR2_8", "DFQ_2"} {
		spec := cat.Spec(name)
		c := sl.Cell(name)
		pin := c.Pins[0]
		arc := pin.Arcs[0]
		axis := spec.LoadAxis()
		for _, li := range []int{0, 3, 6} {
			for _, sj := range []int{0, 3, 6} {
				load, slew := axis[li], stdcell.SlewAxis[sj]
				wantMu := spec.Delay(load, slew, stdcell.Typical) * 1.05 // rise skew
				gotMu := arc.MeanRise.Values[li][sj]
				if math.Abs(gotMu-wantMu)/wantMu > 0.05 {
					t.Errorf("%s mean[%d][%d]=%g want %g", name, li, sj, gotMu, wantMu)
				}
				wantSg := spec.Sigma(load, slew, stdcell.Typical) * 1.05
				gotSg := arc.SigmaRise.Values[li][sj]
				if rel := math.Abs(gotSg-wantSg) / wantSg; rel > 0.35 {
					t.Errorf("%s sigma[%d][%d]=%g want %g (rel err %.2f)", name, li, sj, gotSg, wantSg, rel)
				}
			}
		}
	}
}

// TestSigmaSurfaceShape verifies the Fig. 4/5 structure survives the MC
// estimation: within a family, higher drive ⇒ lower sigma at the same
// relative operating point.
func TestSigmaSurfaceShape(t *testing.T) {
	_, sl := buildSmall(t, 30)
	inv1 := sl.Cell("INV_1").Pins[0].Arcs[0].SigmaRise
	inv32 := sl.Cell("INV_32").Pins[0].Arcs[0].SigmaRise
	// Compare at the same LUT indices (same relative point).
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			if inv32.Values[i][j] >= inv1.Values[i][j] {
				t.Errorf("INV_32 sigma[%d][%d]=%g not below INV_1 %g",
					i, j, inv32.Values[i][j], inv1.Values[i][j])
			}
		}
	}
	// Sigma grows along both axes (allow small MC wiggle by comparing
	// corner to corner).
	s := sl.Cell("ND2_1").Pins[0].Arcs[0].SigmaRise
	if s.Values[6][6] <= s.Values[0][0] {
		t.Error("sigma surface not increasing toward far corner")
	}
}

func TestBuildErrors(t *testing.T) {
	cat := stdcell.NewCatalogue(stdcell.Typical)
	one := variation.Instances(cat, variation.Config{N: 1, Seed: 1})
	if _, err := Build("x", one); err == nil {
		t.Error("single instance accepted")
	}
	libs := variation.Instances(cat, variation.Config{N: 2, Seed: 1})
	// Remove a cell from the second instance: the build must survive but
	// quarantine the damaged cell rather than silently folding a partial
	// sample set.
	gone := libs[1].Cells[0].Name
	libs[1].Cells = libs[1].Cells[1:]
	mut := &liberty.Library{Name: libs[1].Name, Cells: libs[1].Cells}
	sl, err := Build("x", []*liberty.Library{libs[0], mut})
	if err != nil {
		t.Fatalf("missing cell must quarantine, not fail: %v", err)
	}
	if !sl.Quarantined(gone) {
		t.Errorf("%s not quarantined", gone)
	}
	if sl.Cell(gone) != nil {
		t.Errorf("%s still present in folded library", gone)
	}
	if sl.Quarantine.Len() != 1 {
		t.Errorf("quarantine len %d want 1", sl.Quarantine.Len())
	}
}

func TestQueryHelpers(t *testing.T) {
	_, sl := buildSmall(t, 5)
	c := sl.Cell("ND2_4")
	if c == nil {
		t.Fatal("ND2_4 missing")
	}
	if sl.Cell("NOPE") != nil {
		t.Error("unknown cell should be nil")
	}
	p := c.Pin("Y")
	if p == nil {
		t.Fatal("pin Y missing")
	}
	if c.Pin("Z") != nil {
		t.Error("unknown pin should be nil")
	}
	if p.Arc("A") == nil || p.Arc("B") == nil {
		t.Error("arcs from A and B expected")
	}
	if p.Arc("Q") != nil {
		t.Error("unknown arc should be nil")
	}
	// Stats returns max(rise, fall) interpolation.
	a := p.Arc("A")
	n := a.Stats(a.MeanRise.Loads[2], a.MeanRise.Slews[2])
	if n.Mu < a.MeanFall.Values[2][2] || n.Mu < 0 {
		t.Error("Stats mean below fall table value")
	}
	if n.Sigma <= 0 {
		t.Error("Stats sigma must be positive")
	}
	// On-grid Stats equals the max of the two tables at that entry.
	wantMu := math.Max(a.MeanRise.Values[2][2], a.MeanFall.Values[2][2])
	if math.Abs(n.Mu-wantMu) > 1e-12 {
		t.Errorf("Stats mu %g want %g", n.Mu, wantMu)
	}
}

func TestMaxSigmaTable(t *testing.T) {
	_, sl := buildSmall(t, 5)
	p := sl.Cell("ADDF_4").Pin("S")
	maxT, err := p.MaxSigmaTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range p.SigmaTables() {
		for i := range tb.Values {
			for j := range tb.Values[i] {
				if maxT.Values[i][j] < tb.Values[i][j] {
					t.Fatalf("max-equivalent below member at (%d,%d)", i, j)
				}
			}
		}
	}
	if n := len(p.SigmaTables()); n != 6 { // 3 arcs x rise/fall
		t.Errorf("ADDF S pin sigma tables %d want 6", n)
	}
}

func TestMaxSigma(t *testing.T) {
	_, sl := buildSmall(t, 5)
	m := sl.MaxSigma()
	if m <= 0 {
		t.Fatal("MaxSigma must be positive")
	}
	// No table may exceed it.
	for _, c := range sl.Cells {
		for _, p := range c.Pins {
			for _, tb := range p.SigmaTables() {
				if tb.Max() > m {
					t.Fatal("table above MaxSigma")
				}
			}
		}
	}
}

func TestLibertyRoundTrip(t *testing.T) {
	_, sl := buildSmall(t, 5)
	lib := sl.ToLiberty()
	text, err := liberty.WriteString(lib)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := liberty.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromLiberty(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(sl.Cells) {
		t.Fatalf("cells %d want %d", len(back.Cells), len(sl.Cells))
	}
	a := sl.Cell("INV_4").Pins[0].Arcs[0]
	b := back.Cell("INV_4").Pins[0].Arcs[0]
	for i := range a.SigmaRise.Values {
		for j := range a.SigmaRise.Values[i] {
			if math.Abs(a.SigmaRise.Values[i][j]-b.SigmaRise.Values[i][j]) > 1e-12 {
				t.Fatalf("sigma entry (%d,%d) lost precision", i, j)
			}
		}
	}
	if back.Cell("INV_4").DriveStrength != 4 {
		t.Error("drive strength lost")
	}
}

func TestFromLibertyRejectsNominal(t *testing.T) {
	cat := stdcell.NewCatalogue(stdcell.Typical)
	if _, err := FromLiberty(cat.Lib); err == nil {
		t.Error("nominal library (no sigma tables) accepted as statistical")
	}
}

// TestDegenerateCellReasonDeterministic: a cell with defects in several
// of its four stat tables must always quarantine with the same reason.
// The checker used to iterate a map literal of the tables, so the
// reported reason was whichever defective table the runtime happened to
// visit first — breaking the bit-identical-report guarantee under fault
// injection.
func TestDegenerateCellReasonDeterministic(t *testing.T) {
	mk := func() *Cell {
		mkTab := func(corrupt float64) *lut.Table {
			tb := lut.New([]float64{1, 2}, []float64{1, 2})
			tb.Set(1, 1, corrupt)
			return tb
		}
		// Defects in all four tables: NaN means, negative sigmas.
		return &Cell{
			Name: "BAD_1",
			Pins: []*Pin{{Name: "Y", Arcs: []*Arc{{
				RelatedPin: "A",
				MeanRise:   mkTab(math.NaN()),
				MeanFall:   mkTab(math.NaN()),
				SigmaRise:  mkTab(-1),
				SigmaFall:  mkTab(-2),
			}}}},
		}
	}
	want := degenerateCell(mk())
	if want == "" {
		t.Fatal("multi-defect cell not flagged")
	}
	// The fixed visiting order puts mean_rise first.
	if !strings.Contains(want, "mean_rise") {
		t.Errorf("reason %q should name mean_rise (first table in fixed order)", want)
	}
	for i := 0; i < 100; i++ {
		if got := degenerateCell(mk()); got != want {
			t.Fatalf("run %d: reason %q differs from %q", i, got, want)
		}
	}
}

func TestFoldTablesMismatchedAxes(t *testing.T) {
	a := lut.New([]float64{1, 2}, []float64{1, 2})
	b := lut.New([]float64{1, 3}, []float64{1, 2})
	if _, _, err := foldTables(nil, []*lut.Table{a, b}); err == nil {
		t.Error("mismatched axes accepted")
	}
}

// TestConvergenceWithSamples is the DESIGN.md ablation: the sigma
// estimation error must shrink as N grows (the paper's future-work note
// about using more MC samples).
func TestConvergenceWithSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence sweep skipped in -short mode")
	}
	cat := stdcell.NewCatalogue(stdcell.Typical)
	spec := cat.Spec("NR2_2")
	relErr := func(n int) float64 {
		libs := variation.Instances(cat, variation.Config{N: n, Seed: 42})
		sl, err := Build("x", libs)
		if err != nil {
			t.Fatal(err)
		}
		arc := sl.Cell("NR2_2").Pins[0].Arcs[0]
		sum, cnt := 0.0, 0
		axis := spec.LoadAxis()
		for i := range axis {
			for j := range stdcell.SlewAxis {
				want := spec.Sigma(axis[i], stdcell.SlewAxis[j], stdcell.Typical) * 1.05
				got := arc.SigmaRise.Values[i][j]
				sum += math.Abs(got-want) / want
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	e10, e120 := relErr(10), relErr(120)
	if e120 >= e10 {
		t.Errorf("error did not shrink with samples: N=10 %.3f vs N=120 %.3f", e10, e120)
	}
	if e120 > 0.15 {
		t.Errorf("N=120 error %.3f too large", e120)
	}
}

// TestBuildSlabBacking pins the tentpole invariant: every table of a
// built library is a view into the library's contiguous slab, and the
// pre-computed size hint lands the whole fold in a single chunk.
func TestBuildSlabBacking(t *testing.T) {
	_, sl := buildSmall(t, 5)
	if sl.slab == nil {
		t.Fatal("built library has no slab")
	}
	tables, floats, chunks := sl.slab.Stats()
	if chunks != 1 {
		t.Errorf("slab spilled into %d chunks (hint under-estimated)", chunks)
	}
	if tables == 0 || floats == 0 {
		t.Fatalf("slab carved nothing: %d tables, %d floats", tables, floats)
	}
	wantTables, wantFloats := 0, 0
	for _, c := range sl.Cells {
		for _, p := range c.Pins {
			for _, a := range p.Arcs {
				for _, tb := range []*lut.Table{a.MeanRise, a.MeanFall, a.SigmaRise, a.SigmaFall} {
					if tb == nil {
						continue
					}
					if !tb.Contiguous() {
						t.Fatalf("%s/%s: non-contiguous table", c.Name, p.Name)
					}
					wantTables++
					wantFloats += len(tb.Loads) * len(tb.Slews)
				}
			}
		}
	}
	if tables != wantTables || floats != wantFloats {
		t.Errorf("slab stats (%d tables, %d floats) != library volume (%d, %d)",
			tables, floats, wantTables, wantFloats)
	}
}
