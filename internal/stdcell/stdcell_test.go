package stdcell

import (
	"math"
	"testing"
	"testing/quick"

	"stdcelltune/internal/liberty"
)

func catTT() *Catalogue { return NewCatalogue(Typical) }

// TestInventoryMatchesPaperAppendix pins the catalogue to the paper's
// Appendix VIII.A: 304 cells in the exact category counts.
func TestInventoryMatchesPaperAppendix(t *testing.T) {
	c := catTT()
	if got := len(c.Specs); got != 304 {
		t.Fatalf("total cells %d want 304", got)
	}
	count := func(fams ...string) int {
		n := 0
		for _, f := range fams {
			n += len(c.Families[f])
		}
		return n
	}
	cases := []struct {
		label string
		fams  []string
		want  int
	}{
		{"inverters", []string{"INV"}, 19},
		{"or", []string{"OR2", "OR3", "OR4"}, 36},
		{"nand", []string{"ND2", "ND3", "ND4", "ND2B"}, 46},
		{"nor", []string{"NR2", "NR3", "NR4", "NR2B"}, 43},
		{"xnor", []string{"XNR2", "XNR3"}, 29},
		{"adders", []string{"ADDF", "ADDH", "ADDC"}, 34},
		{"muxes", []string{"MUX2", "MUX4"}, 27},
		{"flip-flops", []string{"DFQ", "DFQN", "DFRQ", "DFSQ", "DFRSQ"}, 51},
		{"latches", []string{"LATQ", "LATRQ"}, 12},
		{"other", []string{"BUF", "TIEH", "TIEL"}, 7},
	}
	total := 0
	for _, cs := range cases {
		got := count(cs.fams...)
		if got != cs.want {
			t.Errorf("%s: %d cells want %d", cs.label, got, cs.want)
		}
		total += got
	}
	if total != 304 {
		t.Errorf("category total %d want 304", total)
	}
}

// TestPaperNamedCellsExist checks the specific cells the paper calls out:
// INV_1 and INV_32 (Fig. 4), NR4_6 and the drive-6 cluster (Fig. 5),
// NR2B_1/2/3 (Section VII.A).
func TestPaperNamedCellsExist(t *testing.T) {
	c := catTT()
	for _, name := range []string{"INV_1", "INV_32", "NR4_6", "NR2B_1", "NR2B_2", "NR2B_3"} {
		if c.Spec(name) == nil {
			t.Errorf("cell %s missing", name)
		}
	}
	if len(c.ByDrive[6]) < 10 {
		t.Errorf("drive-6 cluster has only %d cells", len(c.ByDrive[6]))
	}
}

func TestLibertyModelValid(t *testing.T) {
	c := catTT()
	if err := c.Lib.Validate(); err != nil {
		t.Fatalf("generated library invalid: %v", err)
	}
	if got := len(c.Lib.Cells); got != 304 {
		t.Errorf("liberty cells %d want 304", got)
	}
}

func TestLibertyRoundTrip(t *testing.T) {
	c := catTT()
	s, err := liberty.WriteString(c.Lib)
	if err != nil {
		t.Fatal(err)
	}
	got, err := liberty.Parse(s)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(got.Cells) != len(c.Lib.Cells) {
		t.Fatalf("round-trip cell count %d want %d", len(got.Cells), len(c.Lib.Cells))
	}
	inv := got.Cell("INV_4")
	if inv == nil {
		t.Fatal("INV_4 lost in round trip")
	}
	arc := inv.Pin("Y").Timing[0]
	spec := c.Spec("INV_4")
	wantRise := spec.Delay(spec.LoadAxis()[3], SlewAxis[3], Typical) * (1 + riseFallSkew)
	if got := arc.CellRise.Values[3][3]; math.Abs(got-wantRise) > 1e-9 {
		t.Errorf("cell_rise[3][3]=%g want %g", got, wantRise)
	}
}

func TestDelayMonotoneInLoadAndSlew(t *testing.T) {
	c := catTT()
	for _, name := range []string{"INV_1", "INV_32", "ND2_4", "NR4_6", "XNR2_2", "ADDF_8", "MUX2_16", "DFQ_1"} {
		s := c.Spec(name)
		axis := s.LoadAxis()
		for li := 1; li < len(axis); li++ {
			if s.Delay(axis[li], 0.1, Typical) <= s.Delay(axis[li-1], 0.1, Typical) {
				t.Errorf("%s: delay not increasing in load", name)
			}
			if s.Sigma(axis[li], 0.1, Typical) <= s.Sigma(axis[li-1], 0.1, Typical) {
				t.Errorf("%s: sigma not increasing in load", name)
			}
		}
		for si := 1; si < len(SlewAxis); si++ {
			if s.Delay(axis[3], SlewAxis[si], Typical) <= s.Delay(axis[3], SlewAxis[si-1], Typical) {
				t.Errorf("%s: delay not increasing in slew", name)
			}
			if s.Sigma(axis[3], SlewAxis[si], Typical) <= s.Sigma(axis[3], SlewAxis[si-1], Typical) {
				t.Errorf("%s: sigma not increasing in slew", name)
			}
		}
	}
}

// TestSigmaFallsWithDriveStrength reproduces the Fig. 4 observation: at
// the same relative operating point, higher drive cells have lower sigma
// and a flatter load gradient.
func TestSigmaFallsWithDriveStrength(t *testing.T) {
	c := catTT()
	fam := c.Families["INV"]
	for i := 1; i < len(fam); i++ {
		lo, hi := fam[i-1], fam[i]
		// Same relative point: half of max load, mid slew.
		sLo := lo.Sigma(lo.MaxCap()/2, 0.064, Typical)
		sHi := hi.Sigma(hi.MaxCap()/2, 0.064, Typical)
		if sHi >= sLo {
			t.Errorf("sigma(%s)=%g not below sigma(%s)=%g", hi.Name, sHi, lo.Name, sLo)
		}
		// Absolute load gradient must flatten with drive.
		gLo := lo.Sigma(0.01, 0.064, Typical) - lo.Sigma(0.005, 0.064, Typical)
		gHi := hi.Sigma(0.01, 0.064, Typical) - hi.Sigma(0.005, 0.064, Typical)
		if gHi >= gLo {
			t.Errorf("gradient(%s)=%g not below gradient(%s)=%g", hi.Name, gHi, lo.Name, gLo)
		}
	}
}

// TestLoadRangeGrowsWithDrive checks the Fig. 4 structure: low drive
// cells have smaller load ranges; the slew axis is shared.
func TestLoadRangeGrowsWithDrive(t *testing.T) {
	c := catTT()
	inv1, inv32 := c.Spec("INV_1"), c.Spec("INV_32")
	a1, a32 := inv1.LoadAxis(), inv32.LoadAxis()
	if a1[len(a1)-1] >= a32[len(a32)-1] {
		t.Error("INV_32 load range should exceed INV_1")
	}
	if a1[len(a1)-1] != inv1.MaxCap() {
		t.Error("load axis must end at MaxCap")
	}
	for i := 1; i < len(a1); i++ {
		if a1[i] <= a1[i-1] {
			t.Error("load axis not ascending")
		}
	}
}

func TestAreaGrowsWithDrive(t *testing.T) {
	c := catTT()
	for fam, specs := range c.Families {
		for i := 1; i < len(specs); i++ {
			if specs[i].Area() <= specs[i-1].Area() {
				t.Errorf("%s: area not increasing with drive", fam)
			}
		}
		if specs[0].Area() <= 0 {
			t.Errorf("%s: non-positive area", fam)
		}
	}
}

func TestCornerScaling(t *testing.T) {
	c := catTT()
	s := c.Spec("ND2_4")
	l, sl := s.MaxCap()/4, 0.064
	dTyp := s.Delay(l, sl, Typical)
	dFast := s.Delay(l, sl, Fast)
	dSlow := s.Delay(l, sl, Slow)
	if !(dFast < dTyp && dTyp < dSlow) {
		t.Errorf("corner ordering broken: fast=%g typ=%g slow=%g", dFast, dTyp, dSlow)
	}
	// Mean and sigma must scale by the same factor (paper Section VII.C).
	ratioD := dSlow / dTyp
	ratioS := s.Sigma(l, sl, Slow) / s.Sigma(l, sl, Typical)
	if math.Abs(ratioD-ratioS) > 1e-9 {
		t.Errorf("delay ratio %g != sigma ratio %g across corners", ratioD, ratioS)
	}
}

func TestSequentialCells(t *testing.T) {
	c := catTT()
	ff := c.Spec("DFQ_2")
	if !ff.IsSequential() {
		t.Fatal("DFQ_2 not sequential")
	}
	if ff.SetupTime(Typical) <= 0 || ff.HoldTime(Typical) <= 0 {
		t.Error("FF must have positive setup/hold")
	}
	if c.Spec("ND2_1").SetupTime(Typical) != 0 {
		t.Error("combinational cell must have zero setup")
	}
	// Liberty cell must carry the constraint arcs on D.
	lc := c.Lib.Cell("DFQ_2")
	d := lc.Pin("D")
	if len(d.Timing) != 2 {
		t.Fatalf("DFQ_2 D pin has %d constraint arcs, want 2", len(d.Timing))
	}
	for _, a := range d.Timing {
		if !a.IsConstraint() {
			t.Errorf("non-constraint arc %q on D pin", a.Type)
		}
	}
	// Q delay arc comes from CK.
	q := lc.Pin("Q")
	if len(q.Timing) != 1 || q.Timing[0].RelatedPin != "CK" {
		t.Fatalf("DFQ_2 Q arcs: %+v", q.Timing)
	}
	if q.Timing[0].Type != "rising_edge" {
		t.Errorf("CK->Q arc type %q", q.Timing[0].Type)
	}
}

func TestTieCellsHaveNoArcs(t *testing.T) {
	c := catTT()
	for _, name := range []string{"TIEH_1", "TIEL_1"} {
		lc := c.Lib.Cell(name)
		if lc == nil {
			t.Fatalf("%s missing", name)
		}
		if n := len(lc.Pin("Y").Timing); n != 0 {
			t.Errorf("%s has %d arcs, want 0", name, n)
		}
	}
}

func TestMultiOutputAdder(t *testing.T) {
	c := catTT()
	addf := c.Lib.Cell("ADDF_4")
	outs := addf.OutputPins()
	if len(outs) != 2 {
		t.Fatalf("ADDF_4 has %d outputs want 2 (S, CO)", len(outs))
	}
	for _, o := range outs {
		if len(o.Timing) != 3 {
			t.Errorf("ADDF_4 pin %s has %d arcs want 3 (A,B,CI)", o.Name, len(o.Timing))
		}
	}
}

func TestFamilyOfAndSizes(t *testing.T) {
	if FamilyOf("NR2B_16") != "NR2B" {
		t.Error("FamilyOf broken")
	}
	if FamilyOf("plain") != "plain" {
		t.Error("FamilyOf without underscore")
	}
	c := catTT()
	sizes := c.SizesOf("INV_4")
	if len(sizes) != 19 {
		t.Fatalf("INV sizes %d want 19", len(sizes))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i].Drive <= sizes[i-1].Drive {
			t.Error("sizes not sorted by drive")
		}
	}
}

func TestCornerParsing(t *testing.T) {
	for _, s := range []string{"fast", "typical", "slow", "TT", "FF", "SS", Fast.Name()} {
		if _, err := ParseCorner(s); err != nil {
			t.Errorf("ParseCorner(%q): %v", s, err)
		}
	}
	if _, err := ParseCorner("nope"); err == nil {
		t.Error("bad corner accepted")
	}
	if Fast.DelayScale() >= 1 || Slow.DelayScale() <= 1 || Typical.DelayScale() != 1 {
		t.Error("corner scales inconsistent")
	}
	for _, c := range AllCorners {
		if c.Name() == "" || c.String() == "" {
			t.Error("corner naming broken")
		}
		if c.Voltage() <= 0 {
			t.Error("corner voltage broken")
		}
	}
	if Fast.Temperature() >= Slow.Temperature() {
		t.Error("corner temperatures inverted")
	}
}

// Property: for every cell, sigma is strictly positive and below the
// delay itself anywhere in the characterized window.
func TestSigmaBoundedByDelayProperty(t *testing.T) {
	c := catTT()
	names := c.CellNames()
	f := func(ci uint16, lu, su uint8) bool {
		spec := c.Specs[names[int(ci)%len(names)]]
		if spec.Kind == KindTie {
			return true
		}
		axis := spec.LoadAxis()
		l := axis[0] + (axis[len(axis)-1]-axis[0])*float64(lu)/255
		s := SlewAxis[0] + (SlewAxis[len(SlewAxis)-1]-SlewAxis[0])*float64(su)/255
		sig := spec.Sigma(l, s, Typical)
		d := spec.Delay(l, s, Typical)
		return sig > 0 && sig < d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildLibraryWithPerturbation(t *testing.T) {
	c := catTT()
	bump := func(s *Spec, nominal, sigma float64) float64 { return 0.001 }
	lib := c.BuildLibrary("mc_001", bump)
	if lib.Name != "mc_001" {
		t.Errorf("library name %q", lib.Name)
	}
	nom := c.Lib.Cell("INV_2").Pin("Y").Timing[0].CellRise
	per := lib.Cell("INV_2").Pin("Y").Timing[0].CellRise
	wantDiff := 0.001 * (1 + riseFallSkew)
	if d := per.Values[0][0] - nom.Values[0][0]; math.Abs(d-wantDiff) > 1e-12 {
		t.Errorf("perturbation delta %g want %g", d, wantDiff)
	}
	if err := lib.Validate(); err != nil {
		t.Fatalf("perturbed library invalid: %v", err)
	}
}

// TestLayoutModelTables: cells and arcs tile the row in order, the
// per-entry model tables a Perturb reads are Spec.Delay and Spec.Sigma
// at each entry's operating point, bit for bit, in every corner, and an
// unperturbed row is the nominal table.
func TestLayoutModelTables(t *testing.T) {
	for _, corner := range AllCorners {
		c := NewCatalogue(corner)
		l := c.Layout()
		if len(l.Nominal) != l.Entries || len(l.Sigma) != l.Entries {
			t.Fatalf("%v: tables hold %d/%d entries, layout has %d", corner, len(l.Nominal), len(l.Sigma), l.Entries)
		}
		row := make([]float64, l.Entries)
		c.DelaySamples(row, nil)
		e := 0
		for _, lc := range l.Cells {
			if lc.Offset != e {
				t.Fatalf("%v %s: offset %d, want %d", corner, lc.Spec.Name, lc.Offset, e)
			}
			for _, p := range lc.Pins {
				for _, a := range p.Arcs {
					if a.Offset != e {
						t.Fatalf("%v %s/%s/%s: offset %d, want %d", corner, lc.Spec.Name, p.Name, a.RelatedPin, a.Offset, e)
					}
					for _, ld := range lc.Loads {
						for _, sl := range SlewAxis {
							d, sg := lc.Spec.Delay(ld, sl, corner), lc.Spec.Sigma(ld, sl, corner)
							if math.Float64bits(l.Nominal[e]) != math.Float64bits(d) ||
								math.Float64bits(l.Sigma[e]) != math.Float64bits(sg) ||
								math.Float64bits(row[e]) != math.Float64bits(d) {
								t.Fatalf("%v %s %s/%s entry %d: tables (%v, %v), row %v, model (%v, %v)",
									corner, lc.Spec.Name, p.Name, a.RelatedPin, e, l.Nominal[e], l.Sigma[e], row[e], d, sg)
							}
							e++
						}
					}
				}
			}
		}
		if e != l.Entries {
			t.Fatalf("%v: arcs cover %d entries, layout has %d", corner, e, l.Entries)
		}
	}
}

func TestSpecAllPins(t *testing.T) {
	c := catTT()
	pins := c.Spec("DFRSQ_4").AllPins()
	want := map[string]bool{"D": true, "CK": true, "RN": true, "SN": true, "Q": true}
	if len(pins) != len(want) {
		t.Fatalf("pins %v", pins)
	}
	for _, p := range pins {
		if !want[p] {
			t.Errorf("unexpected pin %s", p)
		}
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindInv, KindBuf, KindOr, KindNand, KindNor, KindXnor,
		KindAddFull, KindAddHalf, KindAddCarry, KindMux, KindDFF, KindLatch, KindTie}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Errorf("Kind %d string %q", k, s)
		}
		seen[s] = true
	}
	if Kind(99).String() != "unknown" {
		t.Error("out-of-range kind")
	}
}

func TestClockCapBelowInputCap(t *testing.T) {
	s := catTT().Spec("DFQ_8")
	if s.ClockCap() >= s.InputCap() {
		t.Error("clock pin should be lighter than data pin")
	}
}

// TestStepWalksFamily: Step moves one drive along the family's sorted
// sizes and stops at either end.
func TestStepWalksFamily(t *testing.T) {
	c := catTT()
	fam := c.Families["INV"]
	for i, s := range fam {
		if up := c.Step(s, +1); (i+1 < len(fam)) != (up != nil) || (up != nil && up != fam[i+1]) {
			t.Errorf("Step(%s, +1) = %v", s.Name, up)
		}
		if down := c.Step(s, -1); (i > 0) != (down != nil) || (down != nil && down != fam[i-1]) {
			t.Errorf("Step(%s, -1) = %v", s.Name, down)
		}
	}
}
