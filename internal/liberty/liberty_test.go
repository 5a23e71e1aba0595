package liberty

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"stdcelltune/internal/lut"
)

func sampleTable(k float64) *lut.Table {
	return lut.NewFilled(
		[]float64{0.001, 0.004, 0.016},
		[]float64{0.01, 0.05, 0.2},
		func(l, s float64) float64 { return k * (0.02 + 3*l + 0.4*s) },
	)
}

func sampleLibrary() *Library {
	l := &Library{
		Name:            "tt_test",
		TimeUnit:        "1ns",
		CapacitiveUnit:  "1pf",
		VoltageUnit:     "1V",
		NominalVoltage:  1.1,
		NominalTemp:     25,
		NominalProcess:  1,
		OperatingCorner: "TT1P1V25C",
		Templates: []*Template{{
			Name:      "delay_template",
			Variable1: "total_output_net_capacitance",
			Variable2: "input_net_transition",
			Index1:    []float64{0.001, 0.004, 0.016},
			Index2:    []float64{0.01, 0.05, 0.2},
		}},
	}
	inv := &Cell{
		Name:          "INV_2",
		Area:          1.4,
		DriveStrength: 2,
		Footprint:     "INV",
		Pins: []*Pin{
			{Name: "A", Direction: Input, Capacitance: 0.0021},
			{Name: "Y", Direction: Output, MaxCap: 0.08, Function: "!A",
				Timing: []*TimingArc{{
					RelatedPin:     "A",
					Sense:          "negative_unate",
					Template:       "delay_template",
					CellRise:       sampleTable(1),
					CellFall:       sampleTable(0.9),
					RiseTransition: sampleTable(0.5),
					FallTransition: sampleTable(0.45),
					SigmaRise:      sampleTable(0.05),
					SigmaFall:      sampleTable(0.04),
				}},
			},
		},
	}
	nand := &Cell{
		Name:          "ND2_1",
		Area:          1.1,
		DriveStrength: 1,
		Footprint:     "ND2",
		Pins: []*Pin{
			{Name: "A", Direction: Input, Capacitance: 0.0018},
			{Name: "B", Direction: Input, Capacitance: 0.0018},
			{Name: "Y", Direction: Output, MaxCap: 0.05, Function: "!(A B)",
				Timing: []*TimingArc{
					{RelatedPin: "A", Sense: "negative_unate", Template: "delay_template",
						CellRise: sampleTable(1.2), CellFall: sampleTable(1.1),
						RiseTransition: sampleTable(0.6), FallTransition: sampleTable(0.55)},
					{RelatedPin: "B", Sense: "negative_unate", Template: "delay_template",
						CellRise: sampleTable(1.25), CellFall: sampleTable(1.15),
						RiseTransition: sampleTable(0.62), FallTransition: sampleTable(0.57)},
				},
			},
		},
	}
	ff := &Cell{
		Name:          "DFQ_1",
		Area:          4.2,
		DriveStrength: 1,
		IsSequential:  true,
		Pins: []*Pin{
			{Name: "D", Direction: Input, Capacitance: 0.002},
			{Name: "CK", Direction: Input, Capacitance: 0.0025},
			{Name: "Q", Direction: Output, MaxCap: 0.06,
				Timing: []*TimingArc{{
					RelatedPin: "CK", Sense: "non_unate", Type: "rising_edge",
					Template: "delay_template",
					CellRise: sampleTable(2), CellFall: sampleTable(1.9),
					RiseTransition: sampleTable(0.7), FallTransition: sampleTable(0.66),
				}},
			},
		},
	}
	l.AddCell(inv)
	l.AddCell(nand)
	l.AddCell(ff)
	return l
}

func TestValidateSample(t *testing.T) {
	if err := sampleLibrary().Validate(); err != nil {
		t.Fatalf("sample library invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	l := sampleLibrary()
	l.Name = ""
	if err := l.Validate(); err == nil {
		t.Error("unnamed library accepted")
	}

	l = sampleLibrary()
	l.AddCell(&Cell{Name: "INV_2", Area: 1, Pins: []*Pin{{Name: "A"}}})
	if err := l.Validate(); err == nil {
		t.Error("duplicate cell accepted")
	}

	l = sampleLibrary()
	l.Cell("INV_2").Area = 0
	if err := l.Validate(); err == nil {
		t.Error("zero-area cell accepted")
	}

	l = sampleLibrary()
	l.Cell("INV_2").Pins[1].Timing[0].RelatedPin = "NOPE"
	if err := l.Validate(); err == nil {
		t.Error("arc to unknown pin accepted")
	}

	l = sampleLibrary()
	l.Cell("INV_2").Pins[0].Timing = l.Cell("INV_2").Pins[1].Timing
	if err := l.Validate(); err == nil {
		t.Error("timing arc on input pin accepted")
	}

	l = sampleLibrary()
	// Arc whose related pin is an output.
	y := l.Cell("ND2_1").Pin("Y")
	y.Timing[0].RelatedPin = "Y"
	if err := l.Validate(); err == nil {
		t.Error("arc related to output pin accepted")
	}
}

func TestCellAccessors(t *testing.T) {
	l := sampleLibrary()
	c := l.Cell("ND2_1")
	if c == nil {
		t.Fatal("ND2_1 missing")
	}
	if got := len(c.InputPins()); got != 2 {
		t.Errorf("inputs %d want 2", got)
	}
	if got := len(c.OutputPins()); got != 1 {
		t.Errorf("outputs %d want 1", got)
	}
	if c.Pin("B") == nil || c.Pin("ZZZ") != nil {
		t.Error("Pin lookup broken")
	}
	if l.Cell("missing") != nil {
		t.Error("missing cell should be nil")
	}
}

func TestArcTables(t *testing.T) {
	l := sampleLibrary()
	arc := l.Cell("INV_2").Pin("Y").Timing[0]
	m := arc.Tables()
	for _, k := range []string{"cell_rise", "cell_fall", "rise_transition", "fall_transition", "ocv_sigma_cell_rise", "ocv_sigma_cell_fall"} {
		if m[k] == nil {
			t.Errorf("missing table %s", k)
		}
	}
	if n := len(arc.DelayTables()); n != 2 {
		t.Errorf("DelayTables len %d want 2", n)
	}
	if n := len(arc.SigmaTables()); n != 2 {
		t.Errorf("SigmaTables len %d want 2", n)
	}
	nom := l.Cell("ND2_1").Pin("Y").Timing[0]
	if n := len(nom.SigmaTables()); n != 0 {
		t.Errorf("nominal arc has %d sigma tables", n)
	}
}

func TestWriteContainsStructure(t *testing.T) {
	s, err := WriteString(sampleLibrary())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"library (tt_test)",
		"lu_table_template (delay_template)",
		"cell (INV_2)",
		`related_pin : "A"`,
		"ocv_sigma_cell_rise",
		"timing_type : rising_edge",
		"capacitive_load_unit (1, pf);",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func tablesEqual(a, b *lut.Table) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if !lut.SameAxes(a, b) {
		return false
	}
	for i := range a.Values {
		for j := range a.Values[i] {
			if math.Abs(a.Values[i][j]-b.Values[i][j]) > 1e-12 {
				return false
			}
		}
	}
	return true
}

func librariesEqual(t *testing.T, a, b *Library) {
	t.Helper()
	if a.Name != b.Name || a.TimeUnit != b.TimeUnit || a.CapacitiveUnit != b.CapacitiveUnit {
		t.Fatalf("header mismatch: %+v vs %+v", a, b)
	}
	if a.NominalVoltage != b.NominalVoltage || a.NominalTemp != b.NominalTemp || a.OperatingCorner != b.OperatingCorner {
		t.Fatalf("conditions mismatch")
	}
	if len(a.Templates) != len(b.Templates) {
		t.Fatalf("template count %d vs %d", len(a.Templates), len(b.Templates))
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell count %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i, ca := range a.Cells {
		cb := b.Cells[i]
		if ca.Name != cb.Name || ca.Area != cb.Area || ca.DriveStrength != cb.DriveStrength ||
			ca.Footprint != cb.Footprint || ca.IsSequential != cb.IsSequential {
			t.Fatalf("cell %q header mismatch: %+v vs %+v", ca.Name, ca, cb)
		}
		if len(ca.Pins) != len(cb.Pins) {
			t.Fatalf("cell %q pin count", ca.Name)
		}
		for j, pa := range ca.Pins {
			pb := cb.Pins[j]
			if pa.Name != pb.Name || pa.Direction != pb.Direction ||
				pa.Capacitance != pb.Capacitance || pa.MaxCap != pb.MaxCap || pa.Function != pb.Function {
				t.Fatalf("cell %q pin %q mismatch: %+v vs %+v", ca.Name, pa.Name, pa, pb)
			}
			if len(pa.Timing) != len(pb.Timing) {
				t.Fatalf("cell %q pin %q arc count", ca.Name, pa.Name)
			}
			for k, aa := range pa.Timing {
				ab := pb.Timing[k]
				if aa.RelatedPin != ab.RelatedPin || aa.Sense != ab.Sense || aa.Type != ab.Type {
					t.Fatalf("arc header mismatch")
				}
				ta, tb := aa.Tables(), ab.Tables()
				if len(ta) != len(tb) {
					t.Fatalf("arc table count mismatch")
				}
				for name := range ta {
					if !tablesEqual(ta[name], tb[name]) {
						t.Fatalf("cell %q pin %q arc %d table %s differs", ca.Name, pa.Name, k, name)
					}
				}
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	orig := sampleLibrary()
	s, err := WriteString(orig)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(s)
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, s)
	}
	librariesEqual(t, orig, parsed)
	if err := parsed.Validate(); err != nil {
		t.Fatalf("parsed library invalid: %v", err)
	}
}

// Property: random libraries round-trip through Write/Parse.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := &Library{
			Name:           "rnd",
			TimeUnit:       "1ns",
			CapacitiveUnit: "1pf",
			VoltageUnit:    "1V",
			NominalVoltage: 1.1,
			NominalTemp:    25,
		}
		nCells := rng.Intn(4) + 1
		for c := 0; c < nCells; c++ {
			nin := rng.Intn(3) + 1
			cell := &Cell{
				Name:          "C" + string(rune('A'+c)) + "_1",
				Area:          1 + rng.Float64()*10,
				DriveStrength: rng.Intn(8) + 1,
			}
			var arcs []*TimingArc
			for i := 0; i < nin; i++ {
				pin := &Pin{Name: "I" + string(rune('0'+i)), Direction: Input, Capacitance: rng.Float64() * 0.01}
				cell.Pins = append(cell.Pins, pin)
				tb := lut.NewFilled(
					[]float64{0.001, 0.01},
					[]float64{0.02, 0.2, 0.8},
					func(l, s float64) float64 { return rng.Float64() },
				)
				arcs = append(arcs, &TimingArc{
					RelatedPin: pin.Name, Sense: "negative_unate",
					CellRise: tb, CellFall: tb.Clone(),
					RiseTransition: tb.Clone(), FallTransition: tb.Clone(),
				})
			}
			cell.Pins = append(cell.Pins, &Pin{Name: "Y", Direction: Output, MaxCap: 0.1, Function: "!I0", Timing: arcs})
			l.AddCell(cell)
		}
		s, err := WriteString(l)
		if err != nil {
			return false
		}
		got, err := Parse(s)
		if err != nil {
			t.Logf("parse error: %v", err)
			return false
		}
		st := &testing.T{}
		librariesEqual(st, l, got)
		return !st.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWriterBytesPinned pins the writer's output for the sample library
// to the sha256 the fmt-based printer it replaced produced, and checks
// that Write to a file writes exactly the same bytes.
func TestWriterBytesPinned(t *testing.T) {
	const want = "36c2acd166c791362c6e5744945eef6783a2343ff2fc3952010fbb80e67d99a1"
	text, err := WriteString(sampleLibrary())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != want {
		t.Errorf("WriteString sha256 %s, want %s", got, want)
	}
	path := filepath.Join(t.TempDir(), "sample.lib")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, sampleLibrary()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != text {
		t.Error("Write to a file differs from WriteString")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"empty", ""},
		{"not library", "cell (X) { }"},
		{"unterminated group", "library (l) { cell (c) {"},
		{"unterminated string", `library (l) { time_unit : "1ns`},
		{"unterminated comment", "library (l) { /* foo }"},
		{"trailing tokens", "library (l) { } extra"},
		{"bad float in index", `library (l) { cell (c) { area : 1; pin (Y) { direction : output; timing () { related_pin : "A"; cell_rise (t) { index_1 ("x"); index_2 ("1"); values ("1"); } } } } }`},
		{"row count mismatch", `library (l) { cell (c) { area : 1; pin (Y) { direction : output; timing () { related_pin : "A"; cell_rise (t) { index_1 ("1, 2"); index_2 ("1"); values ("1"); } } } } }`},
		{"col count mismatch", `library (l) { cell (c) { area : 1; pin (Y) { direction : output; timing () { related_pin : "A"; cell_rise (t) { index_1 ("1"); index_2 ("1, 2"); values ("1"); } } } } }`},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParseSkipsUnknownContent(t *testing.T) {
	src := `
/* header comment */
library (weird) {
  time_unit : "1ns";
  some_unknown_attr : 42;
  operating_conditions (fast) {
    process : 1;
  }
  cell (BUF_1) {
    area : 2.0;
    unknown_complex (a, b, c);
    pin (A) { direction : input; capacitance : 0.003; }
    pin (Y) {
      direction : output;
      function : "A";
      timing () {
        related_pin : "A";
        cell_rise (tpl) {
          index_1 ("0.001, 0.01");
          index_2 ("0.02, 0.2");
          values ("0.1, 0.2", "0.3, 0.4");
        }
      }
    }
  }
}
`
	l, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "weird" {
		t.Errorf("name %q", l.Name)
	}
	c := l.Cell("BUF_1")
	if c == nil {
		t.Fatal("cell missing")
	}
	cr := c.Pin("Y").Timing[0].CellRise
	if cr == nil || cr.Values[1][1] != 0.4 {
		t.Fatalf("table not parsed: %+v", cr)
	}
}

func TestDirectionString(t *testing.T) {
	if Input.String() != "input" || Output.String() != "output" {
		t.Error("Direction.String broken")
	}
}

func TestPowerGroupsRoundTrip(t *testing.T) {
	l := sampleLibrary()
	c := l.Cell("INV_2")
	c.LeakagePower = 3.25
	y := c.Pin("Y")
	y.Power = append(y.Power, &PowerArc{
		RelatedPin: "A",
		Template:   "delay_template",
		RisePower:  sampleTable(0.02),
		FallPower:  sampleTable(0.018),
	})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	text, err := WriteString(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cell_leakage_power : 3.25", "internal_power ()", "rise_power", "fall_power"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
	back, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	bc := back.Cell("INV_2")
	if bc.LeakagePower != 3.25 {
		t.Errorf("leakage lost: %g", bc.LeakagePower)
	}
	pa := bc.Pin("Y").PowerArc("A")
	if pa == nil {
		t.Fatal("power arc lost")
	}
	if !tablesEqual(pa.RisePower, y.Power[0].RisePower) || !tablesEqual(pa.FallPower, y.Power[0].FallPower) {
		t.Error("power tables corrupted in round trip")
	}
	if bc.Pin("Y").PowerArc("NOPE") != nil {
		t.Error("unknown power arc found")
	}
}

func TestPowerValidation(t *testing.T) {
	l := sampleLibrary()
	c := l.Cell("INV_2")
	// Power arc on an input pin is invalid.
	c.Pin("A").Power = append(c.Pin("A").Power, &PowerArc{RelatedPin: "A"})
	if err := l.Validate(); err == nil {
		t.Error("internal_power on input pin accepted")
	}
	l2 := sampleLibrary()
	c2 := l2.Cell("INV_2")
	c2.Pin("Y").Power = append(c2.Pin("Y").Power, &PowerArc{RelatedPin: "NOPE"})
	if err := l2.Validate(); err == nil {
		t.Error("power arc to unknown pin accepted")
	}
}

// TestParserNeverPanics feeds random byte soup and mutated valid
// libraries to the parser: errors are fine, panics are not.
func TestParserNeverPanics(t *testing.T) {
	valid, err := WriteString(sampleLibrary())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte("library(cel){}:;,\"\\ \n\t/*0.19-eXy_")
	for i := 0; i < 500; i++ {
		var src string
		switch i % 3 {
		case 0: // pure noise
			b := make([]byte, rng.Intn(200))
			for j := range b {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
			src = string(b)
		case 1: // truncated valid library
			src = valid[:rng.Intn(len(valid))]
		default: // valid with a corrupted window
			b := []byte(valid)
			for k := 0; k < 5; k++ {
				b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
			}
			src = string(b)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on input %d: %v", i, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// TestWriteRefusesDoubleQuote: a Liberty string has no escapes, so a
// value holding a double quote fits no form. Write, WriteString and
// Append refuse such a library whole, and write nothing.
func TestWriteRefusesDoubleQuote(t *testing.T) {
	for _, mutate := range []func(*Library){
		func(l *Library) { l.Name = `lib"x` },
		func(l *Library) { l.TimeUnit = `1"ns` },
		func(l *Library) { l.Cells[0].Name = `C"1` },
		func(l *Library) { l.Cells[0].Footprint = `"` },
	} {
		l := sampleLibrary()
		mutate(l)
		var sb strings.Builder
		if err := Write(&sb, l); err == nil || sb.Len() != 0 {
			t.Errorf("Write: err=%v, %d bytes written", err, sb.Len())
		}
		if s, err := WriteString(l); err == nil || s != "" {
			t.Errorf("WriteString: err=%v, %d bytes", err, len(s))
		}
		if b, err := Append([]byte("keep"), l); err == nil || string(b) != "keep" {
			t.Errorf("Append: err=%v, buffer %q", err, b)
		}
	}
}
