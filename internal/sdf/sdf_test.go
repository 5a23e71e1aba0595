package sdf

import (
	"strings"
	"testing"

	"stdcelltune/internal/netlist"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/variation"
)

var cat = stdcell.NewCatalogue(stdcell.Typical)

func smallDesign(t *testing.T) (*netlist.Netlist, *sta.Result) {
	t.Helper()
	nl := netlist.New("tiny", cat)
	in := nl.AddInput("a")
	ff := nl.AddInstance("u_ff", cat.Spec("DFQ_1"))
	nl.Connect(ff, "D", in)
	q := nl.AddNet("")
	nl.Drive(ff, "Q", q)
	inv := nl.AddInstance("u_inv", cat.Spec("INV_2"))
	nl.Connect(inv, "A", q)
	y := nl.AddNet("")
	nl.Drive(inv, "Y", y)
	nl.MarkOutput("z", y)
	r, err := sta.Analyze(nl, sta.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	return nl, r
}

func TestWriteStructure(t *testing.T) {
	nl, r := smallDesign(t)
	var sb strings.Builder
	if err := Write(&sb, nl, r, Options{DesignName: "tiny_top"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"(DELAYFILE",
		`(SDFVERSION "2.1")`,
		`(DESIGN "tiny_top")`,
		"(TIMESCALE 1ns)",
		`(CELLTYPE "DFQ_1")`,
		"(INSTANCE u_ff)",
		"(IOPATH (posedge CK) Q",
		`(CELLTYPE "INV_2")`,
		"(IOPATH A Y",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SDF missing %q:\n%s", want, out)
		}
	}
	// Balanced parentheses.
	if strings.Count(out, "(") != strings.Count(out, ")") {
		t.Error("unbalanced parentheses")
	}
}

func TestTriplesMatchSTA(t *testing.T) {
	nl, r := smallDesign(t)
	var sb strings.Builder
	if err := Write(&sb, nl, r, Options{}); err != nil {
		t.Fatal(err)
	}
	// The INV arc delay at its operating point must appear in the file.
	inv := nl.Instances[1]
	y := inv.Output("Y")
	arc := cat.Lib.Cell("INV_2").Pin("Y").Timing[0]
	q := inv.Input("A")
	rise := arc.CellRise.Lookup(r.Load[y.ID], r.Slew[q.ID])
	want := num(rise)
	if !strings.Contains(sb.String(), want) {
		t.Errorf("SDF missing interpolated delay %s:\n%s", want, sb.String())
	}
}

func TestSigmaDeratedMaxCorner(t *testing.T) {
	nl, r := smallDesign(t)
	libs := variation.Instances(cat, variation.Config{N: 10, Seed: 3})
	stat, err := statlib.Build("stat", libs)
	if err != nil {
		t.Fatal(err)
	}
	var plain, derated strings.Builder
	if err := Write(&plain, nl, r, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Write(&derated, nl, r, Options{Stat: stat}); err != nil {
		t.Fatal(err)
	}
	if plain.String() == derated.String() {
		t.Error("statistical derating had no effect")
	}
	// Max corner >= typ corner on every triple in the derated file.
	for _, line := range strings.Split(derated.String(), "\n") {
		if !strings.Contains(line, "IOPATH") {
			continue
		}
		for _, tok := range strings.Split(line, "(") {
			if !strings.Contains(tok, ":") {
				continue
			}
			parts := strings.Split(strings.TrimRight(strings.TrimSpace(tok), ") "), ":")
			if len(parts) != 3 {
				continue
			}
			if parts[2] < parts[1] { // same width fixed-point strings compare lexically
				t.Errorf("max below typ in %q", line)
			}
		}
	}
}

func TestNameEscaping(t *testing.T) {
	if sdfName("u_rf_r1[3]") != `u_rf_r1\[3\]` {
		t.Errorf("escape: %q", sdfName("u_rf_r1[3]"))
	}
	if sdfName("plain") != "plain" {
		t.Error("plain name mangled")
	}
}

// TestWriteDeterministic: a multi-output cell's IOPATH blocks come out
// in Spec.Outputs order (ADDF: S, then CO), so writing one design
// repeatedly gives the same bytes every time.
func TestWriteDeterministic(t *testing.T) {
	nl := netlist.New("adder", cat)
	fa := nl.AddInstance("u_fa", cat.Spec("ADDF_2"))
	for _, pin := range []string{"A", "B", "CI"} {
		nl.Connect(fa, pin, nl.AddInput(strings.ToLower(pin)))
	}
	for _, pin := range []string{"CO", "S"} { // driven in the other order
		n := nl.AddNet("")
		nl.Drive(fa, pin, n)
		nl.MarkOutput(strings.ToLower(pin), n)
	}
	r, err := sta.Analyze(nl, sta.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if err := Write(&sb, nl, r, Options{}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sb.String()
		} else if sb.String() != first {
			t.Fatalf("write %d differs from the first:\n%s\nvs\n%s", i, sb.String(), first)
		}
	}
	s, co := strings.Index(first, "(IOPATH A S "), strings.Index(first, "(IOPATH A CO ")
	if s < 0 || co < 0 || s > co {
		t.Fatalf("want the S block before the CO block:\n%s", first)
	}
	if !strings.Contains(first, "(IOPATH CI CO ") {
		t.Fatalf("missing the CI->CO arc:\n%s", first)
	}
}
