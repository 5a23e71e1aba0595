package netlist

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// truthTables renders every catalogue cell's function, one line per
// cell: for each output pin, its value under every input combination
// (bit i of the combination drives Inputs[i]; a sequential cell's
// captured state is the top bit). eval maps one combination, given as
// pin values plus "__state", to the output values.
func truthTables(t *testing.T, eval func(spec string, ins map[string]bool) map[string]bool) string {
	t.Helper()
	var b strings.Builder
	for _, name := range cat.CellNames() {
		spec := cat.Spec(name)
		k := len(spec.Inputs)
		if spec.IsSequential() {
			k++
		}
		bits := map[string][]byte{}
		for c := 0; c < 1<<k; c++ {
			ins := map[string]bool{}
			for i, p := range spec.Inputs {
				ins[p] = c>>i&1 == 1
			}
			if spec.IsSequential() {
				ins["__state"] = c>>len(spec.Inputs)&1 == 1
			}
			for pin, v := range eval(name, ins) {
				if bits[pin] == nil {
					bits[pin] = []byte(strings.Repeat("x", 1<<k))
				}
				bits[pin][c] = "01"[b2i(v)]
			}
		}
		pins := make([]string, 0, len(bits))
		for p := range bits {
			pins = append(pins, p)
		}
		sort.Strings(pins)
		b.WriteString(name)
		for _, p := range pins {
			fmt.Fprintf(&b, " %s=%s", p, bits[p])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// TestEvalGolden holds the cell functions to testdata/evalcell.golden,
// the truth tables the map-based evaluator produced before the
// simulator moved to index-addressed nets: the slice evaluator the
// simulator steps with, and the EvalCell adapter over it, must both
// reproduce every line.
func TestEvalGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/evalcell.golden")
	if err != nil {
		t.Fatal(err)
	}
	direct := truthTables(t, func(name string, ins map[string]bool) map[string]bool {
		spec := cat.Spec(name)
		in := make([]bool, len(spec.Inputs))
		for i, p := range spec.Inputs {
			in[i] = ins[p]
		}
		out := make([]bool, len(spec.Outputs))
		if err := evalCell(spec, in, ins["__state"], out); err != nil {
			t.Fatal(err)
		}
		m := map[string]bool{}
		for i, p := range spec.Outputs {
			m[p] = out[i]
		}
		return m
	})
	adapter := truthTables(t, func(name string, ins map[string]bool) map[string]bool {
		out, err := EvalCell(cat.Spec(name), ins)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
	for label, got := range map[string]string{"evalCell": direct, "EvalCell": adapter} {
		if got == string(want) {
			continue
		}
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range w {
			if i >= len(g) || g[i] != w[i] {
				t.Fatalf("%s line %d:\n got %q\nwant %q", label, i+1, g[min(i, len(g)-1)], w[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d", label, len(g), len(w))
	}
}

// TestSimulatorStaleAfterTopologyEdit: a simulator built before a
// repeater is inserted must refuse to step rather than skip the new
// instance and read its net as false.
func TestSimulatorStaleAfterTopologyEdit(t *testing.T) {
	nl := buildXorViaNandInv(t)
	sim, err := NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]bool{"a": true, "b": false}
	if _, err := sim.Step(in); err != nil {
		t.Fatal(err)
	}
	ny := nl.OutputNet("y")
	var ffSink Sink
	for _, s := range ny.Sinks {
		if s.Inst != nil && s.Inst.Name == "u_ff" {
			ffSink = s
		}
	}
	nl.InsertBuffer(ny, cat.Spec("BUF_2"), []Sink{ffSink})
	if _, err := sim.Step(in); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("Step after InsertBuffer: err %v, want a stale-simulator error", err)
	}
	if err := sim.Advance(in); err == nil {
		t.Fatal("Advance after InsertBuffer: no error")
	}
	// A fresh simulator sees the repeater.
	fresh, err := NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Step(in)
	if out, err := fresh.Step(in); err != nil || !out["y"] || !out["q"] {
		t.Fatalf("fresh simulator: %v %v", out, err)
	}
}

// TestSimulatorHonoursResize: resizes leave the topology alone, so a
// simulator keeps stepping across them and reads the current spec.
func TestSimulatorHonoursResize(t *testing.T) {
	nl := buildXorViaNandInv(t)
	ref := buildXorViaNandInv(t)
	sim, err := NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	refSim, err := NewSimulator(ref)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string][]string{
		"u_xnr": {"XNR2_4", "XNR2_1", "XNR2_40"},
		"u_inv": {"INV_8", "INV_64", "INV_2"},
		"u_ff":  {"DFQ_4", "DFQ_32", "DFQ_1"},
	}
	for cyc := 0; cyc < 12; cyc++ {
		for _, inst := range nl.Instances {
			if to := sizes[inst.Name]; to != nil {
				if err := nl.Resize(inst, cat.Spec(to[cyc%len(to)])); err != nil {
					t.Fatal(err)
				}
			}
		}
		in := map[string]bool{"a": cyc&1 == 1, "b": cyc&2 == 2}
		got, err := sim.Step(in)
		if err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		want, _ := refSim.Step(in)
		if got["y"] != want["y"] || got["q"] != want["q"] {
			t.Fatalf("cycle %d: resized %v, reference %v", cyc, got, want)
		}
		for _, n := range nl.Nets {
			if sim.NetValue(n) != refSim.NetValue(ref.Nets[n.ID]) {
				t.Fatalf("cycle %d: net %s differs after resize", cyc, n.Name)
			}
		}
	}
	if nl.Instances[0].Spec.Name != "XNR2_40" {
		t.Fatalf("resize did not stick: %s", nl.Instances[0].Spec.Name)
	}
}
