package synth

import (
	"bytes"
	"testing"

	"stdcelltune/internal/netlist"
	"stdcelltune/internal/restrict"
	"stdcelltune/internal/rtlgen"
	"stdcelltune/internal/stdcell"
)

func smallMCU(t *testing.T) *rtlgen.MCU {
	t.Helper()
	m, err := rtlgen.Build(rtlgen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSynthesizeRelaxedMeetsTiming(t *testing.T) {
	m := smallMCU(t)
	res, err := Synthesize("mcu", m.Net, cat, DefaultOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("relaxed 6ns synthesis missed timing: WNS=%g violations=%d",
			res.Timing.WNS(), res.Violations())
	}
	if res.Violations() != 0 {
		t.Errorf("legality violations remain: %d", res.Violations())
	}
	if res.Area() <= 0 {
		t.Error("area must be positive")
	}
}

func TestImpossibleClockFails(t *testing.T) {
	m := smallMCU(t)
	res, err := Synthesize("mcu", m.Net, cat, DefaultOptions(0.35)) // 50ps effective
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Error("0.35ns clock should be unattainable")
	}
	if res.Timing.WNS() >= 0 {
		t.Error("expected negative WNS")
	}
}

// TestTighterClockCostsArea reproduces the Fig. 8 trend: decreasing the
// clock period increases cell area.
func TestTighterClockCostsArea(t *testing.T) {
	m := smallMCU(t)
	relaxed, err := Synthesize("mcu", m.Net, cat, DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Synthesize("mcu", m.Net, cat, DefaultOptions(1.4))
	if err != nil {
		t.Fatal(err)
	}
	if !relaxed.Met {
		t.Fatal("relaxed run missed timing")
	}
	t.Logf("area: 8ns=%.0f (met=%v)  1.4ns=%.0f (met=%v, wns=%.3f)",
		relaxed.Area(), relaxed.Met, tight.Area(), tight.Met, tight.Timing.WNS())
	if tight.Area() <= relaxed.Area() {
		t.Errorf("tight-clock area %.0f not above relaxed %.0f", tight.Area(), relaxed.Area())
	}
	if tight.Upsized == 0 {
		t.Error("tight clock should force upsizing")
	}
}

func TestOptimizePreservesFunction(t *testing.T) {
	m := smallMCU(t)
	res, err := Synthesize("mcu", m.Net, cat, DefaultOptions(1.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Netlist.Validate(); err != nil {
		t.Fatal(err)
	}
	// Sizing and buffering must not change behaviour.
	equivCheck(t, m.Net, res.Netlist, 30, 5)
}

func TestRestrictionsAreHonored(t *testing.T) {
	m := smallMCU(t)
	// Build a binding restriction: every cell's LUT is confined to its
	// lower-left quadrant (half the load range, half the slew range).
	rs := restrict.NewSet("quadrant")
	for name, spec := range cat.Specs {
		if spec.Kind == stdcell.KindTie {
			continue
		}
		axis := spec.LoadAxis()
		for _, out := range spec.Outputs {
			rs.Put(name, out, restrict.Window{
				MaxLoad: axis[len(axis)-1] / 2,
				MaxSlew: stdcell.SlewAxis[len(stdcell.SlewAxis)-1] / 2,
			})
		}
	}
	opts := DefaultOptions(6)
	opts.Restrict = rs
	res, err := Synthesize("mcu", m.Net, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("restricted synthesis missed: WNS=%g violations=%d", res.Timing.WNS(), res.Violations())
	}
	if res.Violations() != 0 {
		t.Fatalf("%d window violations remain", res.Violations())
	}
	// Every operating point must sit inside its window.
	for _, op := range res.Timing.OperatingPoints() {
		if w, ok := rs.Window(op.Inst.Spec.Name, op.OutPin); ok {
			if op.Load > w.MaxLoad+1e-12 {
				t.Fatalf("%s load %g over window %g", op.Inst.Spec.Name, op.Load, w.MaxLoad)
			}
			if op.WorstIn > w.MaxSlew+1e-12 {
				t.Fatalf("%s slew %g over window %g", op.Inst.Spec.Name, op.WorstIn, w.MaxSlew)
			}
		}
	}
	// Function still intact under restriction.
	equivCheck(t, m.Net, res.Netlist, 20, 3)
	// Restriction should cost area against the unrestricted baseline.
	base, err := Synthesize("mcu", m.Net, cat, DefaultOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("area: baseline=%.0f restricted=%.0f buffers=%d upsized=%d",
		base.Area(), res.Area(), res.Buffered, res.Upsized)
	if res.Area() < base.Area() {
		t.Errorf("restricted area %.0f below baseline %.0f", res.Area(), base.Area())
	}
}

func TestAreaRecoveryActsOnRelaxedDesigns(t *testing.T) {
	m := smallMCU(t)
	res, err := Synthesize("mcu", m.Net, cat, DefaultOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	// At a relaxed clock everything is already minimum size, so recovery
	// may have nothing to do — but the pass must at least run and leave a
	// legal, met design.
	if !res.Met {
		t.Error("relaxed design missed timing")
	}
	// Force oversizing then re-optimize: recovery must bring area down.
	for _, inst := range res.Netlist.Instances {
		fam := cat.Families[inst.Spec.Family]
		if err := res.Netlist.Resize(inst, fam[len(fam)-1]); err != nil {
			t.Fatal(err)
		}
	}
	bloated := res.Netlist.Area()
	res2, err := Optimize(res.Netlist, DefaultOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Met {
		t.Fatal("re-optimized design missed timing")
	}
	t.Logf("area: bloated=%.0f recovered=%.0f downsized=%d", bloated, res2.Area(), res2.Downsized)
	if res2.Area() >= bloated {
		t.Error("area recovery failed to shrink an oversized design")
	}
	if res2.Downsized == 0 {
		t.Error("no downsizing recorded")
	}
}

func TestDefaultOptionsNormalization(t *testing.T) {
	o := Options{Clock: 3}.normalized()
	if o.STA.ClockPeriod != 3 {
		t.Error("STA config not derived from clock")
	}
	if o.MaxIter == 0 {
		t.Error("MaxIter not defaulted")
	}
}

// TestLegalityRepairDeterministic: the slew repair reads a sink's slew
// window through one of the sink's output pins. For a multi-output sink
// (adders) whose outputs carry different windows, that pin must come
// from Spec.Outputs order, not from map iteration, or one spec
// synthesizes to different netlists run to run.
func TestLegalityRepairDeterministic(t *testing.T) {
	m := smallMCU(t)
	rs := restrict.NewSet("split-multi-output-windows")
	last := stdcell.SlewAxis[len(stdcell.SlewAxis)-1]
	multi := 0
	for name, spec := range cat.Specs {
		if len(spec.Outputs) < 2 {
			continue
		}
		multi++
		axis := spec.LoadAxis()
		for i, out := range spec.Outputs {
			w := restrict.Window{MaxLoad: axis[len(axis)-1], MaxSlew: last}
			if i == 0 {
				w.MaxSlew = stdcell.SlewAxis[1]
			}
			rs.Put(name, out, w)
		}
	}
	if multi == 0 {
		t.Fatal("fixture: catalogue has no multi-output cells")
	}
	opts := DefaultOptions(6)
	opts.Restrict = rs
	var first []byte
	for run := 0; run < 6; run++ {
		res, err := Synthesize("mcu", m.Net, cat, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := netlist.WriteVerilog(&buf, res.Netlist); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("run %d synthesized a different netlist than run 0", run)
		}
	}
}
