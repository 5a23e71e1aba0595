package exp

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"stdcelltune/internal/obs"
)

// TestSerialParallelIdentity is the determinism contract of the
// experiment fan-out: running the synthesis-heavy drivers on a
// single-worker pool and on the default pool must render byte-identical
// tables and curves. Every unit is single-flight cached and collected
// by index, so scheduling order must not leak into any result. On both
// pools, Table3's synthesis outcomes must also equal the golden rows
// recorded when every display key still ran its own synthesis: sharing
// a problem across keys may not change any key's row.
func TestSerialParallelIdentity(t *testing.T) {
	data, err := os.ReadFile("testdata/table3_synth_outcomes.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []obs.SynthOutcome
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	render := func(workers int) (table3, fig8, fig11, power string) {
		t.Helper()
		old := poolWorkers
		poolWorkers = func() int { return workers }
		defer func() { poolWorkers = old }()
		f, err := NewFlow(context.Background(), SmallFlowConfig())
		if err != nil {
			t.Fatal(err)
		}
		t3, err := f.Table3()
		if err != nil {
			t.Fatal(err)
		}
		checkOutcomes(t, workers, f.SynthOutcomes(), golden)
		f8, err := f.Fig8()
		if err != nil {
			t.Fatal(err)
		}
		f11, err := f.Fig11()
		if err != nil {
			t.Fatal(err)
		}
		pw, err := f.ExtPower()
		if err != nil {
			t.Fatal(err)
		}
		return t3.Render(), f8.Render(), f11.Render(), pw.Render()
	}
	st3, sf8, sf11, spw := render(1)
	pt3, pf8, pf11, ppw := render(4)
	if st3 != pt3 {
		t.Errorf("Table3 serial != parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", st3, pt3)
	}
	if sf8 != pf8 {
		t.Errorf("Fig8 serial != parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", sf8, pf8)
	}
	if sf11 != pf11 {
		t.Errorf("Fig11 serial != parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", sf11, pf11)
	}
	if spw != ppw {
		t.Errorf("ExtPower serial != parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", spw, ppw)
	}
}

// checkOutcomes compares synth_outcomes rows with the golden, every key
// and every field.
func checkOutcomes(t *testing.T, workers int, got, want []obs.SynthOutcome) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%d workers: synth outcome %d\n got %+v\nwant %+v", workers, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d workers: %d synth outcomes, golden has %d", workers, len(got), len(want))
	}
}

// TestSynthOutcomesRecorded checks every cached synthesis unit leaves a
// well-formed outcome row for the manifest, sorted by key.
func TestSynthOutcomesRecorded(t *testing.T) {
	f := smallFlow(t)
	if _, err := f.Baseline(8.0); err != nil {
		t.Fatal(err)
	}
	outs := f.SynthOutcomes()
	if len(outs) == 0 {
		t.Fatal("no synth outcomes recorded")
	}
	for i, o := range outs {
		if o.Key == "" || o.Iterations < 1 || o.FullAnalyses < 1 {
			t.Errorf("outcome %d malformed: %+v", i, o)
		}
		if i > 0 && outs[i-1].Key >= o.Key {
			t.Errorf("outcomes not sorted: %q before %q", outs[i-1].Key, o.Key)
		}
	}
}
