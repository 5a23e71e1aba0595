package stdcelltune_test

import (
	"context"
	"strings"
	"testing"

	"stdcelltune"
	"stdcelltune/internal/rtlgen"
)

// TestFacadeEndToEnd drives the whole public API once: catalogue,
// characterization, tuning, baseline and restricted synthesis, and the
// sigma comparison the paper is about.
func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()
	cat := stdcelltune.NewCatalogue(stdcelltune.Typical)
	if got := len(cat.Lib.Cells); got != 304 {
		t.Fatalf("catalogue cells %d want 304", got)
	}
	stat, err := stdcelltune.CharacterizeCtx(ctx, cat, stdcelltune.CharacterizeOptions{Instances: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	win, rep, err := stdcelltune.TuneCtx(ctx, stat, stdcelltune.TuneOptions{Method: stdcelltune.SigmaCeiling, Bound: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if win.Len() == 0 || len(rep.Pins) == 0 {
		t.Fatal("tuning produced nothing")
	}
	design, err := stdcelltune.NewMCUWith(rtlgen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := stdcelltune.SynthesizeCtx(ctx, design, cat, stdcelltune.SynthesizeOptions{Clock: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Met {
		t.Fatal("baseline missed timing")
	}
	tuned, err := stdcelltune.SynthesizeCtx(ctx, design, cat, stdcelltune.SynthesizeOptions{Clock: 6, Windows: win})
	if err != nil {
		t.Fatal(err)
	}
	if !tuned.Met {
		t.Fatalf("restricted synthesis missed timing (violations %d)", tuned.Violations())
	}
	bs, err := stdcelltune.AnalyzeVariationCtx(ctx, base, stat, stdcelltune.AnalyzeVariationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := stdcelltune.AnalyzeVariationCtx(ctx, tuned, stat, stdcelltune.AnalyzeVariationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cmp := stdcelltune.Compare{
		BaselineSigma: bs.Design.Sigma, TunedSigma: ts.Design.Sigma,
		BaselineArea: base.Area(), TunedArea: tuned.Area(),
	}
	t.Logf("sigma %.4f -> %.4f (-%.0f%%), area %.0f -> %.0f (+%.1f%%)",
		bs.Design.Sigma, ts.Design.Sigma, 100*cmp.SigmaReduction(),
		base.Area(), tuned.Area(), 100*cmp.AreaIncrease())
	if ts.Design.Sigma >= bs.Design.Sigma {
		t.Errorf("tuning did not reduce design sigma: %g vs %g", ts.Design.Sigma, bs.Design.Sigma)
	}
}

func TestFacadeLibertyRoundTrip(t *testing.T) {
	cat := stdcelltune.NewCatalogue(stdcelltune.Fast)
	text, err := stdcelltune.WriteLiberty(cat.Lib)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "library (stc40_FF1P21V0C)") {
		t.Error("corner name missing from liberty output")
	}
	back, err := stdcelltune.ParseLiberty(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != 304 {
		t.Errorf("round trip lost cells: %d", len(back.Cells))
	}
}

func TestFacadeMethodsAndBounds(t *testing.T) {
	if len(stdcelltune.Methods) != 5 {
		t.Fatal("five methods expected")
	}
	for _, m := range stdcelltune.Methods {
		if len(stdcelltune.SweepBounds(m)) != 4 {
			t.Errorf("method %v sweep size", m)
		}
	}
}
