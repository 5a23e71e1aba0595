package stdcelltune_test

import (
	"context"
	"errors"
	"testing"

	"stdcelltune"
	"stdcelltune/internal/liberty"
	"stdcelltune/internal/rtlgen"
	"stdcelltune/internal/statlib"
)

// TestErrCancelled pins the cancellation sentinel: a pre-cancelled
// context surfaces as ErrCancelled from every stage.
func TestErrCancelled(t *testing.T) {
	cat := stdcelltune.NewCatalogue(stdcelltune.Typical)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := stdcelltune.CharacterizeCtx(ctx, cat, stdcelltune.CharacterizeOptions{Instances: 4, Seed: 1}); !errors.Is(err, stdcelltune.ErrCancelled) {
		t.Fatalf("CharacterizeCtx: want ErrCancelled, got %v", err)
	}
	if _, _, err := stdcelltune.TuneCtx(ctx, nil, stdcelltune.TuneOptions{Method: stdcelltune.SigmaCeiling, Bound: 0.02}); !errors.Is(err, stdcelltune.ErrCancelled) {
		t.Fatalf("TuneCtx: want ErrCancelled, got %v", err)
	}
	design, err := stdcelltune.NewMCUWith(rtlgen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stdcelltune.SynthesizeCtx(ctx, design, cat, stdcelltune.SynthesizeOptions{Clock: 6}); !errors.Is(err, stdcelltune.ErrCancelled) {
		t.Fatalf("SynthesizeCtx: want ErrCancelled, got %v", err)
	}
}

// TestErrQuarantined pins the quarantine sentinel across package
// boundaries: a statistical-library build that loses too many cells
// must match the facade's ErrQuarantined via errors.Is.
func TestErrQuarantined(t *testing.T) {
	// Two instances whose second copy is missing most cells: everything
	// absent from instance 1 is quarantined, tripping the 50% limit.
	cat := stdcelltune.NewCatalogue(stdcelltune.Typical)
	full := cat.Lib
	gutted := &liberty.Library{Name: full.Name}
	for i, c := range full.Cells {
		if i%4 == 0 {
			gutted.AddCell(c)
		}
	}
	_, err := statlib.Build("gutted", []*liberty.Library{full, gutted})
	if err == nil {
		t.Fatal("want quarantine-limit error")
	}
	if !errors.Is(err, stdcelltune.ErrQuarantined) {
		t.Fatalf("want ErrQuarantined, got %v", err)
	}
}

// TestErrWindowInfeasible pins the infeasibility sentinel: a sigma
// ceiling below any achievable sigma excludes every pin, and TuneCtx
// reports that as ErrWindowInfeasible instead of returning windows that
// would make synthesis fail later.
func TestErrWindowInfeasible(t *testing.T) {
	cat := stdcelltune.NewCatalogue(stdcelltune.Typical)
	stat, err := stdcelltune.CharacterizeCtx(context.Background(), cat, stdcelltune.CharacterizeOptions{Instances: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = stdcelltune.TuneCtx(context.Background(), stat, stdcelltune.TuneOptions{Method: stdcelltune.SigmaCeiling, Bound: 1e-12})
	if !errors.Is(err, stdcelltune.ErrWindowInfeasible) {
		t.Fatalf("want ErrWindowInfeasible, got %v", err)
	}
}
