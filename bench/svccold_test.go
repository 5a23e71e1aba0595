package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"stdcelltune/internal/service"
)

// TestServedDesignCheck pins the check a cold job's synthesis artifacts
// fall back to when an in-process rerun synthesized another netlist: a
// genuine artifact set passes, and a served figure its netlist does not
// produce is named.
func TestServedDesignCheck(t *testing.T) {
	ctx := context.Background()
	spec := smokeSize.jobSpec(1, seedCold)
	blobs, err := service.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := checkServedDesign(ctx, spec, blobs)
	if err != nil || len(bad) != 0 {
		t.Fatalf("genuine artifacts: mismatches %q, err %v", bad, err)
	}

	for _, tc := range []struct{ artifact, field string }{
		{service.ArtifactSynthesis, "area_um2"},
		{service.ArtifactVariation, "design_sigma_ns"},
	} {
		tampered := map[string][]byte{}
		for name, data := range blobs {
			tampered[name] = data
		}
		key := []byte(`"` + tc.field + `": `)
		at := bytes.Index(blobs[tc.artifact], key)
		if at < 0 {
			t.Fatalf("%s has no %s", tc.artifact, tc.field)
		}
		at += len(key)
		tampered[tc.artifact] = append(append(append([]byte(nil), blobs[tc.artifact][:at]...), '1'), blobs[tc.artifact][at:]...)
		bad, err := checkServedDesign(ctx, spec, tampered)
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) != 1 || !strings.Contains(bad[0], tc.field) {
			t.Errorf("%s with a changed %s: mismatches %q, want one naming it", tc.artifact, tc.field, bad)
		}
	}
}
