package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"
	"time"

	"stdcelltune/internal/liberty"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/query"
	"stdcelltune/internal/stdcell"
)

// TestCodecArtifactsPinned pins the bytes of the two text artifacts the
// Liberty and Verilog writers render, for the headline spec and one
// mcu-small spec. The digests were recorded from the fmt-based writers
// the append-based ones replaced, so the writers, and rendering the
// library while synthesis runs, cannot change a served byte. Each
// artifact must also read back through its parser and write out
// byte-identically.
func TestCodecArtifactsPinned(t *testing.T) {
	cases := []struct {
		spec             Spec
		statLib, netlist string
	}{
		{Spec{}, // headline: mcu, typical, seed 1
			"2ac5258feab4df7bc1ff8fe14414d7697b57b709e77730f00c9b558618917fee",
			"a659b57562a629e32e28b4ee25e24d2ee11f50851b3c0f4f2f2fc180a1525586"},
		{Spec{Design: "mcu-small", Seed: 1205},
			"5b4cebc8806770fe1d00238f93b9c3d545fcfaa805595d8df8c68ac940b135ea",
			"84aef09cbcc7bca39affd1d3e592c06948b9c6b93d983114116828483535adb3"},
	}
	for _, c := range cases {
		arts, err := Run(context.Background(), c.spec)
		if err != nil {
			t.Fatal(err)
		}
		lib, nl := arts[ArtifactStatLib], arts[ArtifactNetlist]
		if got := sha(lib); got != c.statLib {
			t.Errorf("%+v: %s sha256 %s, want %s", c.spec, ArtifactStatLib, got, c.statLib)
		}
		if got := sha(nl); got != c.netlist {
			t.Errorf("%+v: %s sha256 %s, want %s", c.spec, ArtifactNetlist, got, c.netlist)
		}

		parsed, err := liberty.Parse(string(lib))
		if err != nil {
			t.Fatal(err)
		}
		if back, err := liberty.Append(nil, parsed); err != nil || !bytes.Equal(back, lib) {
			t.Errorf("%+v: %s does not round-trip through Parse and Append", c.spec, ArtifactStatLib)
		}
		design, err := netlist.ParseVerilog(string(nl), stdcell.NewCatalogue(stdcell.Typical))
		if err != nil {
			t.Fatal(err)
		}
		var back bytes.Buffer
		if err := netlist.WriteVerilog(&back, design); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), nl) {
			t.Errorf("%+v: %s does not round-trip through ParseVerilog and WriteVerilog", c.spec, ArtifactNetlist)
		}
	}
}

// TestColdJobArtifactsPinned pins the SHA-256 of all seven artifacts of
// one small cold job, so a reordered float anywhere between the
// Monte-Carlo rows and the rendered artifacts (the model tables, the
// perturbation, the fold, the writers) fails tier-1, not only the
// benchmark's pinned digests. The hashes were recorded before the
// catalogue gained its per-entry model tables and the fold went
// parallel.
func TestColdJobArtifactsPinned(t *testing.T) {
	want := map[string]string{
		ArtifactNetlist:   "c99f7d58166351e2edba896a99681a6e71fa7fb6ac2bcd1d75721df47695754d",
		ArtifactSpec:      "e96b437a4353c1a781b8f2aef5855ac85adeda1f8774f6c8835e5a0c5b7e5e81",
		ArtifactStatLib:   "696bf02cd15df1f16115f69999a3204b23cbc06bfa77b45c8348a1029ce320a4",
		ArtifactSynthesis: "48694858181472be0e4728caf0e715e53dab54acf620fee2d94da4457029c042",
		ArtifactTuning:    "97afe47654c3d27b6a21a300fe76b6a59efeca4c76dd44b9a0fbf6e04a9e6ffa",
		ArtifactVariation: "a2e249baadb5c5f1360e958e8e41e89e20e5213c3b52e1902e527b836510e2cb",
		ArtifactWindows:   "6b9ef591d0f31af52eca7695c0d9a81d776756b05714255fed786ad1e3513dbe",
	}
	arts, err := Run(context.Background(), Spec{Design: "mcu-small", Instances: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != len(want) {
		t.Errorf("%d artifacts, want %d", len(arts), len(want))
	}
	for name, h := range want {
		if got := sha(arts[name]); got != h {
			t.Errorf("%s sha256 %s, want %s", name, got, h)
		}
	}
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestQueryStoreBuildMetrics: every store build counts once in
// query.store_builds and records one query.store_build latency; a hit,
// and a request that joined an in-flight build, record nothing.
func TestQueryStoreBuildMetrics(t *testing.T) {
	builds, lat := obs.Default().Counter("query.store_builds"), obs.Default().HDR("query.store_build")
	b0, n0 := builds.Value(), lat.Count()

	qs := newStoreCache[*query.Store](queryStoreBudget)
	release := make(chan struct{})
	var calls int
	build := func() (*query.Store, error) {
		calls++
		<-release
		return &query.Store{}, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := qs.get("d1", build); err != nil {
				t.Error(err)
			}
		}()
	}
	// Let the three requests reach the single flight, then finish it.
	for deadline := time.Now().Add(5 * time.Second); builds.Value() == b0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if _, err := qs.get("d1", build); err != nil { // cached
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("%d builds, want 1", calls)
	}
	if got := builds.Value() - b0; got != 1 {
		t.Errorf("query.store_builds grew by %d, want 1", got)
	}
	if got := lat.Count() - n0; got != 1 {
		t.Errorf("query.store_build recorded %d latencies, want 1", got)
	}
}
