package cache

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"stdcelltune/internal/obs"
)

func blobs(v string) map[string][]byte {
	return map[string][]byte{"a.json": []byte(v), "b.lib": []byte(v + v)}
}

// mustBytes reads an artifact body, failing the test on a lost blob.
func mustBytes(t *testing.T, a *Artifact) []byte {
	t.Helper()
	b, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGetOrComputeSingleFlight(t *testing.T) {
	s, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(context.Context) (map[string][]byte, error) {
		if computes.Add(1) == 1 {
			close(started)
		}
		<-release
		return blobs("x"), nil
	}
	const callers = 8
	outcomes := make([]string, callers)
	entries := make([]*Entry, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			e, outcome, err := s.GetOrCompute(context.Background(), "sha256:d1", compute)
			if err != nil {
				t.Error(err)
			}
			entries[i], outcomes[i] = e, outcome
		}(i)
	}
	close(start)
	// Wait until the one compute is running, then release it. Scheduling
	// decides how many callers attach while the flight is open ("shared")
	// versus arrive after it sealed ("hit") — the hard invariant is that
	// exactly one computed.
	<-started
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	misses := 0
	for i, o := range outcomes {
		switch o {
		case "miss":
			misses++
		case "shared", "hit":
		default:
			t.Errorf("caller %d outcome %q", i, o)
		}
		if entries[i] == nil || entries[i].Artifact("a.json") == nil {
			t.Fatalf("caller %d got no entry", i)
		}
		// All callers must see the same sealed entry.
		if entries[i] != entries[0] {
			t.Errorf("caller %d got a different entry", i)
		}
	}
	if misses != 1 {
		t.Fatalf("outcomes %v: %d misses, want exactly 1", outcomes, misses)
	}
	// A later call is a pure hit.
	hitsBefore := obs.Default().Counter("service.cache_hits").Value()
	_, outcome, err := s.GetOrCompute(context.Background(), "sha256:d1", compute)
	if err != nil || outcome != "hit" {
		t.Fatalf("warm call: outcome %q err %v", outcome, err)
	}
	if got := obs.Default().Counter("service.cache_hits").Value(); got != hitsBefore+1 {
		t.Fatalf("hit counter did not increment: %d -> %d", hitsBefore, got)
	}
}

// TestSharedOutcome pins the single-flight attach path deterministically:
// a second caller that arrives while the first compute is blocked reports
// "shared" and returns the first caller's entry.
func TestSharedOutcome(t *testing.T) {
	s, _ := New("")
	started := make(chan struct{})
	release := make(chan struct{})
	first := make(chan *Entry, 1)
	go func() {
		e, _, _ := s.GetOrCompute(context.Background(), "sha256:sh", func(context.Context) (map[string][]byte, error) {
			close(started)
			<-release
			return blobs("once"), nil
		})
		first <- e
	}()
	<-started
	type res struct {
		e       *Entry
		outcome string
	}
	// The waiter increments the shared counter before blocking on the
	// flight, so the counter is the handshake that it attached.
	shared := obs.Default().Counter("service.cache_shared")
	base := shared.Value()
	second := make(chan res, 1)
	go func() {
		e, outcome, _ := s.GetOrCompute(context.Background(), "sha256:sh", nil)
		second <- res{e, outcome}
	}()
	for shared.Value() == base {
		runtime.Gosched()
	}
	close(release)
	got := <-second
	if got.outcome != "shared" {
		t.Fatalf("second caller outcome %q, want shared", got.outcome)
	}
	if e := <-first; got.e != e {
		t.Fatal("shared caller got a different entry than the computing caller")
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	s, _ := New("")
	boom := errors.New("boom")
	_, outcome, err := s.GetOrCompute(context.Background(), "sha256:e", func(context.Context) (map[string][]byte, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) || outcome != "miss" {
		t.Fatalf("got %q/%v", outcome, err)
	}
	// The failure must not poison the key: the next call recomputes.
	e, outcome, err := s.GetOrCompute(context.Background(), "sha256:e", func(context.Context) (map[string][]byte, error) {
		return blobs("ok"), nil
	})
	if err != nil || outcome != "miss" || e == nil {
		t.Fatalf("retry after error: %q %v", outcome, err)
	}
}

func TestContentAddressing(t *testing.T) {
	s, _ := New("")
	e, err := s.Put("sha256:d2", blobs("hello"))
	if err != nil {
		t.Fatal(err)
	}
	a := e.Artifact("a.json")
	if a == nil || a.Size != 5 {
		t.Fatalf("artifact missing or wrong size: %+v", a)
	}
	if len(a.SHA256) != 64 {
		t.Fatalf("sha256 %q", a.SHA256)
	}
	if e.Artifact("b.lib").SHA256 == a.SHA256 {
		t.Fatal("different content hashed identically")
	}
	// Names are sorted for deterministic manifests.
	if e.Artifacts[0].Name != "a.json" || e.Artifacts[1].Name != "b.lib" {
		t.Fatalf("artifacts not sorted: %v, %v", e.Artifacts[0].Name, e.Artifacts[1].Name)
	}
}

func TestInvalidArtifactName(t *testing.T) {
	s, _ := New("")
	for _, name := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := s.Put("sha256:d3", map[string][]byte{name: []byte("x")}); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Put("sha256:abc", blobs("persisted"))
	if err != nil {
		t.Fatal(err)
	}
	// A corrupt sibling entry must be skipped on reload, not fatal.
	bad := filepath.Join(dir, "sha256_bad")
	os.MkdirAll(bad, 0o755)
	os.WriteFile(filepath.Join(bad, "index.json"), []byte("{not json"), 0o644)

	s2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("rehydrated %d entries, want 1 (corrupt one skipped)", s2.Len())
	}
	got, ok := s2.Lookup("sha256:abc")
	if !ok {
		t.Fatal("persisted entry not found after reload")
	}
	for i, a := range want.Artifacts {
		b := got.Artifacts[i]
		if a.Name != b.Name || a.SHA256 != b.SHA256 || string(mustBytes(t, a)) != string(mustBytes(t, b)) {
			t.Fatalf("artifact %s changed across restart", a.Name)
		}
	}
	// Tampering with a blob invalidates the whole entry on reload.
	os.WriteFile(filepath.Join(dir, "sha256_abc", "a.json"), []byte("tampered"), 0o644)
	s3, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Lookup("sha256:abc"); ok {
		t.Fatal("tampered entry survived content verification")
	}
}

func TestWaiterCancellation(t *testing.T) {
	s, _ := New("")
	started := make(chan struct{})
	release := make(chan struct{})
	computed := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCompute(context.Background(), "sha256:w", func(context.Context) (map[string][]byte, error) {
			close(started)
			<-release
			return blobs("late"), nil
		})
		computed <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := s.GetOrCompute(ctx, "sha256:w", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", err)
	}
	close(release)
	// The computing caller installs its entry into the process-wide
	// residency gauge; wait for it so no later test sees it land.
	if err := <-computed; err != nil {
		t.Fatalf("computing caller got %v", err)
	}
}

// TestCorruptEntryDroppedAndCounted: entries whose on-disk bytes rot are
// silently skipped at load — but never silently for the operator: each
// drop increments cache.corrupt_dropped and the healthy entries survive.
func TestCorruptEntryDroppedAndCounted(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("sha256:good", blobs("keep")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("sha256:rot", blobs("rot")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("sha256:noindex", blobs("gone")); err != nil {
		t.Fatal(err)
	}

	// Corrupt one blob (hash mismatch) and delete another entry's index.
	rotBlob := filepath.Join(dir, entryDirName("sha256:rot"), "a.json")
	if err := os.WriteFile(rotBlob, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, entryDirName("sha256:noindex"), "index.json")); err != nil {
		t.Fatal(err)
	}

	before := obs.Default().Counter("cache.corrupt_dropped").Value()
	s2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter("cache.corrupt_dropped").Value(); got != before+2 {
		t.Fatalf("corrupt_dropped %d -> %d, want +2", before, got)
	}
	if _, ok := s2.Lookup("sha256:rot"); ok {
		t.Fatal("tampered entry served from cache")
	}
	if _, ok := s2.Lookup("sha256:noindex"); ok {
		t.Fatal("index-less entry served from cache")
	}
	e, ok := s2.Lookup("sha256:good")
	if !ok {
		t.Fatal("healthy entry lost while dropping corrupt neighbors")
	}
	if string(mustBytes(t, e.Artifact("a.json"))) != "keep" {
		t.Fatal("healthy entry's bytes changed")
	}
}
