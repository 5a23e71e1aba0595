package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stdcelltune/internal/service/cache"
	"stdcelltune/internal/service/chaos"
	"stdcelltune/internal/service/journal"
)

// crashCase is one chaos scenario: arm kind at point, fire on the
// (after+1)-th pass, crash the "process" mid-flight, then prove
// recovery.
type crashCase struct {
	name  string
	point string
	kind  chaos.Kind
	after int
}

// crashAndRecover is the recovery acceptance harness. Phase 1 runs a
// journaled manager into an armed crash and abandons it — the dead
// injector guarantees nothing durable happens after the crash moment,
// the in-process analogue of SIGKILL. Phase 2 reopens the same statedir
// and cachedir with a fresh manager and asserts the crash-safety
// contract:
//
//   - no accepted job is lost: every Submit that returned success is
//     either terminal in the journal or re-enqueued by recovery;
//   - recovered jobs finish, and their artifact bytes are identical to
//     the reference computation (idempotency through the cache);
//   - the journal itself recovers: torn tails truncate, the compacted
//     file replays cleanly, and after the recovered jobs finish a third
//     open finds nothing pending.
func crashAndRecover(t *testing.T, tc crashCase, corruptCache bool) {
	t.Helper()
	stateDir, cacheDir := t.TempDir(), t.TempDir()
	specs := []Spec{{Seed: 1}, {Seed: 2}, {Seed: 3}}
	reference := make(map[string][]byte) // digest -> result.json bytes
	for _, s := range specs {
		reference[s.Normalized().Digest()] = fakeBlobs(s.Normalized())["result.json"]
	}

	// --- Phase 1: run into the crash. ---
	inj := chaos.New(int64(len(tc.point)) + int64(tc.after))
	inj.Arm(tc.point, tc.kind, tc.after)
	restore := chaos.Activate(inj)

	jnl1, recs, err := journal.Open(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh statedir replayed %d records", len(recs))
	}
	store1, err := cache.New(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(store1, ManagerOptions{
		Workers: 1, Journal: jnl1,
		Run: func(_ context.Context, s Spec) (map[string][]byte, error) { return fakeBlobs(s), nil },
	})
	accepted := make(map[string]string) // job id -> digest
	for _, s := range specs {
		j, err := m1.Submit(s, "")
		if err != nil {
			continue // the crash (or its aftermath) refused this one: client saw the error
		}
		accepted[j.ID] = j.Digest
	}
	// Run the doomed manager to quiescence, then abandon it. The expired
	// context hard-cancels anything still in flight, like the scheduler
	// disappearing under a real SIGKILL.
	deadCtx, cancel := context.WithCancel(context.Background())
	cancel()
	m1.Drain(deadCtx)
	restore() // the "process" is gone; chaos with it
	jnl1.Close()

	if corruptCache {
		// Flip a byte in every persisted artifact blob: phase 2's load
		// must drop the corrupt entries and recompute.
		filepath.Walk(cacheDir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() || filepath.Base(path) == "index.json" {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil || len(data) == 0 {
				return err
			}
			data[len(data)/2] ^= 0x20
			return os.WriteFile(path, data, 0o644)
		})
	}

	// --- Phase 2: a fresh daemon over the same directories. ---
	jnl2, recs2, err := journal.Open(stateDir)
	if err != nil {
		t.Fatalf("reopen journal after %s: %v", tc.name, err)
	}
	defer jnl2.Close()

	// No accepted job lost: every acceptance is either terminal in the
	// journal or pending for recovery.
	known := make(map[string]journal.State)
	for _, r := range recs2 {
		known[r.Job] = r.State
	}
	pending := journal.Pending(recs2)
	pendingSet := make(map[string]bool, len(pending))
	for _, r := range pending {
		pendingSet[r.Job] = true
	}
	for id := range accepted {
		st, ok := known[id]
		if !ok {
			t.Fatalf("%s: accepted job %s vanished from the journal", tc.name, id)
		}
		if !st.Terminal() && !pendingSet[id] {
			t.Fatalf("%s: job %s is %s but not pending for recovery", tc.name, id, st)
		}
	}

	store2, err := cache.New(cacheDir)
	if err != nil {
		t.Fatalf("reopen cache: %v", err)
	}
	m2 := NewManager(store2, ManagerOptions{
		Workers: 2, Journal: jnl2, Recovered: recs2,
		Run: func(_ context.Context, s Spec) (map[string][]byte, error) { return fakeBlobs(s), nil },
	})
	if m2.Recovered() != len(pending) {
		t.Fatalf("%s: recovered %d jobs, journal had %d pending", tc.name, m2.Recovered(), len(pending))
	}
	for _, r := range pending {
		j, ok := m2.Job(r.Job)
		if !ok {
			t.Fatalf("%s: pending job %s not re-registered", tc.name, r.Job)
		}
		if !j.Recovered {
			t.Fatalf("%s: job %s not marked recovered", tc.name, r.Job)
		}
		waitDone(t, j)
		if v := j.View(); v.Status != StatusDone {
			t.Fatalf("%s: recovered job %s ended %s: %s", tc.name, r.Job, v.Status, v.Error)
		}
	}

	// Byte identity: whatever survived or recomputed, the artifacts for
	// every accepted digest match the reference computation exactly.
	for id, dig := range accepted {
		want, ok := reference[dig]
		if !ok {
			t.Fatalf("%s: job %s has unknown digest %s", tc.name, id, dig)
		}
		// Terminal-before-crash jobs may have nothing cached (their bytes
		// were served before the crash); only pending ones must converge.
		if !pendingSet[id] {
			continue
		}
		e, ok := store2.Lookup(dig)
		if !ok {
			t.Fatalf("%s: no cache entry for recovered digest %s", tc.name, dig)
		}
		a := e.Artifact("result.json")
		if a == nil {
			t.Fatalf("%s: recovered entry for %s has no result.json", tc.name, dig)
		}
		if got, err := a.Bytes(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: recovered bytes for %s diverge from reference (%v)", tc.name, dig, err)
		}
	}

	// Clean shutdown of the recovered daemon, then a third open: nothing
	// left pending, the journal replays end to end.
	drainCtx, cancel3 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel3()
	if err := m2.Drain(drainCtx); err != nil {
		t.Fatalf("%s: recovered daemon did not drain: %v", tc.name, err)
	}
	jnl2.Close()
	jnl3, recs3, err := journal.Open(stateDir)
	if err != nil {
		t.Fatalf("%s: third open: %v", tc.name, err)
	}
	jnl3.Close()
	if left := journal.Pending(recs3); len(left) != 0 {
		t.Fatalf("%s: %d jobs still pending after full recovery: %+v", tc.name, len(left), left)
	}
}

// TestCrashPointRecovery walks every instrumented crash moment — journal
// accept/running/terminal writes and syncs, cache persistence — in both
// hard-crash and torn-write flavors.
func TestCrashPointRecovery(t *testing.T) {
	cases := []crashCase{
		{"accept-pre-write", "journal.accepted.pre-write", chaos.Crash, 1},
		{"accept-torn", "journal.accepted.write", chaos.Torn, 1},
		{"accept-pre-sync", "journal.accepted.pre-sync", chaos.Crash, 1},
		{"running-pre-write", "journal.running.pre-write", chaos.Crash, 1},
		{"running-torn", "journal.running.write", chaos.Torn, 1},
		{"done-pre-write", "journal.done.pre-write", chaos.Crash, 0},
		{"done-torn", "journal.done.write", chaos.Torn, 1},
		{"done-pre-sync", "journal.done.pre-sync", chaos.Crash, 2},
		{"cache-pre-write", "cache.persist.pre-write", chaos.Crash, 0},
		{"cache-mid-write", "cache.persist.write", chaos.Crash, 1},
		{"cache-pre-rename", "cache.persist.pre-rename", chaos.Crash, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { crashAndRecover(t, tc, false) })
	}
}

// TestCorruptCacheEntryRecovery: crash before the terminal record, then
// rot the persisted cache bytes on disk. The reopened store must drop
// the corrupt entries (counted) and the recovered jobs recompute to the
// exact reference bytes anyway.
func TestCorruptCacheEntryRecovery(t *testing.T) {
	crashAndRecover(t, crashCase{"corrupt-cache", "journal.done.pre-write", chaos.Crash, 0}, true)
}

// TestRandomizedCrashRecovery fuzzes the schedule: a seeded generator
// picks crash points, flavors, and firing offsets; every combination
// must satisfy the same recovery contract. Deterministic per seed, so a
// failure names its reproduction.
func TestRandomizedCrashRecovery(t *testing.T) {
	crashPoints := []string{
		"journal.accepted.pre-write", "journal.accepted.write", "journal.accepted.pre-sync",
		"journal.running.pre-write", "journal.running.write",
		"journal.done.pre-write", "journal.done.write", "journal.done.pre-sync",
		"cache.persist.pre-write", "cache.persist.write", "cache.persist.pre-rename",
	}
	// A torn write only means something where bytes are framed: the
	// journal's write sites.
	tornPoints := []string{"journal.accepted.write", "journal.running.write", "journal.done.write"}
	n := 12
	if testing.Short() {
		n = 4
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		rng := rand.New(rand.NewSource(seed))
		tc := crashCase{kind: chaos.Crash, after: rng.Intn(3)}
		if rng.Intn(2) == 1 {
			tc.kind = chaos.Torn
			tc.point = tornPoints[rng.Intn(len(tornPoints))]
		} else {
			tc.point = crashPoints[rng.Intn(len(crashPoints))]
		}
		tc.name = fmt.Sprintf("seed%d-%s-%s-after%d", seed, tc.point, tc.kind, tc.after)
		t.Run(tc.name, func(t *testing.T) { crashAndRecover(t, tc, false) })
	}
}
