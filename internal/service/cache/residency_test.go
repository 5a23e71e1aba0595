package cache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"stdcelltune/internal/obs"
)

// sized is an artifact set of two blobs, a.json (n bytes) and b.lib
// (2n bytes), whose content names the entry.
func sized(tag string, n int) map[string][]byte {
	body := strings.Repeat(tag, n/len(tag)+1)
	return map[string][]byte{"a.json": []byte(body[:n]), "b.lib": []byte((body + body)[:2*n])}
}

// budgeted is a persistent store whose LRU holds budget bytes.
func budgeted(t *testing.T, budget int) *Store {
	t.Helper()
	s, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.budget = budget
	return s
}

func residentOf(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident
}

func isResident(s *Store, a *Artifact) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return a.elem != nil
}

// TestResidentBytesFlat: a persistent store's resident bytes after 2N
// puts are those after N, never above the budget, and the process gauge
// moves with them; every entry stays in the index.
func TestResidentBytesFlat(t *testing.T) {
	const budget, n = 10_000, 40 // an entry is 1,500 bytes
	s := budgeted(t, budget)
	gauge := obs.Default().Gauge("cache.resident_bytes")
	g0 := gauge.Value()
	put := func(i int) {
		if _, err := s.Put(fmt.Sprintf("sha256:%d", i), sized(fmt.Sprint(i), 500)); err != nil {
			t.Fatal(err)
		}
		if r := residentOf(s); r > budget {
			t.Fatalf("after %d puts %d resident bytes, budget %d", i+1, r, budget)
		}
	}
	for i := 0; i < n; i++ {
		put(i)
	}
	atN := residentOf(s)
	for i := n; i < 2*n; i++ {
		put(i)
	}
	at2N := residentOf(s)
	if at2N != atN || atN < budget-1500 {
		t.Fatalf("resident bytes %d after %d puts, %d after %d (budget %d)", atN, n, at2N, 2*n, budget)
	}
	if got := gauge.Value() - g0; got != float64(at2N) {
		t.Fatalf("cache.resident_bytes moved by %v, store holds %d", got, at2N)
	}
	if s.Len() != 2*n {
		t.Fatalf("index holds %d entries, want %d", s.Len(), 2*n)
	}
}

// TestMemoryStoreKeepsEveryBlob: without a directory nothing is evicted
// and nothing is read from disk.
func TestMemoryStoreKeepsEveryBlob(t *testing.T) {
	s, _ := New("")
	reads := diskReads.Value()
	var entries []*Entry
	for i := 0; i < 50; i++ {
		e, err := s.Put(fmt.Sprintf("sha256:m%d", i), sized("m", 64<<10))
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	if r := residentOf(s); r != 50*3*64<<10 {
		t.Fatalf("memory-only store holds %d resident bytes, want %d", r, 50*3*64<<10)
	}
	if got := mustBytes(t, entries[0].Artifact("b.lib")); len(got) != 2*64<<10 {
		t.Fatalf("read %d bytes", len(got))
	}
	if diskReads.Value() != reads {
		t.Fatal("memory-only store read from disk")
	}
}

// TestReadBlobStaysHot: a blob read between puts stays resident while
// the LRU evicts the blobs nobody reads.
func TestReadBlobStaysHot(t *testing.T) {
	s := budgeted(t, 3000)
	e1, err := s.Put("sha256:hot", sized("h", 500))
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := e1.Artifact("a.json"), e1.Artifact("b.lib")
	reads := diskReads.Value()
	for i := 0; i < 10; i++ {
		if got := mustBytes(t, hot); string(got) != strings.Repeat("h", 500) {
			t.Fatal("hot blob changed")
		}
		if _, err := s.Put(fmt.Sprintf("sha256:%d", i), sized(fmt.Sprint(i), 500)); err != nil {
			t.Fatal(err)
		}
	}
	if !isResident(s, hot) {
		t.Fatal("a blob read before every put was evicted")
	}
	if isResident(s, cold) {
		t.Fatal("an unread blob survived 10 puts past the budget")
	}
	if diskReads.Value() != reads {
		t.Fatalf("%d disk reads while the read blob stayed hot", diskReads.Value()-reads)
	}
}

// TestEvictedBlobReadBack: an evicted blob is read back from disk once,
// verified, and resident again; a restarted store verifies every blob
// but keeps none until it is read.
func TestEvictedBlobReadBack(t *testing.T) {
	s := budgeted(t, 3000)
	want := sized("back", 500)
	e, err := s.Put("sha256:back", want)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Put(fmt.Sprintf("sha256:%d", i), sized(fmt.Sprint(i), 500)); err != nil {
			t.Fatal(err)
		}
	}
	a := e.Artifact("b.lib")
	if isResident(s, a) {
		t.Fatal("blob not evicted")
	}
	reads := diskReads.Value()
	if got := mustBytes(t, a); string(got) != string(want["b.lib"]) {
		t.Fatal("read-back bytes differ")
	}
	if got := mustBytes(t, a); string(got) != string(want["b.lib"]) {
		t.Fatal("second read differs")
	}
	if d := diskReads.Value() - reads; d != 1 {
		t.Fatalf("%d disk reads, want 1 (then resident)", d)
	}

	s2, err := New(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	if r := residentOf(s2); r != 0 {
		t.Fatalf("rehydrated store holds %d resident bytes, want 0", r)
	}
	e2, ok := s2.Lookup("sha256:back")
	if !ok || string(mustBytes(t, e2.Artifact("a.json"))) != string(want["a.json"]) {
		t.Fatal("rehydrated entry unreadable")
	}
}

// TestLostBlobDroppedAndRecomputed: an evicted blob that was truncated,
// altered or deleted on disk is never served. The entry is dropped and
// counted once, the store answers as a miss, and a resubmit computes
// the set again.
func TestLostBlobDroppedAndRecomputed(t *testing.T) {
	damage := map[string]func(path string) error{
		"truncated": func(p string) error { return os.Truncate(p, 100) },
		"altered":   func(p string) error { return os.WriteFile(p, []byte(strings.Repeat("x", 1000)), 0o644) },
		"deleted":   os.Remove,
	}
	for name, harm := range damage {
		t.Run(name, func(t *testing.T) {
			s := budgeted(t, 3000)
			dig := "sha256:lost"
			want := sized("lost", 500)
			e, err := s.Put(dig, want)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if _, err := s.Put(fmt.Sprintf("sha256:%d", i), sized(fmt.Sprint(i), 500)); err != nil {
					t.Fatal(err)
				}
			}
			a := e.Artifact("b.lib")
			if isResident(s, a) {
				t.Fatal("blob not evicted")
			}
			if err := harm(filepath.Join(s.dir, entryDirName(dig), "b.lib")); err != nil {
				t.Fatal(err)
			}
			dropped := corruptDropped.Value()
			if got, err := a.Bytes(); !errors.Is(err, ErrLost) || got != nil {
				t.Fatalf("damaged blob read: %d bytes, err %v; want ErrLost", len(got), err)
			}
			// An intact sibling still reads back verified, and does not
			// count the entry twice.
			if got, err := e.Artifact("a.json").Bytes(); err != nil || string(got) != string(want["a.json"]) {
				t.Fatalf("intact sibling of a dropped entry: %d bytes, err %v", len(got), err)
			}
			if d := corruptDropped.Value() - dropped; d != 1 {
				t.Fatalf("cache.corrupt_dropped grew by %d, want 1", d)
			}
			if _, ok := s.Lookup(dig); ok {
				t.Fatal("dropped entry still answers lookups")
			}
			computed := 0
			e2, outcome, err := s.GetOrCompute(context.Background(), dig, func(context.Context) (map[string][]byte, error) {
				computed++
				return want, nil
			})
			if err != nil || outcome != "miss" || computed != 1 {
				t.Fatalf("resubmit: outcome %q, %d computes, err %v", outcome, computed, err)
			}
			if got := mustBytes(t, e2.Artifact("b.lib")); string(got) != string(want["b.lib"]) {
				t.Fatal("recomputed bytes differ")
			}
		})
	}
}

// TestConcurrentReadersRaceEviction: readers of random entries race a
// writer whose puts keep evicting; every read returns its entry's exact
// bytes and the budget holds throughout. Run under -race.
func TestConcurrentReadersRaceEviction(t *testing.T) {
	const budget = 6000
	s := budgeted(t, budget)
	const seeded = 8
	entries := make([]*Entry, seeded)
	for i := range entries {
		e, err := s.Put(fmt.Sprintf("sha256:r%d", i), sized(fmt.Sprintf("r%d", i), 500))
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = e
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Put(fmt.Sprintf("sha256:w%d", i%16), sized(fmt.Sprintf("w%d", i%16), 500)); err != nil {
				t.Error(err)
				return
			}
			if r := residentOf(s); r > budget {
				t.Errorf("%d resident bytes, budget %d", r, budget)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 300; n++ {
				i := rng.Intn(seeded)
				want := sized(fmt.Sprintf("r%d", i), 500)
				name := "a.json"
				if rng.Intn(2) == 1 {
					name = "b.lib"
				}
				got, err := entries[i].Artifact(name).Bytes()
				if err != nil || string(got) != string(want[name]) {
					t.Errorf("reader %d: entry %d %s: %d bytes, err %v", g, i, name, len(got), err)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}
