package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"stdcelltune/internal/obs"
	"stdcelltune/internal/query"
	"stdcelltune/internal/service/cache"
	"stdcelltune/internal/stdcell"
)

// stubStore stands in for a query store of a set size.
type stubStore struct {
	dig   string
	bytes int64
}

func (s *stubStore) Bytes() int64 { return s.bytes }

// sessionStore is a stubStore that can be released, as a query store
// drops its what-if session.
type sessionStore struct {
	stubStore
	released bool
}

func (s *sessionStore) Release() { s.released = true }

// TestQueryStoreLRUByBytes: the store cache evicts by recency, not by
// insertion; after every build its stores fit the budget, unless the
// new store alone does not, and then that store is kept by itself; a
// failed build caches nothing; concurrent gets of one digest make one
// build; query.store_evictions and query.store_resident_bytes move by
// exactly the evicted stores and the resident bytes.
func TestQueryStoreLRUByBytes(t *testing.T) {
	evictions, resident := obs.Default().Counter("query.store_evictions"), obs.Default().Gauge("query.store_resident_bytes")
	e0, r0 := evictions.Value(), resident.Value()

	const budget = 100
	c := newStoreCache[*stubStore](budget)
	builds := map[string]int{}
	get := func(dig string, bytes int64) {
		t.Helper()
		s, err := c.get(dig, func() (*stubStore, error) {
			builds[dig]++
			return &stubStore{dig, bytes}, nil
		})
		if err != nil || s.dig != dig {
			t.Fatalf("get %s: %v, %+v", dig, err, s)
		}
	}
	// check compares the cache, most recently used first, and the two
	// metrics' movement since the test began.
	check := func(step string, wantEvictions int64, want ...string) {
		t.Helper()
		var got []string
		total := int64(0)
		for el := c.lru.Front(); el != nil; el = el.Next() {
			s := el.Value.(*storeSlot[*stubStore]).store
			got = append(got, s.dig)
			total += s.bytes
		}
		if len(got) != len(want) || len(c.slots) != len(want) {
			t.Fatalf("%s: cached %v (%d slots), want %v", step, got, len(c.slots), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: cached %v, want %v", step, got, want)
			}
		}
		if total != c.resident {
			t.Fatalf("%s: resident %d, stores hold %d", step, c.resident, total)
		}
		if c.resident > budget && len(got) > 1 {
			t.Fatalf("%s: resident %d over the budget %d with %d stores", step, c.resident, budget, len(got))
		}
		if g := resident.Value() - r0; g != float64(c.resident) {
			t.Fatalf("%s: query.store_resident_bytes moved by %g, want %d", step, g, c.resident)
		}
		if g := evictions.Value() - e0; g != wantEvictions {
			t.Fatalf("%s: query.store_evictions moved by %d, want %d", step, g, wantEvictions)
		}
	}

	get("a", 40)
	get("b", 40)
	check("a, b", 0, "b", "a")
	get("a", 40) // a hit makes a the most recently used
	check("hit a", 0, "a", "b")
	get("c", 40) // over budget: b, not the older a, goes
	check("c", 1, "c", "a")
	get("b", 40) // a rebuild, which evicts a
	check("b again", 2, "b", "c")
	if builds["a"] != 1 || builds["b"] != 2 || builds["c"] != 1 {
		t.Fatalf("builds %v, want a:1 b:2 c:1", builds)
	}
	get("big", 250) // alone over the budget: kept, everything else goes
	check("big", 4, "big")
	get("d", 10)
	check("d", 5, "d")

	boom := errors.New("boom")
	if _, err := c.get("bad", func() (*stubStore, error) { return nil, boom }); err != boom {
		t.Fatalf("failed build returned %v", err)
	}
	check("failed build", 5, "d")

	// Three concurrent gets of one digest share one build.
	release := make(chan struct{})
	var calls int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := c.get("e", func() (*stubStore, error) {
				calls++
				<-release
				return &stubStore{"e", 30}, nil
			})
			if err != nil || s.dig != "e" {
				t.Errorf("get e: %v, %+v", err, s)
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		_, inFlight := c.building["e"]
		c.mu.Unlock()
		if inFlight || time.Now().After(deadline) {
			break
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("%d builds of e, want 1", calls)
	}
	check("e", 5, "e", "d")
}

// TestQueryStoreRecharge: a cached store whose Bytes grow (a query
// store building its what-if session) is charged the growth on
// recharge, which evicts and releases the least recently used others
// until the total fits, and a shrink is credited back; a recharge for
// a digest no longer cached changes nothing.
func TestQueryStoreRecharge(t *testing.T) {
	resident := obs.Default().Gauge("query.store_resident_bytes")
	r0 := resident.Value()
	c := newStoreCache[*sessionStore](100)
	stores := map[string]*sessionStore{}
	get := func(dig string, bytes int64) *sessionStore {
		t.Helper()
		s, err := c.get(dig, func() (*sessionStore, error) { return &sessionStore{stubStore: stubStore{dig, bytes}}, nil })
		if err != nil {
			t.Fatal(err)
		}
		stores[dig] = s
		return s
	}
	a := get("a", 30)
	get("b", 30)
	get("c", 30)
	get("a", 30) // a is the most recently used
	a.bytes = 55 // a what-if built its session
	c.recharge("a")
	if c.resident != 85 || c.lru.Len() != 2 || !stores["b"].released || stores["c"].released || a.released {
		t.Fatalf("after a grows: resident %d, %d stores, released b %v c %v a %v; want 85, 2, only b",
			c.resident, c.lru.Len(), stores["b"].released, stores["c"].released, a.released)
	}
	if g := resident.Value() - r0; g != 85 {
		t.Fatalf("query.store_resident_bytes moved by %g, want 85", g)
	}
	stores["b"].bytes = 1000
	c.recharge("b") // evicted: not charged
	a.bytes = 30    // the session was dropped
	c.recharge("a")
	if c.resident != 60 || resident.Value()-r0 != 60 {
		t.Fatalf("after a shrinks: resident %d, gauge moved by %g; want 60", c.resident, resident.Value()-r0)
	}
}

// TestStoreBytesEstimate holds query.Store.Bytes to the heap a store
// really keeps: for the headline library it is within 15% of the live
// heap one BuildQueryStore adds (median of three, after a warm-up build
// that fills the process's catalogue caches), and six headline stores,
// the analyst workload's libraries, fit the store budget.
func TestStoreBytesEstimate(t *testing.T) {
	arts, err := Run(context.Background(), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.Put("sha256:headline", arts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildQueryStore(e)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []int64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s2, err := BuildQueryStore(e)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s2)
		deltas = append(deltas, int64(after.HeapAlloc)-int64(before.HeapAlloc))
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i] < deltas[j] })
	heap, est := deltas[1], s.Bytes()
	t.Logf("headline store: Bytes %d, heap %d (%.3f)", est, heap, float64(est)/float64(heap))
	if r := float64(est) / float64(heap); r < 0.85 || r > 1.15 {
		t.Errorf("Bytes() = %d is %.2fx the %d bytes of heap a build keeps, want within 15%%", est, r, heap)
	}
	if 6*est > queryStoreBudget {
		t.Errorf("six headline stores (6 x %d bytes) do not fit the %d-byte budget", est, queryStoreBudget)
	}

	// The first what-if parks a session; the growth of Bytes is held to
	// the heap the parked session keeps, to the same 15%.
	from, to := headlineUpsize(t, s)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := s.Substitute(from, to); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	sess := s.Bytes() - est
	t.Logf("headline session: Bytes %d, heap %d (%.3f)", sess, heap, float64(sess)/float64(heap))
	if r := float64(sess) / float64(heap); r < 0.85 || r > 1.15 {
		t.Errorf("the session adds %d to Bytes(), %.2fx the %d bytes of heap it keeps, want within 15%%", sess, r, heap)
	}
}

// headlineUpsize returns the store's first instance's cell and the next
// drive up in its family, from the store's own tables.
func headlineUpsize(t *testing.T, s *query.Store) (from, to string) {
	t.Helper()
	from = s.Tables["instances"].Col("cell").S[0]
	cells := s.Tables["cells"]
	fam, drive := cells.Col("family").S, cells.Col("drive").I
	best := int64(-1)
	for i, name := range cells.Col("cell").S {
		if name == from {
			best = drive[i]
		}
	}
	for i, name := range cells.Col("cell").S {
		if fam[i] == stdcell.FamilyOf(from) && drive[i] > best && (to == "" || drive[i] < drive[slices.Index(cells.Col("cell").S, to)]) {
			to = name
		}
	}
	if to == "" {
		t.Fatalf("no larger drive of %s in the library", from)
	}
	return from, to
}

// TestBuildQueryStoreErrorOrder: the netlist decodes concurrently with
// the library, but a store build reports its errors in the order a
// sequential decode meets them: statistical library, then windows,
// then netlist.
func TestBuildQueryStoreErrorOrder(t *testing.T) {
	arts, err := Run(context.Background(), Spec{Design: "mcu-small", Instances: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		broken []string
		want   string
	}{
		{[]string{ArtifactStatLib, ArtifactWindows, ArtifactNetlist}, "parse " + ArtifactStatLib},
		{[]string{ArtifactWindows, ArtifactNetlist}, "decode " + ArtifactWindows},
		{[]string{ArtifactNetlist}, "parse " + ArtifactNetlist},
		{nil, ""},
	} {
		blobs := make(map[string][]byte, len(arts))
		for name, b := range arts {
			blobs[name] = b
		}
		for _, name := range c.broken {
			blobs[name] = []byte("{ not a valid " + name)
		}
		e, err := st.Put(fmt.Sprintf("sha256:order%d", i), blobs)
		if err != nil {
			t.Fatal(err)
		}
		_, err = BuildQueryStore(e)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("intact artifacts: %v", err)
		case c.want != "" && (!errors.Is(err, ErrNotQueryable) || !strings.Contains(err.Error(), c.want)):
			t.Errorf("broken %v: error %v, want ErrNotQueryable naming %q", c.broken, err, c.want)
		}
	}
}
