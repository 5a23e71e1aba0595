package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"stdcelltune/internal/liberty"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/query"
	"stdcelltune/internal/restrict"
	"stdcelltune/internal/service/cache"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/statlib"
)

// ErrNotQueryable marks a cached library whose artifact set predates
// the query layer (no netlist.v) or is otherwise incomplete — the
// entry serves artifacts fine but cannot back a query store. Mapped to
// 409: the resource exists, the request is well-formed, they just
// don't compose.
var ErrNotQueryable = errors.New("library artifact set is not queryable")

// ArtifactQueryResult is the single artifact of a cached query-result
// entry. Entries carrying exactly this artifact are query results, not
// libraries; library listings filter on ArtifactSpec instead.
const ArtifactQueryResult = "result.json"

// queryStoreBudget caps the bytes (query.Store.Bytes) of the decoded
// query stores a manager keeps, their warm what-if sessions included.
// It is the artifact cache's blob budget: six headline stores (~8 MB
// each) fit, about what four stores held when they still pinned their
// Liberty text; a store that runs what-ifs roughly doubles.
const queryStoreBudget = cache.ResidentBudget

// Query-store cache metrics in the process-default registry, named
// after the benchmark ledger's layer: query.store_builds counts builds
// (a rebuild after eviction counts again; a request that joined an
// in-flight build does not), query.store_build is their latency, whose
// summary reads as query.store_build_ms percentiles,
// query.store_evictions counts stores dropped to stay in budget, and
// query.store_resident_bytes is the bytes the cached stores hold, their
// what-if sessions included.
var (
	storeBuilds    = obs.Default().Counter("query.store_builds")
	storeBuildTime = obs.Default().HDR("query.store_build")
	storeEvictions = obs.Default().Counter("query.store_evictions")
	storeResident  = obs.Default().Gauge("query.store_resident_bytes")
)

// sized is a cached value that reports its footprint.
type sized interface{ Bytes() int64 }

// releaser is a cached value that holds memory beyond its build (a
// query store's what-if session) and drops it when evicted.
type releaser interface{ Release() }

// storeCache is the manager's digest→store cache: least recently used
// first out, bounded by the summed Bytes of its stores.
type storeCache[S sized] struct {
	budget int64

	mu       sync.Mutex
	resident int64
	lru      *list.List // of *storeSlot[S], most recently used first
	slots    map[string]*list.Element
	// building single-flights store construction per digest: building a
	// store runs a full STA pass, and concurrent first queries against
	// one library must not each pay it.
	building map[string]*storeFlight[S]
}

type storeSlot[S sized] struct {
	dig     string
	store   S
	charged int64 // the store's Bytes as last charged to resident
}

type storeFlight[S sized] struct {
	done  chan struct{}
	store S
	err   error
}

func newStoreCache[S sized](budget int64) *storeCache[S] {
	return &storeCache[S]{
		budget:   budget,
		lru:      list.New(),
		slots:    make(map[string]*list.Element),
		building: make(map[string]*storeFlight[S]),
	}
}

// get returns the cached store, now the most recently used, or builds
// it via build, deduplicating concurrent builds of the same digest. A
// new store is kept even when it alone is over the budget; the least
// recently used others are evicted until the total fits.
func (c *storeCache[S]) get(dig string, build func() (S, error)) (S, error) {
	c.mu.Lock()
	if el, ok := c.slots[dig]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*storeSlot[S]).store, nil
	}
	if fl, ok := c.building[dig]; ok {
		c.mu.Unlock()
		<-fl.done
		return fl.store, fl.err
	}
	fl := &storeFlight[S]{done: make(chan struct{})}
	c.building[dig] = fl
	c.mu.Unlock()

	storeBuilds.Add(1)
	start := time.Now()
	fl.store, fl.err = build()
	storeBuildTime.Observe(time.Since(start))

	c.mu.Lock()
	if fl.err == nil {
		slot := &storeSlot[S]{dig: dig, store: fl.store, charged: fl.store.Bytes()}
		c.slots[dig] = c.lru.PushFront(slot)
		c.charge(slot.charged)
		c.evict()
	}
	delete(c.building, dig)
	c.mu.Unlock()
	close(fl.done)
	return fl.store, fl.err
}

// recharge re-reads the Bytes of dig's cached store, which move when a
// what-if builds or drops its session, and evicts least recently used
// stores until the total fits again. A store no longer cached is left
// alone: eviction released it.
func (c *storeCache[S]) recharge(dig string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.slots[dig]
	if !ok {
		return
	}
	slot := el.Value.(*storeSlot[S])
	n := slot.store.Bytes()
	c.charge(n - slot.charged)
	slot.charged = n
	c.evict()
}

// evict drops least recently used stores, releasing what they hold,
// until the resident bytes fit the budget or one store is left; the
// caller holds c.mu.
func (c *storeCache[S]) evict() {
	for c.resident > c.budget && c.lru.Len() > 1 {
		old := c.lru.Remove(c.lru.Back()).(*storeSlot[S])
		delete(c.slots, old.dig)
		c.charge(-old.charged)
		if r, ok := any(old.store).(releaser); ok {
			r.Release()
		}
		storeEvictions.Add(1)
	}
}

// charge moves the cache's resident bytes and the process gauge; the
// caller holds c.mu.
func (c *storeCache[S]) charge(n int64) {
	c.resident += n
	storeResident.Add(float64(n))
}

// QueryStore returns the columnar query store of a cached library,
// building (and caching) it from the artifact set on first use.
func (m *Manager) QueryStore(dig string) (*query.Store, error) {
	e, ok := m.store.Peek(dig)
	if !ok {
		return nil, fmt.Errorf("%w: no such library %s", ErrNotFound, dig)
	}
	return m.qstores.get(dig, func() (*query.Store, error) {
		return BuildQueryStore(e)
	})
}

// BuildQueryStore reconstructs the queryable image of a pipeline run
// from its artifact set alone: the statistical library from the
// Liberty text, the tuned windows from windows.json, the synthesized
// design from netlist.v, and the timing context from spec.json. That
// the store needs nothing but artifacts is what lets any node — or a
// post-mortem analyst with a cache directory — answer queries without
// rerunning anything.
func BuildQueryStore(e *cache.Entry) (*query.Store, error) {
	specBody, err := artifactBytes(e, ArtifactSpec)
	if err != nil {
		return nil, err
	}
	if specBody == nil {
		return nil, fmt.Errorf("%w: %s has no %s", ErrNotQueryable, e.Digest, ArtifactSpec)
	}
	var spec Spec
	if err := json.Unmarshal(specBody, &spec); err != nil {
		return nil, fmt.Errorf("%w: decode %s: %v", ErrNotQueryable, ArtifactSpec, err)
	}
	spec = spec.Normalized()

	statBody, err := artifactBytes(e, ArtifactStatLib)
	if err != nil {
		return nil, err
	}
	if statBody == nil {
		return nil, fmt.Errorf("%w: %s has no %s", ErrNotQueryable, e.Digest, ArtifactStatLib)
	}

	// The two texts are independent: the netlist decodes on its own
	// goroutine while this one decodes the library and the windows. Its
	// error is reported after theirs, in the order a sequential decode
	// would meet them.
	var nl *netlist.Netlist
	var nlErr error
	nlDone := make(chan struct{})
	go func() {
		defer close(nlDone)
		nl, nlErr = decodeNetlist(e, spec)
	}()
	stat, windows, err := decodeLibrary(e, statBody)
	<-nlDone
	if err != nil {
		return nil, err
	}
	if nlErr != nil {
		return nil, nlErr
	}

	src := query.Source{
		Library: e.Digest,
		Stat:    stat,
		Windows: windows,
		Netlist: nl,
		STA:     sta.DefaultConfig(spec.ClockNS),
		Rho:     spec.Rho,
	}

	synthBody, err := artifactBytes(e, ArtifactSynthesis)
	if err != nil {
		return nil, err
	}
	if synthBody != nil {
		var sd synthDoc
		if err := json.Unmarshal(synthBody, &sd); err != nil {
			return nil, fmt.Errorf("%w: decode %s: %v", ErrNotQueryable, ArtifactSynthesis, err)
		}
		src.Synth = []query.SynthUnit{{
			Unit:               spec.Digest(),
			Design:             sd.Design,
			ClockNS:            sd.ClockNS,
			Met:                sd.Met,
			AreaUM2:            sd.Area,
			WNS:                sd.WNS,
			TNS:                sd.TNS,
			Iterations:         sd.Iterations,
			Buffered:           sd.Buffered,
			Upsized:            sd.Upsized,
			Downsized:          sd.Downsized,
			FullAnalyses:       sd.FullAnalyses,
			IncrementalUpdates: sd.IncrementalUpdates,
		}}
	}

	s, err := query.Build(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotQueryable, err)
	}
	return s, nil
}

// decodeLibrary rebuilds the statistical library from its Liberty text
// and the tuned windows from windows.json (nil when e has none).
func decodeLibrary(e *cache.Entry, statBody []byte) (*statlib.Library, *restrict.Set, error) {
	lib, err := liberty.Parse(string(statBody))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: parse %s: %v", ErrNotQueryable, ArtifactStatLib, err)
	}
	stat, err := statlib.FromLiberty(lib)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: rebuild statistical library: %v", ErrNotQueryable, err)
	}

	winBody, err := artifactBytes(e, ArtifactWindows)
	if err != nil {
		return nil, nil, err
	}
	if winBody == nil {
		return stat, nil, nil
	}
	var wd windowsDoc
	if err := json.Unmarshal(winBody, &wd); err != nil {
		return nil, nil, fmt.Errorf("%w: decode %s: %v", ErrNotQueryable, ArtifactWindows, err)
	}
	windows := restrict.NewSet(wd.Name)
	for _, w := range wd.Windows {
		windows.Put(w.Cell, w.Pin, restrict.Window{
			MinLoad: w.MinLoad, MaxLoad: w.MaxLoad,
			MinSlew: w.MinSlew, MaxSlew: w.MaxSlew,
		})
	}
	return stat, windows, nil
}

// decodeNetlist parses netlist.v over the spec's corner catalogue.
// Entries sealed before the query layer existed have no netlist.v and
// decode to nil: they still serve the library-side tables, but design
// tables and what-ifs need the netlist.
func decodeNetlist(e *cache.Entry, spec Spec) (*netlist.Netlist, error) {
	nlBody, err := artifactBytes(e, ArtifactNetlist)
	if err != nil || nlBody == nil {
		return nil, err
	}
	corner, ok := cornerFromSlug(spec.Corner)
	if !ok {
		return nil, fmt.Errorf("%w: unknown corner %q", ErrNotQueryable, spec.Corner)
	}
	nl, err := netlist.ParseVerilog(string(nlBody), catalogue(corner))
	if err != nil {
		return nil, fmt.Errorf("%w: parse %s: %v", ErrNotQueryable, ArtifactNetlist, err)
	}
	return nl, nil
}

// artifactBytes reads the named artifact of e: nil without error when e
// has no such artifact, ErrNotFound when its blob was lost (the store
// has dropped the entry, so the library is gone until recomputed).
func artifactBytes(e *cache.Entry, name string) ([]byte, error) {
	a := e.Artifact(name)
	if a == nil {
		return nil, nil
	}
	body, err := a.Bytes()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	return body, nil
}

// queryResultDoc is the paginated wire form of a table-query result:
// the cached full result's fields plus the serve-time pagination
// window.
type queryResultDoc struct {
	Schema     string      `json:"schema"`
	Library    string      `json:"library"`
	From       string      `json:"from"`
	Columns    []query.Col `json:"columns"`
	Rows       [][]any     `json:"rows"`
	TotalRows  int         `json:"total_rows"`
	NextCursor string      `json:"next_cursor,omitempty"`
}

// ExecuteQuery runs a query document against a cached library. The
// full (unpaginated) result is cached in the artifact store under the
// digest of (library, normalized query) — limit and cursor never reach
// the cache key, they slice the cached result at serve time. The
// returned outcome is the cache verdict: "hit", "miss", "shared" or
// "peer".
func (m *Manager) ExecuteQuery(ctx context.Context, dig string, raw []byte) (any, string, error) {
	if _, ok := m.store.Peek(dig); !ok {
		return nil, "", fmt.Errorf("%w: no such library %s", ErrNotFound, dig)
	}
	q, err := query.Parse(raw)
	if err != nil {
		return nil, "", err
	}
	resultDig, err := q.Digest(dig)
	if err != nil {
		return nil, "", err
	}
	compute := func(context.Context) (map[string][]byte, error) {
		s, err := m.QueryStore(dig)
		if err != nil {
			return nil, err
		}
		var doc any
		if q.WhatIf != nil {
			doc, err = s.EvalWhatIf(q.WhatIf)
			m.qstores.recharge(dig)
		} else {
			doc, err = s.Execute(q)
		}
		if err != nil {
			return nil, err
		}
		body, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return nil, err
		}
		return map[string][]byte{ArtifactQueryResult: append(body, '\n')}, nil
	}
	var body []byte
	entry, outcome, err := m.store.GetOrCompute(ctx, resultDig, compute)
	if err == nil {
		body, err = entry.Artifact(ArtifactQueryResult).Bytes()
	}
	if errors.Is(err, cache.ErrLost) {
		// The cached result's blob was lost from disk and its entry
		// dropped: answer as the miss it now is.
		if entry, outcome, err = m.store.GetOrCompute(ctx, resultDig, compute); err == nil {
			body, err = entry.Artifact(ArtifactQueryResult).Bytes()
		}
	}
	if err != nil {
		return nil, outcome, err
	}

	if q.WhatIf != nil {
		var wr query.WhatIfResult
		if err := json.Unmarshal(body, &wr); err != nil {
			return nil, outcome, fmt.Errorf("decode cached what-if result: %w", err)
		}
		return &wr, outcome, nil
	}
	var full query.Result
	if err := json.Unmarshal(body, &full); err != nil {
		return nil, outcome, fmt.Errorf("decode cached query result: %w", err)
	}
	page, next, err := query.Page(&full, q.Limit, q.Cursor)
	if err != nil {
		return nil, outcome, err
	}
	return &queryResultDoc{
		Schema:     page.Schema,
		Library:    page.Library,
		From:       page.From,
		Columns:    page.Columns,
		Rows:       page.Rows,
		TotalRows:  page.Total,
		NextCursor: next,
	}, outcome, nil
}

// Libraries lists the digests of cached entries that are libraries
// (artifact sets with a spec.json) — query-result entries share the
// cache but are not libraries.
func (m *Manager) Libraries() []string {
	out := []string{}
	for _, dig := range m.store.Digests() {
		if e, ok := m.store.Peek(dig); ok && e.Artifact(ArtifactSpec) != nil {
			out = append(out, dig)
		}
	}
	return out
}
