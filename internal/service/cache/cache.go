// Package cache is the content-addressed artifact store behind the
// tuning service: results of the paper pipeline keyed by the canonical
// digest of the request spec that produced them (see internal/digest).
//
// Two properties carry the daemon's latency story:
//
//   - Content addressing. An entry's key is a pure function of the
//     request spec, and every stored artifact carries its own SHA-256,
//     so a warm hit returns the exact bytes of the original cold run —
//     byte-identical responses are a cache invariant, not an
//     aspiration.
//   - Single-flight deduplication. Concurrent requests for the same
//     digest share one computation: the first caller computes (on the
//     robust pool, via the pipeline), every concurrent caller blocks on
//     the same in-flight slot, and nobody recomputes.
//
// The store keeps its index in memory — digest to artifact names,
// sizes and SHA-256 — and, with a directory configured, the blobs on
// disk. Blob bytes stay resident in an LRU capped at ResidentBudget, so
// a long-running daemon's memory does not grow with every finished
// job. An evicted blob is read back from disk and checked against its
// SHA-256 before it is served; a blob that is gone or altered drops its
// entry (counted in cache.corrupt_dropped) and answers as a miss, never
// with wrong bytes. A memory-only store (no directory) keeps every
// blob. A daemon restart rehydrates the index from disk.
package cache

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"stdcelltune/internal/digest"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/service/chaos"
)

// Cache metrics, recorded into the process-default obs registry: the
// daemon's debug surface and the run manifest pick them up from there.
var (
	cacheHits   = obs.Default().Counter("service.cache_hits")
	cacheMisses = obs.Default().Counter("service.cache_misses")
	cacheShared = obs.Default().Counter("service.cache_shared") // waiters that attached to an in-flight computation

	// corruptDropped counts persisted entries rehydration refused to
	// serve — missing/bad index, unreadable blob, or content-hash
	// mismatch. Nonzero after a restart means the cache directory took
	// damage; the entries cost a recomputation each, never wrong bytes.
	corruptDropped = obs.Default().Counter("cache.corrupt_dropped")

	// Peer-tier outcomes: a "peer" hit filled a local miss from another
	// node's cache instead of recomputing; a peer miss fell through to
	// the local compute. The ratio gauge is what the fleet dashboards
	// watch — how often identical specs dedup across nodes.
	peerHits   = obs.Default().Counter("cache.peer_hits")
	peerMisses = obs.Default().Counter("cache.peer_misses")

	// Residency: the blob bytes the process's stores hold in memory,
	// and the evicted blobs read back from disk. A workload whose
	// libraries fit the budget keeps disk_reads flat.
	residentBytes = obs.Default().Gauge("cache.resident_bytes")
	diskReads     = obs.Default().Counter("cache.disk_reads")
)

// ResidentBudget caps the blob bytes a persistent store keeps in
// memory. It holds the analyst's six headline libraries (~34 MB) with
// room to spare. It is not zero on purpose: with every blob dropped the
// daemon's live heap is so small that the garbage collector runs many
// more cycles per job, and a cold job got slower, not faster.
const ResidentBudget = 64 << 20

// ErrLost reports a blob that was evicted from memory and could not be
// read back intact — missing from disk, or no longer matching its
// SHA-256. The store has dropped the blob's entry, so the caller should
// answer as a miss; the next GetOrCompute for the digest recomputes.
var ErrLost = errors.New("cache: artifact lost")

func init() {
	obs.Default().GaugeFunc("cache.peer_hit_ratio", func() float64 {
		h, m := float64(peerHits.Value()), float64(peerMisses.Value())
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	})
}

// Artifact is one stored blob: a named output of the pipeline plus its
// content hash.
type Artifact struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Size   int    `json:"size_bytes"`

	entry *Entry
	// data is the body while resident, and elem its place in the
	// store's LRU (nil once evicted); both are guarded by the store's
	// mutex.
	data []byte
	elem *list.Element
}

// Bytes returns the artifact body; callers must not mutate it. A
// resident body becomes the most recently used. An evicted one is read
// back from the store's directory and checked against SHA256 first; if
// that fails, the entry is dropped and the error wraps ErrLost.
func (a *Artifact) Bytes() ([]byte, error) { return a.entry.store.read(a) }

// Entry is the full artifact set of one request digest.
type Entry struct {
	Digest    string
	Artifacts []*Artifact // sorted by name

	store *Store
}

// Artifact returns the named artifact, or nil.
func (e *Entry) Artifact(name string) *Artifact {
	for _, a := range e.Artifacts {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// PeerFetchFunc asks the fleet's registered peers for the full
// artifact set of a digest. It returns ok=false when no peer has it or
// every fetched copy failed verification; the implementation (the
// service's peer client) must verify each blob against the peer's
// declared SHA-256 before returning it, so the cache only ever seals
// bytes whose content hash was checked end to end.
type PeerFetchFunc func(ctx context.Context, dig string) (map[string][]byte, bool)

// Store is the content-addressed artifact store. Safe for concurrent
// use.
type Store struct {
	dir    string // "" = memory only
	budget int    // resident blob bytes before the LRU evicts

	mu       sync.Mutex
	entries  map[string]*Entry
	inflight map[string]*flight
	peers    PeerFetchFunc
	lru      list.List // resident *Artifact, most recently used first
	resident int
}

// SetPeerFetch installs the peer tier: on a local miss, GetOrCompute
// consults f before computing. The single-flight slot covers the peer
// fetch too, so concurrent requests for one digest make one peer round
// trip at most.
func (s *Store) SetPeerFetch(f PeerFetchFunc) {
	s.mu.Lock()
	s.peers = f
	s.mu.Unlock()
}

// New creates a store. A non-empty dir enables persistence: entries are
// written under dir/<digest-hex>/, existing entries are rehydrated into
// the index immediately, and blob bytes stay resident up to
// ResidentBudget. A memory-only store keeps every blob.
func New(dir string) (*Store, error) {
	s := &Store{dir: dir, budget: math.MaxInt, entries: make(map[string]*Entry), inflight: make(map[string]*flight)}
	if dir != "" {
		s.budget = ResidentBudget
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := s.load(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Len returns the number of cached entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Lookup returns the cached entry for a digest without computing,
// recording a hit when present. It does not wait for in-flight
// computations.
func (s *Store) Lookup(dig string) (*Entry, bool) {
	s.mu.Lock()
	e, ok := s.entries[dig]
	s.mu.Unlock()
	if ok {
		cacheHits.Add(1)
	}
	return e, ok
}

// Peek returns the cached entry for a digest without recording a
// cache-hit metric — for listings and existence checks that should not
// skew the hit-ratio the dashboards watch.
func (s *Store) Peek(dig string) (*Entry, bool) {
	s.mu.Lock()
	e, ok := s.entries[dig]
	s.mu.Unlock()
	return e, ok
}

// GetOrCompute returns the entry for dig, computing it at most once
// across all concurrent callers. The outcome string is "hit" (entry was
// already cached), "peer" (a registered peer supplied verified bytes),
// "miss" (this call computed it), or "shared" (another in-flight call
// computed it while we waited).
//
// compute runs under the first caller's context; a waiter whose own ctx
// is cancelled stops waiting and returns its context error (the
// computation itself continues for the benefit of the other callers).
func (s *Store) GetOrCompute(ctx context.Context, dig string, compute func(context.Context) (map[string][]byte, error)) (*Entry, string, error) {
	s.mu.Lock()
	if e, ok := s.entries[dig]; ok {
		s.mu.Unlock()
		cacheHits.Add(1)
		return e, "hit", nil
	}
	if fl, ok := s.inflight[dig]; ok {
		s.mu.Unlock()
		cacheShared.Add(1)
		select {
		case <-fl.done:
			return fl.entry, "shared", fl.err
		case <-ctx.Done():
			return nil, "shared", ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	s.inflight[dig] = fl
	peers := s.peers
	s.mu.Unlock()

	outcome := "miss"
	var entry *Entry
	var err error
	if peers != nil {
		if fetched, ok := peers(ctx, dig); ok {
			if e, serr := s.seal(dig, fetched); serr == nil {
				entry, outcome = e, "peer"
				peerHits.Add(1)
			} else {
				// A peer copy that fails to seal (bad name, persistence
				// error) falls through to the local compute — a broken
				// peer must cost latency, never correctness.
				obs.Log().Warn("cache: peer entry rejected", "digest", dig, "err", serr)
				peerMisses.Add(1)
			}
		} else {
			peerMisses.Add(1)
		}
	}
	if entry == nil {
		cacheMisses.Add(1)
		var blobs map[string][]byte
		blobs, err = compute(ctx)
		if err == nil {
			entry, err = s.seal(dig, blobs)
		}
	}
	fl.entry, fl.err = entry, err

	s.mu.Lock()
	if err == nil {
		s.install(entry)
	}
	delete(s.inflight, dig)
	s.mu.Unlock()
	close(fl.done)
	return entry, outcome, err
}

// Put stores a computed artifact set directly (the rehydration and test
// entry point). Existing entries for the digest are replaced.
func (s *Store) Put(dig string, blobs map[string][]byte) (*Entry, error) {
	e, err := s.seal(dig, blobs)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.install(e)
	s.mu.Unlock()
	return e, nil
}

// install files a sealed entry in the index, replacing (and releasing
// the resident blobs of) any older entry for its digest, and admits its
// bodies to the LRU, most recently used, evicting the least recently
// used blobs past the budget. The caller holds s.mu.
func (s *Store) install(e *Entry) {
	if old := s.entries[e.Digest]; old != nil {
		s.release(old)
	}
	s.entries[e.Digest] = e
	for _, a := range e.Artifacts {
		s.admit(a, a.data)
	}
}

// admit makes a body resident as the most recently used blob and
// evicts down to the budget. The caller holds s.mu.
func (s *Store) admit(a *Artifact, data []byte) {
	a.data, a.elem = data, s.lru.PushFront(a)
	s.charge(a.Size)
	for s.resident > s.budget {
		s.evict(s.lru.Back().Value.(*Artifact))
	}
}

// evict takes a body out of the LRU; the caller holds s.mu. A
// memory-only store keeps the bytes, which exist nowhere else, for
// whoever still holds the entry.
func (s *Store) evict(a *Artifact) {
	s.lru.Remove(a.elem)
	a.elem = nil
	if s.dir != "" {
		a.data = nil
	}
	s.charge(-a.Size)
}

// release evicts every resident body of an entry leaving the index;
// the caller holds s.mu.
func (s *Store) release(e *Entry) {
	for _, a := range e.Artifacts {
		if a.elem != nil {
			s.evict(a)
		}
	}
}

// charge moves the store's resident byte count and the process gauge.
func (s *Store) charge(n int) {
	s.resident += n
	residentBytes.Add(float64(n))
}

// read serves Artifact.Bytes: the resident body, else the blob read
// back from disk, verified against its SHA-256 and admitted to the LRU
// again while its entry is still the live one for the digest. A blob
// that is gone or altered drops the entry and returns ErrLost.
func (s *Store) read(a *Artifact) ([]byte, error) {
	s.mu.Lock()
	if a.elem != nil {
		s.lru.MoveToFront(a.elem)
	}
	data, resident := a.data, a.elem != nil || s.dir == ""
	s.mu.Unlock()
	if resident {
		return data, nil
	}

	e := a.entry
	diskReads.Add(1)
	body, err := os.ReadFile(filepath.Join(s.dir, entryDirName(e.Digest), a.Name))
	if err == nil && digest.Bytes(body) != a.SHA256 {
		err = errors.New("content hash mismatch")
	}
	if err != nil {
		s.drop(e, a.Name, err)
		return nil, fmt.Errorf("%w: %s %s: %v", ErrLost, e.Digest, a.Name, err)
	}
	s.mu.Lock()
	if a.elem == nil && s.entries[e.Digest] == e {
		s.admit(a, body)
	}
	s.mu.Unlock()
	return body, nil
}

// drop removes an entry whose blob was lost from the index, if it is
// still the live entry for its digest, and counts it once.
func (s *Store) drop(e *Entry, name string, cause error) {
	s.mu.Lock()
	live := s.entries[e.Digest] == e
	if live {
		delete(s.entries, e.Digest)
		s.release(e)
	}
	s.mu.Unlock()
	if live {
		corruptDropped.Add(1)
		obs.Log().Warn("cache: dropping entry with a lost blob", "digest", e.Digest, "artifact", name, "err", cause)
	}
}

// seal freezes a blob map into an Entry (sorted, content-hashed) and
// persists it when a directory is configured.
func (s *Store) seal(dig string, blobs map[string][]byte) (*Entry, error) {
	if len(blobs) == 0 {
		return nil, fmt.Errorf("cache: empty artifact set for %s", dig)
	}
	e := &Entry{Digest: dig, store: s}
	names := make([]string, 0, len(blobs))
	for name := range blobs {
		if !validName(name) {
			return nil, fmt.Errorf("cache: invalid artifact name %q", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data := blobs[name]
		e.Artifacts = append(e.Artifacts, &Artifact{
			Name: name, SHA256: digest.Bytes(data), Size: len(data), entry: e, data: data,
		})
	}
	if s.dir != "" {
		if err := s.persist(e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// validName keeps artifact names path-safe for both persistence and the
// HTTP surface: a single flat component, no separators or dot-dot.
func validName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	return !strings.ContainsAny(name, "/\\\x00")
}

// entryDirName maps a spec digest ("sha256:<hex>") to a directory name.
func entryDirName(dig string) string {
	return strings.ReplaceAll(dig, ":", "_")
}

// index is the persisted entry manifest (dir/<digest>/index.json).
type index struct {
	Digest    string      `json:"digest"`
	Artifacts []*Artifact `json:"artifacts"`
}

// persist writes an entry's blobs and index to a temp directory and
// renames it into place — the commit point. The chaos points
// "cache.persist.pre-write", "cache.persist.write" (between blobs) and
// "cache.persist.pre-rename" instrument the moments a crash can leave a
// partial .tmp directory, which load ignores by construction.
func (s *Store) persist(e *Entry) error {
	if d := chaos.At("cache.persist.pre-write"); d.Crash {
		return chaos.ErrCrash
	} else if d.Err != nil {
		return d.Err
	}
	dir := filepath.Join(s.dir, entryDirName(e.Digest))
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	for _, a := range e.Artifacts {
		if err := os.WriteFile(filepath.Join(tmp, a.Name), a.data, 0o644); err != nil {
			return err
		}
		if d := chaos.At("cache.persist.write"); d.Crash {
			return chaos.ErrCrash // crash mid-artifact-write: .tmp left behind, invisible to load
		} else if d.Err != nil {
			return d.Err
		}
	}
	idx, err := json.MarshalIndent(index{Digest: e.Digest, Artifacts: e.Artifacts}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "index.json"), append(idx, '\n'), 0o644); err != nil {
		return err
	}
	if d := chaos.At("cache.persist.pre-rename"); d.Crash {
		return chaos.ErrCrash
	}
	// Rename-into-place makes a crashed write invisible to load.
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

// load rehydrates the index of every persisted entry. Every blob is
// read and checked against its content hash, but not kept: bodies
// become resident on first read. A directory whose index or blobs are
// unreadable or whose content hash no longer matches is skipped (and
// logged), never fatal: a corrupt cache entry costs a recomputation,
// not the daemon.
func (s *Store) load() error {
	dirs, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	log := obs.Log()
	for _, d := range dirs {
		if !d.IsDir() || strings.HasSuffix(d.Name(), ".tmp") {
			continue
		}
		dir := filepath.Join(s.dir, d.Name())
		data, err := os.ReadFile(filepath.Join(dir, "index.json"))
		if err != nil {
			corruptDropped.Add(1)
			log.Warn("cache: skipping entry without index", "dir", dir, "err", err)
			continue
		}
		var idx index
		if err := json.Unmarshal(data, &idx); err != nil {
			corruptDropped.Add(1)
			log.Warn("cache: skipping entry with bad index", "dir", dir, "err", err)
			continue
		}
		e := &Entry{Digest: idx.Digest, store: s}
		ok := idx.Digest != ""
		for _, a := range idx.Artifacts {
			if !validName(a.Name) {
				ok = false
				break
			}
			body, err := os.ReadFile(filepath.Join(dir, a.Name))
			if err != nil || digest.Bytes(body) != a.SHA256 {
				ok = false
				break
			}
			e.Artifacts = append(e.Artifacts, &Artifact{Name: a.Name, SHA256: a.SHA256, Size: len(body), entry: e})
		}
		if !ok || len(e.Artifacts) == 0 {
			corruptDropped.Add(1)
			log.Warn("cache: skipping corrupt entry", "dir", dir)
			continue
		}
		s.entries[e.Digest] = e
	}
	return nil
}

// Digests lists the cached digests, sorted.
func (s *Store) Digests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for d := range s.entries {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
