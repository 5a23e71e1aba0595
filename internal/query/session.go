package query

import (
	"fmt"
	"sync"
	"sync/atomic"

	"stdcelltune/internal/netlist"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/stdcell"
)

// What-if session metrics in the process-default registry:
// query.whatif_sessions_built counts warm sessions built (one per store,
// again after a failed restore or an eviction), and
// query.whatif_session_reuses counts what-ifs that ran on a parked one
// instead of cloning and re-timing the design.
var (
	sessionsBuilt = obs.Default().Counter("query.whatif_sessions_built")
	sessionReuses = obs.Default().Counter("query.whatif_session_reuses")
)

// session is the state a what-if edits: a private clone of the design,
// an engine bound to it whose working state is the baseline, and every
// instance's baseline spec. A store parks at most one warm session
// between what-ifs; restoring it undoes a what-if's resizes and brings
// the engine back to the baseline with one Update.
type session struct {
	nl   *netlist.Netlist
	eng  *sta.Engine
	base []*stdcell.Spec // per instance ID
	gen  uint64          // nl.TopoGen at the baseline

	warm      bool        // the store's session, parked again after use
	full, inc int         // engine counts when checked out
	snap      *sta.Result // the what-if's snapshot, recycled on restore
}

// sessionSlot is a store's parking place for its warm session.
type sessionSlot struct {
	mu       sync.Mutex
	parked   *session
	out      bool // the warm session is checked out or being built
	released bool // the store was evicted: park nothing again

	bytes atomic.Int64 // the warm session's estimated heap, 0 without one
}

// newSession clones the design, times the baseline once and records
// every instance's spec.
func (s *Store) newSession(warm bool) (*session, error) {
	nl := s.nl.Clone()
	eng := sta.NewEngine(nl, s.staCfg)
	if err := eng.Update(); err != nil {
		eng.Close()
		return nil, fmt.Errorf("query: baseline analysis: %w", err)
	}
	base := make([]*stdcell.Spec, len(nl.Instances))
	for i, inst := range nl.Instances {
		base[i] = inst.Spec
	}
	ss := &session{nl: nl, eng: eng, base: base, gen: nl.TopoGen(), warm: warm}
	ss.full, ss.inc = eng.Counts()
	return ss, nil
}

// checkout hands a what-if the store's parked session, or builds the
// warm session if there is none yet. While the warm session is out, a
// concurrent what-if gets a session of its own, dropped after use.
func (s *Store) checkout() (*session, error) {
	slot := &s.sessions
	slot.mu.Lock()
	if ss := slot.parked; ss != nil {
		slot.parked, slot.out = nil, true
		slot.mu.Unlock()
		sessionReuses.Add(1)
		ss.full, ss.inc = ss.eng.Counts()
		return ss, nil
	}
	warm := !slot.out && !slot.released
	if warm {
		slot.out = true
	}
	slot.mu.Unlock()

	ss, err := s.newSession(warm)
	switch {
	case err != nil && warm:
		slot.mu.Lock()
		slot.out = false
		slot.mu.Unlock()
	case err == nil && warm:
		sessionsBuilt.Add(1)
		slot.bytes.Store(ss.bytes())
	}
	return ss, err
}

// checkin returns a session after its what-if. The warm session is
// restored to the baseline and parked; if the restore fails, or the
// store was released meanwhile, it is dropped and the next what-if
// builds a new one. Any other session is dropped.
func (s *Store) checkin(ss *session) {
	if !ss.warm {
		ss.eng.Close()
		return
	}
	err := ss.restore()
	// The what-if's snapshot is dead once its metrics are taken; the
	// next what-if's snapshot reuses its slices.
	ss.eng.Recycle(ss.snap)
	ss.snap = nil
	slot := &s.sessions
	slot.mu.Lock()
	defer slot.mu.Unlock()
	slot.out = false
	if err == nil && !slot.released {
		slot.parked = ss
		slot.bytes.Store(ss.bytes())
		return
	}
	ss.eng.Close()
	slot.bytes.Store(0)
}

// Release drops the store's parked session and keeps it from parking
// another: the service calls it when it evicts the store from its
// cache, so the session's memory goes with the store's.
func (s *Store) Release() {
	slot := &s.sessions
	slot.mu.Lock()
	defer slot.mu.Unlock()
	slot.released = true
	if slot.parked != nil {
		slot.parked.eng.Close()
		slot.parked = nil
		slot.bytes.Store(0)
	}
}

// restore resizes every instance a what-if changed back to its baseline
// spec and brings the engine current. The engine is exact after any
// edit history, so the restored state is the baseline bit for bit.
func (ss *session) restore() error {
	if ss.nl.TopoGen() != ss.gen {
		return fmt.Errorf("query: what-if session topology changed")
	}
	for i, inst := range ss.nl.Instances {
		if inst.Spec != ss.base[i] {
			if err := ss.nl.Resize(inst, ss.base[i]); err != nil {
				return err
			}
		}
	}
	return ss.eng.Update()
}

// counts is the accounting a what-if reports: the baseline full pass,
// whether this what-if ran it or found it done, plus the passes the
// what-if itself ran — what a fresh engine would count.
func (ss *session) counts() (full, incremental int) {
	f, i := ss.eng.Counts()
	return 1 + f - ss.full, i - ss.inc
}

// bytes estimates the session's heap: the netlist clone, the baseline
// specs and the engine.
func (ss *session) bytes() int64 {
	return netlistBytes(ss.nl) + int64(cap(ss.base))*sizeWord + ss.eng.Bytes()
}
