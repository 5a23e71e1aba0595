package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"stdcelltune/internal/sta"
)

// whatIfOp is one what-if of a seeded sequence.
type whatIfOp struct {
	sub      bool
	from, to string
	factor   float64
}

func (o whatIfOp) String() string {
	if o.sub {
		return fmt.Sprintf("substitute %s->%s", o.from, o.to)
	}
	return fmt.Sprintf("widen %v", o.factor)
}

func (o whatIfOp) run(s *Store) (*WhatIfResult, error) {
	if o.sub {
		return s.Substitute(o.from, o.to)
	}
	return s.Widen(o.factor)
}

// seededWhatIfs draws n what-ifs on s's design: two in three are
// substitutions within the family of a used cell (either side may be a
// drive the design does not use, or both the same cell, so some change
// nothing), the rest widens by factors on both sides of 1.
func seededWhatIfs(s *Store, seed int64, n int) []whatIfOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]whatIfOp, n)
	for i := range ops {
		if rng.Intn(3) == 2 {
			ops[i] = whatIfOp{factor: []float64{0.5, 0.8, 0.9, 1.1, 1.5, 2, 3}[rng.Intn(7)]}
			continue
		}
		inst := s.nl.Instances[rng.Intn(len(s.nl.Instances))]
		fam := s.nl.Cat.SizesOf(inst.Spec.Name)
		from, to := inst.Spec.Name, fam[rng.Intn(len(fam))].Name
		if rng.Intn(4) == 0 {
			from = fam[rng.Intn(len(fam))].Name
		}
		ops[i] = whatIfOp{sub: true, from: from, to: to}
	}
	return ops
}

// freshStore builds a new store over s's inputs: one with no session.
func freshStore(t *testing.T, s *Store) *Store {
	t.Helper()
	f, err := Build(Source{Library: s.Library, Stat: s.stat, Windows: s.windows, Netlist: s.nl, STA: s.staCfg, Rho: s.rho})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func marshal(t *testing.T, wr *WhatIfResult, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(wr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkParkedAtBaseline fails unless s parks a session whose netlist
// has the design's specs and whose engine's WNS, loads and slews equal
// a fresh analysis of the design bit for bit.
func checkParkedAtBaseline(t *testing.T, s *Store, want *sta.Result, step string) {
	t.Helper()
	ss := s.sessions.parked
	if ss == nil {
		t.Fatalf("%s: no session parked", step)
	}
	for i, inst := range ss.nl.Instances {
		if inst.Spec != s.nl.Instances[i].Spec {
			t.Fatalf("%s: parked %s is %s, the design has %s", step, inst.Name, inst.Spec.Name, s.nl.Instances[i].Spec.Name)
		}
	}
	if g, w := ss.eng.WNS(), want.WNS(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: parked WNS %v, fresh analysis %v", step, g, w)
	}
	for id := range want.Load {
		if math.Float64bits(ss.eng.Load(id)) != math.Float64bits(want.Load[id]) ||
			math.Float64bits(ss.eng.Slew(id)) != math.Float64bits(want.Slew[id]) {
			t.Fatalf("%s: parked net %d load/slew %v/%v, fresh analysis %v/%v",
				step, id, ss.eng.Load(id), ss.eng.Slew(id), want.Load[id], want.Slew[id])
		}
	}
}

// TestWhatIfSessionReuse runs seeded what-if sequences on one store per
// design, so every what-if after the first reuses the parked session.
// Each response must equal the same what-if on a freshly built store
// byte for byte, engine accounting included, and after each one the
// parked session must be back at the baseline bit for bit. Each store
// builds one session; every other what-if on it reuses that one.
func TestWhatIfSessionReuse(t *testing.T) {
	stores := []struct {
		name string
		s    *Store
		seed int64
	}{
		{"test", testStore(t), 1},
		{"crc@0.8", freshStore(t, crcStore(t, 0.8)), 2},
	}
	built0, reuses0 := sessionsBuilt.Value(), sessionReuses.Value()
	ran, subs, widens, noChange := 0, 0, 0, 0
	for _, c := range stores {
		want, err := sta.Analyze(c.s.nl, c.s.staCfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range seededWhatIfs(c.s, c.seed, 30) {
			step := fmt.Sprintf("%s #%d %v", c.name, i, op)
			wr, err := op.run(c.s)
			got := marshal(t, wr, err)
			fr, err := op.run(freshStore(t, c.s))
			if fresh := marshal(t, fr, err); !bytes.Equal(got, fresh) {
				t.Fatalf("%s: warm response differs from a fresh store's:\n%s\n%s", step, got, fresh)
			}
			checkParkedAtBaseline(t, c.s, want, step)
			ran++
			switch {
			case !op.sub:
				widens++
			case wr.Changed == 0:
				noChange++
			default:
				subs++
			}
		}
	}
	if ran < 50 || subs == 0 || widens == 0 || noChange == 0 {
		t.Fatalf("%d what-ifs: %d substitutions, %d zero-change, %d widens; want >= 50 with each kind", ran, subs, noChange, widens)
	}
	// One session per store under test, one per fresh store.
	if b, r := sessionsBuilt.Value()-built0, sessionReuses.Value()-reuses0; b != int64(len(stores)+ran) || r != int64(ran-len(stores)) {
		t.Fatalf("sessions built %d, reused %d; want %d and %d", b, r, len(stores)+ran, ran-len(stores))
	}
}

// TestWhatIfConcurrent runs what-ifs on one store from several
// goroutines, so some meet the warm session checked out and time a
// private one: every response equals the sequential answer, and the
// session parked at the end is at the baseline. Run under -race.
func TestWhatIfConcurrent(t *testing.T) {
	s := freshStore(t, crcStore(t, 1.0))
	ops := seededWhatIfs(s, 3, 12)
	want := make([][]byte, len(ops))
	ref := freshStore(t, s)
	for i, op := range ops {
		wr, err := op.run(ref)
		want[i] = marshal(t, wr, err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ops {
				i := (k + 3*g) % len(ops)
				wr, err := ops[i].run(s)
				if err != nil {
					t.Error(err)
					return
				}
				if got, _ := json.Marshal(wr); !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d, %v: response differs from the sequential one:\n%s\n%s", g, ops[i], got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	r, err := sta.Analyze(s.nl, s.staCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkParkedAtBaseline(t, s, r, "after the concurrent what-ifs")
}

// TestWhatIfSessionBytes: a store's Bytes grows by its session's
// estimate once a what-if builds one, and Release drops the session and
// parks no other.
func TestWhatIfSessionBytes(t *testing.T) {
	s := testStore(t)
	base := s.Bytes()
	if _, err := s.Substitute("INV_4", "INV_8"); err != nil {
		t.Fatal(err)
	}
	ss := s.sessions.parked
	if ss == nil || s.Bytes() != base+ss.bytes() || ss.bytes() <= 0 {
		t.Fatalf("Bytes %d with session %v, want %d plus the session's estimate", s.Bytes(), ss, base)
	}
	s.Release()
	if s.sessions.parked != nil || s.Bytes() != base {
		t.Fatalf("after Release: parked %v, Bytes %d, want none and %d", s.sessions.parked, s.Bytes(), base)
	}
	if _, err := s.Widen(1.5); err != nil {
		t.Fatal(err)
	}
	if s.sessions.parked != nil || s.Bytes() != base {
		t.Fatalf("a released store parked a session: Bytes %d, want %d", s.Bytes(), base)
	}
}
