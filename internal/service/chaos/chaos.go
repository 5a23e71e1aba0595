// Package chaos is the fault-injection harness behind the service
// layer's crash-safety story. Instrumented sites in the journal and the
// artifact cache call At(point) at well-known moments — before a write,
// between a write and its fsync, between artifact blobs, before a
// rename — and an armed Injector decides, deterministically from its
// seed, whether that moment crashes the process, tears the write,
// injects an error, or stalls like a slow disk.
//
// Two execution modes share the same plans:
//
//   - In-process (tests): a crash marks the injector dead and surfaces
//     ErrCrash; once dead, every instrumented point fails immediately,
//     so nothing durable happens after the "crash" — the same property
//     a real SIGKILL gives the on-disk state. The test then abandons
//     the manager and proves recovery on a fresh one over the same
//     directories.
//   - Real process (cmd/stcd -chaos): ExitOnCrash makes a firing crash
//     plan call os.Exit(137) at the exact instrumented moment, which is
//     how cmd/stcd's end-to-end crash scenario produces deterministic
//     torn tails and mid-write crashes without racing a kill from
//     outside.
//
// When no injector is armed the fast path is one atomic pointer load.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCrash is the in-process stand-in for a dead process: once an armed
// crash fires, every instrumented point returns it.
var ErrCrash = errors.New("chaos: simulated crash")

// Kind is what happens when a plan fires.
type Kind int

const (
	// Crash kills the process at the point: os.Exit(137) under
	// ExitOnCrash, otherwise the injector goes dead and ErrCrash
	// propagates.
	Crash Kind = iota + 1
	// Torn is a crash that first lets a prefix of the in-progress write
	// reach the file — the torn-tail case recovery must truncate.
	Torn
	// Err injects a plain error without killing anything (transient
	// fault).
	Err
	// Sleep stalls the point — the slow-disk fault.
	Sleep
)

var kindNames = map[string]Kind{"crash": Crash, "torn": Torn, "err": Err, "sleep": Sleep}

func (k Kind) String() string {
	for n, v := range kindNames {
		if v == k {
			return n
		}
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Decision is what an instrumented point learns from At.
type Decision struct {
	// Crash: the process is (simulated) dead; abandon the operation
	// with ErrCrash. Nothing may be written after it.
	Crash bool
	// Torn: write only Frac of the pending bytes, then crash (call
	// Crashed for the exit-or-error half).
	Torn bool
	// Frac in [0,1): the fraction of the pending write that lands when
	// Torn is set, drawn from the injector's seeded rng.
	Frac float64
	// Err: fail this operation with this error, process stays alive.
	Err error
}

// plan is one armed fault: fire at the (After+1)-th pass through the
// point, once.
type plan struct {
	kind  Kind
	after int
	sleep time.Duration
	err   error
	fired bool
}

// Injector decides fault outcomes at instrumented points. Arm plans,
// Activate it, run the system, and the plans fire deterministically.
type Injector struct {
	// ExitOnCrash makes firing Crash/Torn plans call os.Exit(137)
	// instead of going dead in-process. cmd/stcd sets it; tests don't.
	ExitOnCrash bool

	mu    sync.Mutex
	rng   *rand.Rand
	dead  bool
	plans map[string][]*plan
	fires []string // points that fired, in order
}

// New returns an injector whose torn-write fractions (and any other
// randomized choices) derive from seed alone.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), plans: make(map[string][]*plan)}
}

// Arm schedules kind to fire at the (after+1)-th pass through point.
func (in *Injector) Arm(point string, kind Kind, after int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plans[point] = append(in.plans[point], &plan{kind: kind, after: after, sleep: 2 * time.Millisecond})
}

// ArmErr schedules an injected error at the (after+1)-th pass.
func (in *Injector) ArmErr(point string, after int, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plans[point] = append(in.plans[point], &plan{kind: Err, after: after, err: err})
}

// ArmSleep schedules a slow-disk stall at the (after+1)-th pass.
func (in *Injector) ArmSleep(point string, after int, d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plans[point] = append(in.plans[point], &plan{kind: Sleep, after: after, sleep: d})
}

// Dead reports whether a crash plan has fired.
func (in *Injector) Dead() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dead
}

// Fired returns the points whose plans have fired, in firing order.
func (in *Injector) Fired() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.fires...)
}

// at is the injector-level decision. Sleeps happen inside (they don't
// change control flow at the call site).
func (in *Injector) at(point string) Decision {
	in.mu.Lock()
	if in.dead {
		in.mu.Unlock()
		return Decision{Crash: true}
	}
	var fired *plan
	for _, p := range in.plans[point] {
		if p.fired {
			continue
		}
		if p.after > 0 {
			p.after--
			continue
		}
		p.fired = true
		fired = p
		break
	}
	if fired == nil {
		in.mu.Unlock()
		return Decision{}
	}
	in.fires = append(in.fires, point)
	switch fired.kind {
	case Crash:
		in.dead = true
		in.mu.Unlock()
		in.kill()
		return Decision{Crash: true}
	case Torn:
		in.dead = true
		frac := in.rng.Float64()
		in.mu.Unlock()
		return Decision{Torn: true, Frac: frac}
	case Err:
		in.mu.Unlock()
		return Decision{Err: fired.err}
	case Sleep:
		d := fired.sleep
		in.mu.Unlock()
		time.Sleep(d)
		return Decision{}
	}
	in.mu.Unlock()
	return Decision{}
}

// kill is the real-process half of a crash: exit hard at the
// instrumented moment, like a SIGKILL that always lands between the
// same two syscalls.
func (in *Injector) kill() {
	if in.ExitOnCrash {
		os.Exit(137)
	}
}

// active is the process-wide injector; nil means chaos is off and At is
// a single atomic load.
var active atomic.Pointer[Injector]

// Activate installs the injector globally and returns a restore
// function (tests defer it).
func Activate(in *Injector) (restore func()) {
	prev := active.Swap(in)
	return func() { active.Store(prev) }
}

// At consults the active injector at an instrumented point. With no
// injector armed it returns the zero Decision at pointer-load cost.
func At(point string) Decision {
	in := active.Load()
	if in == nil {
		return Decision{}
	}
	return in.at(point)
}

// Crashed finishes a torn write: under ExitOnCrash the process exits
// here (the prefix is on disk, the suffix never will be); in-process it
// returns ErrCrash for the caller to propagate.
func Crashed() error {
	if in := active.Load(); in != nil {
		in.kill()
	}
	return ErrCrash
}

// Parse builds an injector from a flag spec like
//
//	journal.done.write=torn,cache.persist.write=crash:2,journal.accepted.pre-sync=sleep:0:50ms
//
// i.e. comma-separated point=kind[:after][:dur] entries. It backs
// cmd/stcd's -chaos flag; the returned injector still needs Activate
// (and usually ExitOnCrash=true).
func Parse(spec string, seed int64) (*Injector, error) {
	in := New(seed)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		point, rest, ok := strings.Cut(part, "=")
		if !ok || point == "" {
			return nil, fmt.Errorf("chaos: bad entry %q (want point=kind[:after][:dur])", part)
		}
		fields := strings.Split(rest, ":")
		kind, ok := kindNames[fields[0]]
		if !ok {
			return nil, fmt.Errorf("chaos: unknown kind %q in %q", fields[0], part)
		}
		after := 0
		if len(fields) > 1 && fields[1] != "" {
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("chaos: bad after count %q in %q", fields[1], part)
			}
			after = n
		}
		if kind == Sleep {
			d := 10 * time.Millisecond
			if len(fields) > 2 {
				var err error
				if d, err = time.ParseDuration(fields[2]); err != nil {
					return nil, fmt.Errorf("chaos: bad duration %q in %q", fields[2], part)
				}
			}
			in.ArmSleep(point, after, d)
			continue
		}
		if len(fields) > 2 {
			return nil, fmt.Errorf("chaos: trailing fields in %q", part)
		}
		in.Arm(point, kind, after)
	}
	return in, nil
}
