package sta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stdcelltune/internal/netlist"
	"stdcelltune/internal/stdcell"
)

// randNetlist builds a random layered design: primary inputs and launch
// flops feeding a soup of 1-4 input gates, capped by capture flops and
// primary outputs. Multi-output adder cells are included so the engine's
// per-pin arc slots get exercised.
func randNetlist(tb testing.TB, rng *rand.Rand, nGates int) *netlist.Netlist {
	tb.Helper()
	nl := netlist.New("rand", cat)
	var nets []*netlist.Net
	for i := 0; i < 4; i++ {
		nets = append(nets, nl.AddInput(fmt.Sprintf("pi%d", i)))
	}
	for i := 0; i < 3; i++ {
		ff := nl.AddInstance(fmt.Sprintf("lff%d", i), cat.Spec("DFQ_1"))
		nl.Connect(ff, "D", nets[rng.Intn(len(nets))])
		q := nl.AddNet("")
		nl.Drive(ff, "Q", q)
		nets = append(nets, q)
	}
	gates := []string{"INV_1", "INV_2", "BUF_2", "ND2_1", "ND2_2", "NR2_1", "XNR2_1", "ADDH_1", "MUX2_1"}
	for i := 0; i < nGates; i++ {
		spec := cat.Spec(gates[rng.Intn(len(gates))])
		g := nl.AddInstance(fmt.Sprintf("g%d", i), spec)
		for _, pin := range spec.Inputs {
			nl.Connect(g, pin, nets[rng.Intn(len(nets))])
		}
		for _, pin := range spec.Outputs {
			y := nl.AddNet("")
			nl.Drive(g, pin, y)
			nets = append(nets, y)
		}
	}
	for i := 0; i < 3; i++ {
		ff := nl.AddInstance(fmt.Sprintf("cff%d", i), cat.Spec("DFQ_2"))
		nl.Connect(ff, "D", nets[len(nets)-1-i])
		q := nl.AddNet("")
		nl.Drive(ff, "Q", q)
		nl.MarkOutput(fmt.Sprintf("so%d", i), q)
	}
	nl.MarkOutput("po", nets[len(nets)-4])
	return nl
}

// checkIdentical asserts that an engine snapshot is bit-identical to a
// fresh full analysis: every per-net array, the endpoint list, the
// max-cap violations, and the memoized backward pass.
func checkIdentical(tb testing.TB, step string, got, want *Result) {
	tb.Helper()
	eqF := func(name string, g, w []float64) {
		tb.Helper()
		if len(g) != len(w) {
			tb.Fatalf("%s: %s length %d != %d", step, name, len(g), len(w))
		}
		for i := range g {
			// Bitwise comparison: NaN must match NaN, and no tolerance.
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				tb.Fatalf("%s: %s[%d] = %v != %v", step, name, i, g[i], w[i])
			}
		}
	}
	eqF("Load", got.Load, want.Load)
	eqF("Arrival", got.Arrival, want.Arrival)
	eqF("Slew", got.Slew, want.Slew)
	if len(got.fromPin) != len(want.fromPin) {
		tb.Fatalf("%s: fromPin length %d != %d", step, len(got.fromPin), len(want.fromPin))
	}
	for i := range got.fromPin {
		if got.fromPin[i] != want.fromPin[i] {
			tb.Fatalf("%s: fromPin[%d] = %q != %q", step, i, got.fromPin[i], want.fromPin[i])
		}
	}
	if len(got.Endpoints) != len(want.Endpoints) {
		tb.Fatalf("%s: %d endpoints != %d", step, len(got.Endpoints), len(want.Endpoints))
	}
	for i, g := range got.Endpoints {
		w := want.Endpoints[i]
		if g.Name != w.Name || g.IsFF != w.IsFF || g.Inst != w.Inst || g.Net != w.Net ||
			math.Float64bits(g.Arrival) != math.Float64bits(w.Arrival) ||
			math.Float64bits(g.Slack) != math.Float64bits(w.Slack) {
			tb.Fatalf("%s: endpoint %d %+v != %+v", step, i, g, w)
		}
	}
	if len(got.MaxCapViolations) != len(want.MaxCapViolations) {
		tb.Fatalf("%s: %d max-cap violations != %d", step, len(got.MaxCapViolations), len(want.MaxCapViolations))
	}
	for i := range got.MaxCapViolations {
		if got.MaxCapViolations[i] != want.MaxCapViolations[i] {
			tb.Fatalf("%s: max-cap violation %d differs", step, i)
		}
	}
	eqF("RequiredTimes", got.RequiredTimes(), want.RequiredTimes())
	eqF("NetSlacks", got.NetSlacks(), want.NetSlacks())
}

// applyRandomEdit performs one synthesis-shaped edit: a resize within a
// family, a repeater insertion in front of every sink, or a fanout split
// moving a random subset of sinks behind a buffer.
func applyRandomEdit(tb testing.TB, rng *rand.Rand, nl *netlist.Netlist) string {
	tb.Helper()
	switch rng.Intn(4) {
	case 0, 1: // resize (the dominant move in sizing loops)
		for tries := 0; tries < 20; tries++ {
			inst := nl.Instances[rng.Intn(len(nl.Instances))]
			fam := nl.Cat.Families[inst.Spec.Family]
			if len(fam) < 2 {
				continue
			}
			to := fam[rng.Intn(len(fam))]
			if to == inst.Spec {
				continue
			}
			if err := nl.Resize(inst, to); err != nil {
				tb.Fatal(err)
			}
			return fmt.Sprintf("resize %s %s->%s", inst.Name, inst.Spec.Family, to.Name)
		}
		return "resize (no-op)"
	case 2: // repeater: buffer all sinks of a random net
		for tries := 0; tries < 20; tries++ {
			n := nl.Nets[rng.Intn(len(nl.Nets))]
			if len(n.Sinks) == 0 || n.Driver == nil {
				continue
			}
			sinks := append([]netlist.Sink(nil), n.Sinks...)
			nl.InsertBuffer(n, cat.Spec("BUF_4"), sinks)
			return fmt.Sprintf("repeater on %d", n.ID)
		}
		return "repeater (no-op)"
	default: // fanout split: buffer a strict subset of sinks
		for tries := 0; tries < 20; tries++ {
			n := nl.Nets[rng.Intn(len(nl.Nets))]
			if len(n.Sinks) < 2 || n.Driver == nil {
				continue
			}
			k := 1 + rng.Intn(len(n.Sinks)-1)
			sinks := append([]netlist.Sink(nil), n.Sinks[:k]...)
			nl.InsertBuffer(n, cat.Spec("BUF_2"), sinks)
			return fmt.Sprintf("split %d sinks off %d", k, n.ID)
		}
		return "split (no-op)"
	}
}

// TestEngineMatchesAnalyze drives the incremental engine through random
// edit sequences and demands bit-identity with a fresh full Analyze
// after every single edit — the engine's core contract.
func TestEngineMatchesAnalyze(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nl := randNetlist(t, rng, 40+rng.Intn(40))
			cfg := DefaultConfig(1.0 + rng.Float64())
			e := NewEngine(nl, cfg)
			defer e.Close()
			got, err := e.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			want, err := Analyze(nl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentical(t, "initial", got, want)
			for step := 0; step < 60; step++ {
				desc := applyRandomEdit(t, rng, nl)
				got, err := e.Analyze()
				if err != nil {
					t.Fatalf("step %d (%s): %v", step, desc, err)
				}
				want, err := Analyze(nl, cfg)
				if err != nil {
					t.Fatalf("step %d (%s): %v", step, desc, err)
				}
				checkIdentical(t, fmt.Sprintf("step %d (%s)", step, desc), got, want)
			}
		})
	}
}

// TestEngineIncrementalPathTaken makes sure the equivalence test above
// actually exercises the incremental path rather than falling back to
// full analyses throughout.
func TestEngineIncrementalPathTaken(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nl := randNetlist(t, rng, 60)
	cfg := DefaultConfig(2)
	e := NewEngine(nl, cfg)
	defer e.Close()
	// The fallback threshold never drops below minFullThreshold, so on a
	// netlist this small one resize's dirt (the instance and its nets)
	// always stays incremental.
	if _, err := e.Analyze(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		inst := nl.Instances[rng.Intn(len(nl.Instances))]
		fam := nl.Cat.Families[inst.Spec.Family]
		if err := nl.Resize(inst, fam[rng.Intn(len(fam))]); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Analyze(); err != nil {
			t.Fatal(err)
		}
	}
	full, inc := e.Counts()
	if full != 1 {
		t.Errorf("full analyses = %d, want exactly the initial one", full)
	}
	if inc == 0 {
		t.Error("no incremental updates despite per-edit analyses")
	}
}

// TestEngineCleanReuse asserts the no-edit fast path returns the same
// snapshot without any new analysis.
func TestEngineCleanReuse(t *testing.T) {
	nl := chain(t)
	e := NewEngine(nl, DefaultConfig(5))
	defer e.Close()
	r1, err := e.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("clean re-analysis should return the cached snapshot")
	}
	full, inc := e.Counts()
	if full != 1 || inc != 0 {
		t.Errorf("counts = (%d, %d), want (1, 0)", full, inc)
	}
}

// TestEngineRewind applies a batch of resizes, reverts them, rewinds,
// and checks the engine continues producing bit-identical snapshots.
func TestEngineRewind(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nl := randNetlist(t, rng, 50)
	cfg := DefaultConfig(2)
	e := NewEngine(nl, cfg)
	defer e.Close()
	base, err := e.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// Resize a few instances, then revert them in reverse order.
	type mv struct {
		inst *netlist.Instance
		from *stdcell.Spec
	}
	var moves []mv
	for i := 0; i < 5; i++ {
		inst := nl.Instances[rng.Intn(len(nl.Instances))]
		fam := nl.Cat.Families[inst.Spec.Family]
		moves = append(moves, mv{inst, inst.Spec})
		if err := nl.Resize(inst, fam[rng.Intn(len(fam))]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Analyze(); err != nil {
		t.Fatal(err)
	}
	for i := len(moves) - 1; i >= 0; i-- {
		if err := nl.Resize(moves[i].inst, moves[i].from); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Rewind(base); err != nil {
		t.Fatal(err)
	}
	got, err := e.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Error("post-rewind Analyze should reuse the rewound snapshot")
	}
	// The engine must keep tracking edits correctly after a rewind.
	inst := nl.Instances[0]
	fam := nl.Cat.Families[inst.Spec.Family]
	if err := nl.Resize(inst, fam[len(fam)-1]); err != nil {
		t.Fatal(err)
	}
	got, err = e.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, "post-rewind edit", got, want)
}

// TestEngineRewindRejectsTopologyEdit: a rewind across an InsertBuffer
// must fail — reverts cannot undo topology edits.
func TestEngineRewindRejectsTopologyEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nl := randNetlist(t, rng, 30)
	e := NewEngine(nl, DefaultConfig(2))
	defer e.Close()
	base, err := e.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var target *netlist.Net
	for _, n := range nl.Nets {
		if n.Driver != nil && len(n.Sinks) > 0 {
			target = n
			break
		}
	}
	nl.InsertBuffer(target, cat.Spec("BUF_2"), append([]netlist.Sink(nil), target.Sinks...))
	if err := e.Rewind(base); err == nil {
		t.Fatal("rewind across a topology edit must fail")
	}
	// A snapshot from a different engine must be rejected too.
	e2 := NewEngine(nl, DefaultConfig(2))
	defer e2.Close()
	r2, err := e2.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Rewind(r2); err == nil {
		t.Fatal("rewind to a foreign snapshot must fail")
	}
}

// TestEngineFullFallback drives the dirty set over the threshold and
// checks the engine switches to full analyses while staying identical.
func TestEngineFullFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nl := randNetlist(t, rng, 50)
	cfg := DefaultConfig(2)
	e := NewEngine(nl, cfg)
	defer e.Close()
	// Resizing every instance dirties all 50 of them plus their nets,
	// well past minFullThreshold.
	if _, err := e.Analyze(); err != nil {
		t.Fatal(err)
	}
	for _, inst := range nl.Instances {
		fam := nl.Cat.Families[inst.Spec.Family]
		if err := nl.Resize(inst, fam[len(fam)-1]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	full, _ := e.Counts()
	if full != 2 {
		t.Errorf("full analyses = %d, want 2 (initial + fallback)", full)
	}
	want, err := Analyze(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, "fallback", got, want)
}

// TestEngineUpdateMatchesAnalyze drives the snapshot-free Update through
// random resize sequences — single resizes, bitwise no-op reverts, and
// batches big enough to force the full fallback — and checks what a
// probe loop reads after every update against a fresh Analyze: WNS
// bitwise, Load and Slew per net, and every net whose state changed
// since the previous update reported by ChangedNets. Every fifth step
// also snapshots right after the Update: the snapshot must describe the
// moved arrays (it fails if a stale pre-Update snapshot is re-used) and
// must count no further update.
func TestEngineUpdateMatchesAnalyze(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nl := randNetlist(t, rng, 60+rng.Intn(40))
			cfg := DefaultConfig(1.0 + rng.Float64())
			e := NewEngine(nl, cfg)
			defer e.Close()
			if err := e.Update(); err != nil {
				t.Fatal(err)
			}
			if _, all := e.ChangedNets(); !all {
				t.Fatal("the first update is a full pass: ChangedNets must report all")
			}
			before, err := Analyze(nl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			resize := func(inst *netlist.Instance, to *stdcell.Spec) {
				t.Helper()
				if err := nl.Resize(inst, to); err != nil {
					t.Fatal(err)
				}
			}
			randSpec := func(inst *netlist.Instance) *stdcell.Spec {
				fam := nl.Cat.Families[inst.Spec.Family]
				return fam[rng.Intn(len(fam))]
			}
			sawFull, sawNoop := false, false
			for step := 0; step < 40; step++ {
				kind := rng.Intn(6)
				switch kind {
				case 4: // resize and revert before the update: a bitwise no-op
					inst := nl.Instances[rng.Intn(len(nl.Instances))]
					from := inst.Spec
					resize(inst, randSpec(inst))
					resize(inst, from)
				case 5: // resize most of the design: past the full-pass threshold
					for _, inst := range nl.Instances {
						if rng.Intn(4) != 0 {
							resize(inst, randSpec(inst))
						}
					}
				default:
					inst := nl.Instances[rng.Intn(len(nl.Instances))]
					resize(inst, randSpec(inst))
				}
				fullBefore, _ := e.Counts()
				if err := e.Update(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				want, err := Analyze(nl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := e.WNS(), want.WNS(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("step %d: WNS %v want %v", step, g, w)
				}
				for id := range want.Load {
					if math.Float64bits(e.Load(id)) != math.Float64bits(want.Load[id]) ||
						math.Float64bits(e.Slew(id)) != math.Float64bits(want.Slew[id]) {
						t.Fatalf("step %d: net %d load/slew (%v, %v) want (%v, %v)", step, id, e.Load(id), e.Slew(id), want.Load[id], want.Slew[id])
					}
				}
				ids, all := e.ChangedNets()
				full, _ := e.Counts()
				if all != (full > fullBefore) {
					t.Fatalf("step %d: ChangedNets all=%v after full=%v", step, all, full > fullBefore)
				}
				sawFull = sawFull || all
				if kind == 4 {
					sawNoop = true
					if len(ids) != 0 || all {
						t.Fatalf("step %d: no-op revert reported changes %v (all=%v)", step, ids, all)
					}
				}
				if !all {
					reported := make(map[int]bool, len(ids))
					for _, id := range ids {
						reported[id] = true
					}
					for _, id := range changedBetween(before, want) {
						if !reported[id] {
							t.Fatalf("step %d: net %d changed but ChangedNets omits it", step, id)
						}
					}
				}
				if step%5 == 0 {
					// A snapshot after an Update takes the arrays as they
					// are, and counts no further update.
					f, i := e.Counts()
					got, err := e.Analyze()
					if err != nil {
						t.Fatal(err)
					}
					checkIdentical(t, fmt.Sprintf("step %d snapshot", step), got, want)
					if f2, i2 := e.Counts(); f2 != f || i2 != i {
						t.Fatalf("step %d: snapshot counted an update", step)
					}
				}
				before = want
			}
			if !sawFull || !sawNoop {
				t.Fatalf("sequence missed a case: full=%v noop=%v", sawFull, sawNoop)
			}
		})
	}
}

// changedBetween lists the nets whose load, max-cap flag, arrival, slew
// or fromPin differ bitwise between two analyses of one netlist.
func changedBetween(a, b *Result) []int {
	over := func(r *Result) map[int]bool {
		m := make(map[int]bool)
		for _, n := range r.MaxCapViolations {
			m[n.ID] = true
		}
		return m
	}
	oa, ob := over(a), over(b)
	var ids []int
	for id := range b.Load {
		if math.Float64bits(a.Load[id]) != math.Float64bits(b.Load[id]) ||
			math.Float64bits(a.Arrival[id]) != math.Float64bits(b.Arrival[id]) ||
			math.Float64bits(a.Slew[id]) != math.Float64bits(b.Slew[id]) ||
			a.fromPin[id] != b.fromPin[id] || oa[id] != ob[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// FuzzEngineEdits feeds arbitrary edit streams to the engine and checks
// bit-identity with a fresh Analyze after each edit.
func FuzzEngineEdits(f *testing.F) {
	f.Add(int64(3), []byte{0, 1, 2, 3, 0, 0, 2})
	f.Add(int64(5), []byte{2, 2, 2, 1, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 32 {
			ops = ops[:32]
		}
		rng := rand.New(rand.NewSource(seed))
		nl := randNetlist(t, rng, 25)
		cfg := DefaultConfig(1.5)
		e := NewEngine(nl, cfg)
		defer e.Close()
		if _, err := e.Analyze(); err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			opRng := rand.New(rand.NewSource(seed + int64(op)*131 + int64(i)))
			desc := applyRandomEdit(t, opRng, nl)
			got, err := e.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			want, err := Analyze(nl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentical(t, fmt.Sprintf("op %d (%s)", i, desc), got, want)
		}
	})
}
