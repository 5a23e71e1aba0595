package sta

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime/debug"
	"slices"
	"sort"
	"unsafe"

	"stdcelltune/internal/liberty"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/stdcell"
)

// engineVerify, set via STA_VERIFY=1, makes every engine cross-check its
// snapshots and updates against a fresh full Analyze — the debug switch
// for hunting any bit-identity violation in a real flow (slow:
// quadratic).
var engineVerify = os.Getenv("STA_VERIFY") == "1"

// Process-wide incremental-STA counters. Always-on (one atomic add per
// analysis); the dirty-cone histogram records how many instances each
// incremental update re-evaluated.
var (
	staFullAnalyses = obs.Default().Counter("sta.full_analyses")
	staIncremental  = obs.Default().Counter("sta.incremental_updates")
	staDirtyCone    = obs.Default().HDR("sta.dirty_cone")
)

// FullAnalyses returns the process-wide count of full timing analyses
// run by engines (incremental fallbacks included).
func FullAnalyses() int64 { return staFullAnalyses.Value() }

// IncrementalUpdates returns the process-wide count of incremental
// (dirty-cone) timing updates.
func IncrementalUpdates() int64 { return staIncremental.Value() }

// IncrementalRatio returns incremental / (incremental + full) analyses
// process-wide — the fraction of timing passes the engines served
// without a whole-design propagation. NaN before any analysis ran (the
// metrics snapshot renders NaN as -1).
func IncrementalRatio() float64 {
	inc := float64(staIncremental.Value())
	full := float64(staFullAnalyses.Value())
	if inc+full == 0 {
		return 0 // not NaN: the gauge must stay JSON-marshalable
	}
	return inc / (inc + full)
}

// fullFrac is the dirty-set fraction of the instance count above which
// Analyze falls back to a full propagation: past that point the cone
// bookkeeping costs more than sweeping every instance through the
// (mostly cache-hitting) arc evaluations.
const fullFrac = 0.25

// minFullThreshold keeps the fallback from triggering on tiny designs,
// where even a whole-netlist dirty set is cheap to process as a cone.
const minFullThreshold = 64

// Engine is an incremental timing analyzer bound to one netlist. It
// registers as a netlist.Observer, accumulates a dirty frontier from the
// edit journal (resizes, rewires, inserted repeaters), and on Analyze
// re-propagates only the affected fanout cone — or the whole design when
// the dirty set crosses fullFrac of the instances. It reads pin-to-net
// wiring straight from the netlist's instances and caches only arcs and
// arc values. Every Analyze returns a snapshot
// *Result bit-identical to what a fresh sta.Analyze over the current
// netlist would produce.
//
// An Engine is not safe for concurrent use; each synthesis run owns one.
type Engine struct {
	nl  *netlist.Netlist
	cfg Config

	// Working state, per net ID.
	load    []float64
	arrival []float64
	slew    []float64
	fromPin []string
	overCap []bool

	// Per instance ID: resolved timing arcs plus a self-validating
	// (load, slew) -> (delay, trans) cache per arc. Entries invalidate
	// themselves by bitwise input comparison, so staleness after Rewind
	// or resize-revert is harmless. Each entry keeps two value-cache
	// generations (cur/alt): accept/revert probing resizes A->B->A
	// constantly, and the second slot turns the rebuild-on-revert into a
	// pointer swap. The slice holds values, and every slice a cell needs
	// is carved from the engine's arena — steady-state retargeting
	// allocates nothing.
	cells []engCell
	arena engArena

	// Dirty frontier accumulated from journal notifications: instance
	// and net IDs, each set once.
	dirtyInst idSet
	dirtyLoad idSet

	haveState bool    // arrays describe the netlist as of the last update
	last      *Result // snapshot matching the arrays; nil while dirt is pending or after Update
	// prev is the most recent snapshot taken from the arrays, kept only
	// while the arrays still match it: update drops it whenever they
	// move. When an incremental update turns out bitwise no-op (a healed
	// revert), Analyze re-uses it instead of allocating an identical
	// snapshot.
	prev *Result

	// queued is runIncremental's worklist: one bit per topological
	// position, set while the instance there waits for evaluation. Every
	// bit is cleared as it is taken, so the bitmap is all zero between
	// rounds and cone updates never allocate.
	queued []uint64

	// free holds snapshots returned through Recycle; the next snapshot
	// reuses their slices instead of allocating. Never holds last/prev.
	free []*Result

	// Endpoint skeleton cached per topology generation: the set and sorted
	// order of endpoints only changes on topology edits, so snapshots just
	// fill in values.
	epRefs   []epRef
	epGen    uint64
	epRefsOK bool

	// epByNet indexes the endpoint skeleton by net, CSR-style: the
	// endpoints on net n are epByNet.idx[epByNet.start[n]:start[n+1]].
	// Built on first use by NetEndpoints, dropped with the skeleton.
	epByNet struct {
		start, idx []int32
		ok         bool
	}

	fullCount int
	incCount  int

	// Nets the last update changed (see ChangedNets); changedAll marks
	// a full pass, which records nothing per net.
	changed    []int
	changedAll bool
}

// idSet is a set of small non-negative IDs: the members in insertion
// order plus a membership bitmap. Adding is O(1), and clearing costs
// the members, not the ID range.
type idSet struct {
	ids  []int
	bits []uint64
}

func (s *idSet) add(id int) {
	w := id >> 6
	for len(s.bits) <= w {
		s.bits = append(s.bits, 0)
	}
	if m := uint64(1) << (id & 63); s.bits[w]&m == 0 {
		s.bits[w] |= m
		s.ids = append(s.ids, id)
	}
}

func (s *idSet) clear() {
	for _, id := range s.ids {
		s.bits[id>>6] = 0
	}
	s.ids = s.ids[:0]
}

func (s *idSet) bytes() int64 { return int64(cap(s.ids)+cap(s.bits)) * 8 }

// engArena carves the small fixed-size slices every engine cell needs
// (pin slots and value caches) out of large chunks, so building or
// re-targeting thousands of cells costs a handful of allocations per
// chunk instead of several per cell. Carved slices are abandoned, never
// freed — an evicted value cache dies with its chunk once nothing else
// references it, and the engine's working set is bounded by the netlist.
type engArena struct {
	pins []engPin
	f64  []float64
	bs   []bool

	bytes int64 // summed size of every chunk allocated, for Engine.Bytes
}

const (
	arenaPinChunk = 1 << 9
	arenaF64Chunk = 1 << 13
	arenaBChunk   = 1 << 11
)

// carve cuts n elements off the chunk, first replacing it with a fresh
// one of max(size, n) elements when fewer than n are left; every chunk
// allocated is added to *bytes.
func carve[T any](chunk *[]T, n, size int, bytes *int64) []T {
	if len(*chunk) < n {
		size = max(size, n)
		*chunk = make([]T, size)
		var zero T
		*bytes += int64(size) * int64(unsafe.Sizeof(zero))
	}
	b := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return b
}

// engCell is one instance's cached arc resolution. spec is the cell the
// cur value caches describe; altSpec the previously displaced cell the
// alt caches describe (nil until the first retarget). A zero engCell
// means "not built yet".
type engCell struct {
	spec    *stdcell.Spec
	altSpec *stdcell.Spec
	pins    []engPin
}

// epRef is one entry of the cached endpoint skeleton: everything about
// an endpoint except the analyzed values (setup is re-read from the
// instance spec at snapshot time — resizes change it without a
// topology edit).
type epRef struct {
	name string
	isFF bool
	inst *netlist.Instance
	net  *netlist.Net
}

// pinVals is one spec-generation of an output pin's cache: the resolved
// timing arcs (a read-only slice shared via the catalogue's arc cache)
// and the self-validating (load, slew) -> (delay, trans) value cache,
// one slot per arc.
type pinVals struct {
	arcs []*liberty.TimingArc
	load []float64
	slew []float64
	d    []float64
	tr   []float64
	ok   []bool
}

// engPin caches the arcs of one output pin (position-aligned with
// inst.Out). For combinational cells the slots align with spec.Inputs
// (and so with inst.In); sequential cells keep a single clock-arc slot.
// cur describes engCell.spec, alt the displaced engCell.altSpec; a revert
// resize swaps them back with both value caches still warm.
type engPin struct {
	cur, alt pinVals
}

// eval interpolates arc i at (load, slew), serving bitwise-matching
// repeats from the cache.
func (p *engPin) eval(i int, arc *liberty.TimingArc, load, slew float64) (float64, float64) {
	v := &p.cur
	if v.ok[i] && v.load[i] == load && v.slew[i] == slew {
		return v.d[i], v.tr[i]
	}
	d, tr := arc.Eval(load, slew)
	v.ok[i], v.load[i], v.slew[i], v.d[i], v.tr[i] = true, load, slew, d, tr
	return d, tr
}

// NewEngine binds an incremental engine to the netlist and starts
// observing its edit journal. The first Analyze runs a full propagation;
// call Close when done to detach the observer.
func NewEngine(nl *netlist.Netlist, cfg Config) *Engine {
	e := &Engine{nl: nl, cfg: cfg}
	nl.Observe(e)
	return e
}

// Close detaches the engine from the netlist's edit journal.
func (e *Engine) Close() { e.nl.Unobserve(e) }

// Counts returns how many full analyses and incremental updates this
// engine has run.
func (e *Engine) Counts() (full, incremental int) { return e.fullCount, e.incCount }

// Bytes estimates the heap the engine holds between analyses: the
// per-net working arrays, the per-instance cell cache and the arena
// chunks its slices are carved from, the endpoint skeleton and its
// by-net index, the worklist and dirty sets, and the snapshots it keeps
// (last, prev and the free pool).
// It reads capacities, so it grows as retargeting warms the second
// value-cache generation.
func (e *Engine) Bytes() int64 {
	n := int64(cap(e.load)+cap(e.arrival)+cap(e.slew))*8 + int64(cap(e.fromPin))*16 + int64(cap(e.overCap))
	n += int64(cap(e.cells))*int64(unsafe.Sizeof(engCell{})) + e.arena.bytes
	n += int64(cap(e.epRefs))*int64(unsafe.Sizeof(epRef{})) + int64(cap(e.queued)+cap(e.changed))*8
	n += int64(cap(e.epByNet.start)+cap(e.epByNet.idx))*4 + e.dirtyInst.bytes() + e.dirtyLoad.bytes()
	if e.last != nil {
		n += e.last.bytes()
	}
	if e.prev != nil && e.prev != e.last {
		n += e.prev.bytes()
	}
	for _, r := range e.free { // never last or prev
		n += r.bytes()
	}
	return n
}

// --- netlist.Observer ----------------------------------------------

func (e *Engine) markInst(inst *netlist.Instance) {
	e.dirtyInst.add(inst.ID)
	e.last = nil
}

func (e *Engine) markLoad(n *netlist.Net) {
	e.dirtyLoad.add(n.ID)
	e.last = nil
}

// OnResize re-evaluates the instance (its arcs changed) and the loads of
// every connected net: input nets see a different input capacitance,
// output nets a different max_capacitance limit.
func (e *Engine) OnResize(inst *netlist.Instance, from, to *stdcell.Spec) {
	e.markInst(inst)
	for _, n := range inst.In {
		if n != nil {
			e.markLoad(n)
		}
	}
	for _, n := range inst.Out {
		if n != nil {
			e.markLoad(n)
		}
	}
}

// OnConnect and OnDrive only mark dirt: the engine caches no wiring, and
// the arc value caches validate themselves by (load, slew).
func (e *Engine) OnConnect(inst *netlist.Instance, pin string, old, n *netlist.Net) {
	e.markInst(inst)
	if old != nil {
		e.markLoad(old)
	}
	e.markLoad(n)
}

func (e *Engine) OnDrive(inst *netlist.Instance, pin string, n *netlist.Net) {
	e.markInst(inst)
	e.markLoad(n)
}

func (e *Engine) OnNewNet(n *netlist.Net) { e.markLoad(n) }

func (e *Engine) OnNewInstance(inst *netlist.Instance) { e.markInst(inst) }

// OnSinksChanged fires when a net's primary-output sink set changes —
// which also changes the endpoint population, so the cached skeleton is
// dropped (topology generation alone won't catch a bare MarkOutput).
func (e *Engine) OnSinksChanged(n *netlist.Net) {
	e.markLoad(n)
	e.epRefsOK = false
}

// --- analysis ------------------------------------------------------

// Analyze brings the timing state up to date with the netlist and
// returns a snapshot: Update, then snapshot. With no pending edits the
// previous snapshot is returned as-is; a small dirty set is
// re-propagated as a cone from the dirty frontier; a large one falls
// back to a full pass (which still serves unchanged operating points
// from the arc cache). After an Update with no edits since, only the
// snapshot is taken — no update runs or is counted.
func (e *Engine) Analyze() (*Result, error) {
	if e.haveState && e.last != nil {
		return e.last, nil
	}
	full := false
	if !e.haveState || e.pending() {
		var err error
		if full, err = e.update(); err != nil {
			return nil, err
		}
	}
	// prev survives update only when the arrays did not move (a bitwise
	// no-op update, typically a healed revert): re-use it instead of
	// allocating an identical snapshot.
	if e.prev != nil && e.prev.topoGen == e.nl.TopoGen() {
		e.last = e.prev
	} else {
		e.last = e.snapshot()
		e.prev = e.last
	}
	if engineVerify {
		if err := e.verify(e.last, full); err != nil {
			return nil, err
		}
	}
	return e.last, nil
}

// Update brings the working state up to date with the netlist exactly
// as Analyze does, but takes no snapshot. A probe loop reads the result
// through ChangedNets, WNS, Load and Slew, so a probe costs the cone it
// moved rather than an O(nets) copy. A later Analyze with no edits in
// between only takes the snapshot.
func (e *Engine) Update() error {
	if e.haveState && !e.pending() {
		e.changed = e.changed[:0]
		e.changedAll = false
		return nil
	}
	full, err := e.update()
	if err != nil {
		return err
	}
	if engineVerify {
		r := e.snapshot()
		err := e.verify(r, full)
		if err == nil && math.Float64bits(e.WNS()) != math.Float64bits(r.WNS()) {
			err = fmt.Errorf("sta verify: WNS %v want %v", e.WNS(), r.WNS())
		}
		e.Recycle(r)
		if err != nil {
			return err
		}
	}
	return nil
}

// pending reports whether edits arrived since the last update.
func (e *Engine) pending() bool { return len(e.dirtyInst.ids)+len(e.dirtyLoad.ids) > 0 }

// update runs one full or incremental pass over the working arrays and
// records which nets it changed. It drops prev whenever the arrays
// moved: prev must only ever describe the arrays as they are, or a
// later no-op update would re-use a stale snapshot.
func (e *Engine) update() (full bool, err error) {
	order, err := e.nl.TopoOrder()
	if err != nil {
		return false, err
	}
	e.ensureSizes()
	full = !e.haveState
	if !full {
		threshold := max(int(fullFrac*float64(len(e.nl.Instances))), minFullThreshold)
		full = len(e.dirtyInst.ids)+len(e.dirtyLoad.ids) > threshold
	}
	e.changed = e.changed[:0]
	e.changedAll = full
	if full {
		e.runFull(order)
		staFullAnalyses.Add(1)
		e.fullCount++
		e.prev = nil
	} else {
		cone, changed, err := e.runIncremental(order)
		if err != nil {
			return false, err
		}
		staIncremental.Add(1)
		staDirtyCone.Record(int64(cone))
		e.incCount++
		if changed {
			e.prev = nil
		}
	}
	e.dirtyInst.clear()
	e.dirtyLoad.clear()
	e.haveState = true
	e.last = nil
	return full, nil
}

// ChangedNets reports the nets the last update changed: the IDs whose
// load, max-capacitance flag, arrival, slew or fromPin moved bitwise,
// unordered and possibly repeated. all is true after a full pass, when
// any net may have moved and ids is empty.
func (e *Engine) ChangedNets() (ids []int, all bool) { return e.changed, e.changedAll }

// WNS returns the worst negative slack of the working state, bitwise
// equal to Result.WNS of the snapshot Analyze would take now: the same
// endpoints in the same sorted order, the same slack arithmetic. It
// describes the last Update or Analyze, not edits made since.
func (e *Engine) WNS() float64 {
	required := e.cfg.ClockPeriod - e.cfg.Uncertainty
	w := math.Inf(1)
	for _, ref := range e.endpointRefs() {
		if s := e.slack(ref, required); s < w {
			w = s
		}
	}
	if math.IsInf(w, 1) {
		return 0
	}
	return w
}

// EndpointSlack returns the slack of endpoint i of the working state,
// i indexing the endpoints in Result.Endpoints order, by the formula
// WNS takes its minimum over. Like WNS it describes the last update.
func (e *Engine) EndpointSlack(i int) float64 {
	return e.slack(e.endpointRefs()[i], e.cfg.ClockPeriod-e.cfg.Uncertainty)
}

// NetEndpoints returns the indices (as EndpointSlack takes them) of
// the endpoints whose slack reads the net's arrival. The first call
// after a topology edit builds the by-net index; the slice is shared
// and valid until the next topology edit.
func (e *Engine) NetEndpoints(id int) []int32 {
	refs := e.endpointRefs()
	x := &e.epByNet
	if !x.ok {
		nNets := e.nl.NetExtent()
		x.start = make([]int32, nNets+1)
		for _, ref := range refs {
			x.start[ref.net.ID+1]++
		}
		for n := 0; n < nNets; n++ {
			x.start[n+1] += x.start[n]
		}
		x.idx = make([]int32, len(refs))
		fill := slices.Clone(x.start[:nNets])
		for i, ref := range refs {
			x.idx[fill[ref.net.ID]] = int32(i)
			fill[ref.net.ID]++
		}
		x.ok = true
	}
	if id+1 >= len(x.start) {
		return nil
	}
	return x.idx[x.start[id]:x.start[id+1]]
}

// Load returns the working load of a net (pF), as of the last update.
func (e *Engine) Load(id int) float64 { return e.load[id] }

// Slew returns the working transition of a net (ns), as of the last
// update.
func (e *Engine) Slew(id int) float64 { return e.slew[id] }

// verify cross-checks a snapshot against a fresh full Analyze (only
// under STA_VERIFY=1), panicking with a stack under STA_VERIFY_PANIC=1.
func (e *Engine) verify(r *Result, full bool) error {
	err := e.verifySnapshot(r, full)
	if err != nil && os.Getenv("STA_VERIFY_PANIC") == "1" {
		os.Stderr.Write(debug.Stack())
		panic(err)
	}
	return err
}

// verifySnapshot compares a snapshot against a fresh full Analyze and
// reports the first bitwise difference. Only active under STA_VERIFY=1.
func (e *Engine) verifySnapshot(got *Result, wasFull bool) error {
	want, err := Analyze(e.nl, e.cfg)
	if err != nil {
		return err
	}
	mode := "incremental"
	if wasFull {
		mode = "full"
	}
	for i := range want.Load {
		if math.Float64bits(got.Load[i]) != math.Float64bits(want.Load[i]) {
			detail := ""
			for _, n := range e.nl.Nets {
				if n.ID != i {
					continue
				}
				drv := "<none>"
				if n.Driver != nil {
					drv = n.Driver.Name + ":" + n.Driver.Spec.Name
				}
				detail = fmt.Sprintf(" driver=%s sinks=[", drv)
				for _, s := range n.Sinks {
					if s.Inst == nil {
						detail += fmt.Sprintf(" PO(%s)", s.Pin)
						continue
					}
					detail += fmt.Sprintf(" %s:%s(cap %g)", s.Inst.Name, s.Inst.Spec.Name, s.Inst.Spec.InputCap())
				}
				detail += " ]"
			}
			return fmt.Errorf("sta verify (%s): Load[%d] = %v want %v%s", mode, i, got.Load[i], want.Load[i], detail)
		}
		if math.Float64bits(got.Arrival[i]) != math.Float64bits(want.Arrival[i]) {
			return fmt.Errorf("sta verify (%s): Arrival[%d] = %v want %v", mode, i, got.Arrival[i], want.Arrival[i])
		}
		if math.Float64bits(got.Slew[i]) != math.Float64bits(want.Slew[i]) {
			return fmt.Errorf("sta verify (%s): Slew[%d] = %v want %v", mode, i, got.Slew[i], want.Slew[i])
		}
		if got.fromPin[i] != want.fromPin[i] {
			return fmt.Errorf("sta verify (%s): fromPin[%d] = %q want %q", mode, i, got.fromPin[i], want.fromPin[i])
		}
	}
	if len(got.Endpoints) != len(want.Endpoints) {
		return fmt.Errorf("sta verify (%s): %d endpoints want %d", mode, len(got.Endpoints), len(want.Endpoints))
	}
	for i := range want.Endpoints {
		g, w := got.Endpoints[i], want.Endpoints[i]
		if g.Name != w.Name || math.Float64bits(g.Slack) != math.Float64bits(w.Slack) {
			return fmt.Errorf("sta verify (%s): endpoint %d = %+v want %+v", mode, i, g, w)
		}
	}
	if len(got.MaxCapViolations) != len(want.MaxCapViolations) {
		return fmt.Errorf("sta verify (%s): %d max-cap violations want %d", mode, len(got.MaxCapViolations), len(want.MaxCapViolations))
	}
	for i := range want.MaxCapViolations {
		if got.MaxCapViolations[i] != want.MaxCapViolations[i] {
			return fmt.Errorf("sta verify (%s): max-cap violation %d differs", mode, i)
		}
	}
	return nil
}

// ensureSizes grows the per-net arrays and the per-instance cell cache
// to the current netlist extent.
func (e *Engine) ensureSizes() {
	nNets := e.nl.NetExtent()
	for len(e.load) < nNets {
		e.load = append(e.load, 0)
		e.arrival = append(e.arrival, 0)
		e.slew = append(e.slew, 0)
		e.fromPin = append(e.fromPin, "")
		e.overCap = append(e.overCap, false)
	}
	for len(e.cells) < len(e.nl.Instances) {
		e.cells = append(e.cells, engCell{})
	}
}

// computeLoad mirrors Analyze's pass 1 for one net: the exact same sink
// sum in sink order (float addition is not associative, so the order is
// part of the bit-identity contract) plus the wire-load model, and the
// max-capacitance check against the current driver spec. Reports whether
// the stored load changed.
func (e *Engine) computeLoad(n *netlist.Net) (loadChanged, overChanged bool) {
	load := 0.0
	for _, s := range n.Sinks {
		if s.Inst == nil {
			load += e.cfg.OutputLoad
			continue
		}
		load += s.Inst.Spec.InputCap()
	}
	load += e.cfg.wireCap(n.ID, len(n.Sinks))
	loadChanged = load != e.load[n.ID]
	e.load[n.ID] = load
	over := false
	if n.Driver != nil {
		if mc := n.Driver.Spec.MaxCap(); load > mc+1e-12 {
			over = true
		}
	}
	overChanged = over != e.overCap[n.ID]
	e.overCap[n.ID] = over
	return loadChanged, overChanged
}

func (e *Engine) cellFor(inst *netlist.Instance) *engCell {
	c := &e.cells[inst.ID]
	switch {
	case c.spec == inst.Spec:
	case c.spec == nil:
		e.buildCell(c, inst)
	default:
		e.retarget(c, inst)
	}
	return c
}

// specSlots is the number of arc/value slots an output pin needs: one
// per data input, or a single clock-arc slot for sequential cells.
func specSlots(spec *stdcell.Spec) int {
	if spec.IsSequential() {
		return 1
	}
	return len(spec.Inputs)
}

// ensureVals makes v hold exactly slots cold cache entries, reusing the
// existing backing when it is large enough.
func (e *Engine) ensureVals(v *pinVals, slots int) {
	if a := &e.arena; cap(v.load) < slots {
		v.load = carve(&a.f64, slots, arenaF64Chunk, &a.bytes)
		v.slew = carve(&a.f64, slots, arenaF64Chunk, &a.bytes)
		v.d = carve(&a.f64, slots, arenaF64Chunk, &a.bytes)
		v.tr = carve(&a.f64, slots, arenaF64Chunk, &a.bytes)
		v.ok = carve(&a.bs, slots, arenaBChunk, &a.bytes)
		return
	}
	v.load = v.load[:slots]
	v.slew = v.slew[:slots]
	v.d = v.d[:slots]
	v.tr = v.tr[:slots]
	v.ok = v.ok[:slots]
	for i := range v.ok {
		v.ok[i] = false
	}
}

// buildCell resolves an instance's cell from scratch into c. This runs
// once per instance; resizes go through retarget and reuse everything
// built here.
func (e *Engine) buildCell(c *engCell, inst *netlist.Instance) {
	spec := inst.Spec
	arcs := e.nl.Cat.TimingArcs(spec)
	slots := specSlots(spec)
	c.spec = spec
	c.altSpec = nil
	c.pins = carve(&e.arena.pins, len(spec.Outputs), arenaPinChunk, &e.arena.bytes)
	for pi := range c.pins {
		p := &c.pins[pi]
		p.cur.arcs = arcs[pi]
		e.ensureVals(&p.cur, slots)
	}
}

// retarget repoints a built cell at the instance's new spec without
// allocating. The common resize ping-pong (probe B, revert to A) swaps
// the cur/alt value caches, keeping both generations warm; any other
// transition evicts the alt slot in place with fresh arcs from the
// catalogue cache. netlist.Resize only swaps between specs with the same
// pin lists, so every slot keeps its position.
func (e *Engine) retarget(c *engCell, inst *netlist.Instance) {
	spec := inst.Spec
	swap := c.altSpec == spec
	var arcs [][]*liberty.TimingArc
	if !swap {
		arcs = e.nl.Cat.TimingArcs(spec)
	}
	slots := specSlots(spec)
	for pi := range c.pins {
		p := &c.pins[pi]
		p.cur, p.alt = p.alt, p.cur
		if !swap {
			p.cur.arcs = arcs[pi]
			e.ensureVals(&p.cur, slots)
		}
	}
	c.spec, c.altSpec = spec, c.spec
}

// store updates a net's propagated values; returns whether anything
// changed bitwise (NaN compares unequal, so faulted values always count
// as changed — conservative, never wrong).
func (e *Engine) store(id int, arrival, slew float64, from string) bool {
	if e.arrival[id] == arrival && e.slew[id] == slew && e.fromPin[id] == from {
		return false
	}
	e.arrival[id], e.slew[id], e.fromPin[id] = arrival, slew, from
	if !e.changedAll {
		e.changed = append(e.changed, id)
	}
	return true
}

// evalInst re-evaluates one instance exactly as Analyze's pass 2 does:
// sequential launch through the clock arc, combinational worst over the
// spec's input order, arc-less outputs at time zero. Reports whether any
// output net's (arrival, slew, fromPin) changed.
func (e *Engine) evalInst(inst *netlist.Instance) bool {
	cc := e.cellFor(inst)
	changed := false
	if inst.Spec.IsSequential() {
		for pi, out := range inst.Out {
			p := &cc.pins[pi]
			if out == nil {
				continue
			}
			arc := p.cur.arcs[0]
			if arc == nil {
				continue
			}
			d, tr := p.eval(0, arc, e.load[out.ID], e.cfg.InputSlew)
			if e.store(out.ID, d, tr, inst.Spec.Clock) {
				changed = true
			}
		}
		return changed
	}
	for pi, out := range inst.Out {
		p := &cc.pins[pi]
		if out == nil {
			continue
		}
		worst := math.Inf(-1)
		worstSlew := 0.0
		worstPin := ""
		for i, in := range inst.Spec.Inputs {
			inNet := inst.In[i]
			if inNet == nil {
				continue
			}
			arc := p.cur.arcs[i]
			if arc == nil {
				continue
			}
			d, tr := p.eval(i, arc, e.load[out.ID], e.slew[inNet.ID])
			a := e.arrival[inNet.ID] + d
			if a > worst {
				worst = a
				worstSlew = tr
				worstPin = in
			}
		}
		if math.IsInf(worst, -1) {
			worst, worstSlew = 0, e.cfg.InputSlew
		}
		if e.store(out.ID, worst, worstSlew, worstPin) {
			changed = true
		}
	}
	return changed
}

// runFull recomputes everything from scratch into the working arrays —
// the same three passes as Analyze, with arc evaluations flowing through
// the per-instance cache so repeated operating points stay cheap.
func (e *Engine) runFull(order []*netlist.Instance) {
	for i := range e.load {
		e.load[i], e.arrival[i], e.slew[i] = 0, 0, 0
		e.fromPin[i] = ""
		e.overCap[i] = false
	}
	for _, n := range e.nl.Nets {
		e.computeLoad(n)
	}
	for _, n := range e.nl.Nets {
		if n.PrimaryIn {
			e.arrival[n.ID] = 0
			e.slew[n.ID] = e.cfg.InputSlew
		}
	}
	for _, inst := range order {
		e.evalInst(inst)
	}
}

// runIncremental refreshes the loads of the dirty nets, then
// re-propagates from the dirty instances in topological-position order,
// following fanout only where a net's propagated values actually changed
// bitwise — unchanged inputs reproduce bitwise-unchanged outputs, so the
// cone is exactly the set of instances whose state can differ. Returns
// the number of instances re-evaluated.
func (e *Engine) runIncremental(order []*netlist.Instance) (cone int, changed bool, err error) {
	idx, err := e.nl.TopoIndexes()
	if err != nil {
		return 0, false, err
	}
	for _, id := range e.dirtyLoad.ids {
		n := e.nl.Nets[id]
		lc, oc := e.computeLoad(n)
		if lc || oc {
			e.changed = append(e.changed, n.ID)
		}
		if oc {
			changed = true // max-cap violation set differs
		}
		if lc {
			changed = true
			if n.Driver != nil {
				// The driver sees a different load; its delays change.
				e.dirtyInst.add(n.Driver.ID)
			}
		}
	}
	for words := (len(order) + 63) >> 6; len(e.queued) < words; {
		e.queued = append(e.queued, 0)
	}
	q := e.queued
	lo, hi := len(q), 0 // word range holding set bits
	push := func(pos int) {
		w := pos >> 6
		q[w] |= 1 << (pos & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	for _, id := range e.dirtyInst.ids {
		inst := e.nl.Instances[id]
		// A resized flop changes its setup time — an endpoint-slack
		// change no per-net array reflects.
		if inst.Spec.IsSequential() {
			changed = true
		}
		push(idx[inst.ID])
	}
	// Take the lowest queued position until none is left. A sink sits
	// after its driver in the order, so every push below lands past the
	// position being evaluated and one forward scan visits the cone in
	// the order a min-heap would pop it.
	for w := lo; w <= hi; w++ {
		for q[w] != 0 {
			b := bits.TrailingZeros64(q[w])
			q[w] &^= 1 << b
			inst := order[w<<6|b]
			cone++
			if !e.evalInst(inst) {
				continue
			}
			changed = true
			for _, out := range inst.Out {
				if out == nil {
					continue
				}
				for _, s := range out.Sinks {
					// Sequential sinks capture, they don't re-launch; the
					// endpoint slacks are rebuilt from arrivals anyway.
					if s.Inst != nil && !s.Inst.Spec.IsSequential() {
						push(idx[s.Inst.ID])
					}
				}
			}
		}
	}
	return cone, changed, nil
}

// Recycle returns a snapshot this engine produced to its free pool, so
// the next snapshot reuses its slices instead of allocating fresh ones.
// Callers recycle only snapshots they know are dead — a probe result
// rejected and reverted away, never published outside the optimizer
// loop. The engine's current snapshot (last), results of other engines,
// and double-recycles are all ignored, so a conservative caller can
// never corrupt live state. Recycling the no-op-reuse candidate (prev,
// with edits pending) vacates that slot first: the caller vouches the
// snapshot is dead, which costs at most one avoidable re-snapshot if
// the pending edits turn out to be a bitwise no-op.
func (e *Engine) Recycle(r *Result) {
	if r == nil || r.eng != e || r.pooled || r == e.last {
		return
	}
	if r == e.prev {
		e.prev = nil
	}
	r.pooled = true
	e.free = append(e.free, r)
}

// snapshot copies the working state into an immutable Result — the same
// shape Analyze returns, with endpoints and max-cap violations rebuilt
// in Analyze's exact order. Recycled snapshots are reused when the pool
// has one; a Result is bitwise-identical either way.
func (e *Engine) snapshot() *Result {
	var r *Result
	if n := len(e.free); n > 0 {
		r = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		r.pooled = false
		r.reqDone = false
	} else {
		r = &Result{}
	}
	r.Cfg = e.cfg
	r.Load = append(r.Load[:0], e.load...)
	r.Arrival = append(r.Arrival[:0], e.arrival...)
	r.Slew = append(r.Slew[:0], e.slew...)
	r.fromPin = append(r.fromPin[:0], e.fromPin...)
	r.nl = e.nl
	r.eng = e
	r.topoGen = e.nl.TopoGen()
	r.MaxCapViolations = r.MaxCapViolations[:0]
	for _, n := range e.nl.Nets {
		if e.overCap[n.ID] {
			r.MaxCapViolations = append(r.MaxCapViolations, n)
		}
	}
	required := e.cfg.ClockPeriod - e.cfg.Uncertainty
	refs := e.endpointRefs()
	if cap(r.Endpoints) < len(refs) {
		r.Endpoints = make([]Endpoint, 0, len(refs))
	} else {
		r.Endpoints = r.Endpoints[:0]
	}
	for _, ref := range refs {
		r.Endpoints = append(r.Endpoints, Endpoint{
			Name: ref.name, IsFF: ref.isFF, Inst: ref.inst, Net: ref.net,
			Arrival: r.Arrival[ref.net.ID], Slack: e.slack(ref, required),
		})
	}
	return r
}

// slack is an endpoint's slack over the working arrays, the one formula
// both snapshot and WNS use (setup is re-read from the instance spec:
// resizes change it without a topology edit).
func (e *Engine) slack(ref epRef, required float64) float64 {
	if ref.isFF {
		return required - ref.inst.Spec.SetupTime(e.nl.Cat.Corner) - e.arrival[ref.net.ID]
	}
	return required - e.arrival[ref.net.ID]
}

// endpointRefs returns the endpoint skeleton — the FF D pins and primary
// outputs in Analyze's sorted order — rebuilding it only after topology
// edits (resizes never add or remove endpoints).
func (e *Engine) endpointRefs() []epRef {
	if e.epRefsOK && e.epGen == e.nl.TopoGen() {
		return e.epRefs
	}
	e.epRefs = e.epRefs[:0]
	for _, inst := range e.nl.Instances {
		if !inst.Spec.IsSequential() {
			continue
		}
		d := inst.Input("D")
		if d == nil {
			continue
		}
		e.epRefs = append(e.epRefs, epRef{name: inst.Name, isFF: true, inst: inst, net: d})
	}
	for _, n := range e.nl.Nets {
		for _, s := range n.Sinks {
			if s.Inst != nil {
				continue
			}
			e.epRefs = append(e.epRefs, epRef{name: s.Pin, net: n})
		}
	}
	sort.Slice(e.epRefs, func(i, j int) bool { return e.epRefs[i].name < e.epRefs[j].name })
	e.epGen = e.nl.TopoGen()
	e.epRefsOK = true
	e.epByNet.ok = false
	return e.epRefs
}

// Rewind restores the engine's working state to a previously returned
// snapshot and discards the pending dirty frontier. The caller must have
// returned the netlist to the exact state the Result describes — the
// revert path of a rejected downsize batch does precisely that — so no
// re-analysis is needed. Topology edits since the snapshot (which
// reverts cannot undo) make the rewind invalid.
func (e *Engine) Rewind(r *Result) error {
	if r.eng != e {
		return fmt.Errorf("sta: rewind to a result from a different engine")
	}
	if r.topoGen != e.nl.TopoGen() {
		return fmt.Errorf("sta: rewind across a topology edit")
	}
	e.ensureSizes()
	if len(r.Load) != len(e.load) {
		return fmt.Errorf("sta: rewind across a netlist growth (%d -> %d nets)", len(r.Load), len(e.load))
	}
	copy(e.load, r.Load)
	copy(e.arrival, r.Arrival)
	copy(e.slew, r.Slew)
	copy(e.fromPin, r.fromPin)
	for i := range e.overCap {
		e.overCap[i] = false
	}
	for _, n := range r.MaxCapViolations {
		e.overCap[n.ID] = true
	}
	e.dirtyInst.clear()
	e.dirtyLoad.clear()
	e.haveState = true
	e.last = r
	e.changed, e.changedAll = e.changed[:0], true
	// The arrays now describe r exactly, so r is also the snapshot a
	// bitwise no-op update may legally reuse; leaving an older prev in
	// place would let a later no-change Analyze resurrect stale state.
	e.prev = r
	return nil
}
