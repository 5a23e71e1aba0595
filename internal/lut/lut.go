// Package lut implements the two-dimensional look-up tables that carry
// timing information in a standard cell library, together with the LUT
// algebra the library-tuning method is built from: bilinear interpolation
// (paper eqs. 2-4), slope tables (eqs. 12-13), binary thresholding, the
// max-equivalent table, and the largest-rectangle extraction of
// Algorithm 1.
//
// Throughout the package the first index ("rows") runs along the output
// load axis and the second index ("columns") along the input slew axis,
// matching the index_1/index_2 convention of Liberty tables.
package lut

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Table is a dense two-dimensional look-up table over a load axis and a
// slew axis. Values[i][j] corresponds to load Loads[i] and slew Slews[j].
//
// Tables built through New/NewFilled store their grid in one contiguous
// row-major backing array; the Values rows are views into it, so element
// writes through Values and through Set stay coherent. Tables assembled
// as struct literals keep working through the same API, just without the
// contiguous fast path.
type Table struct {
	Loads  []float64   // ascending load axis (index_1)
	Slews  []float64   // ascending slew axis (index_2)
	Values [][]float64 // len(Loads) rows of len(Slews) values

	// flat is the contiguous row-major backing of Values (nil for tables
	// built as struct literals); stride is the row length.
	flat   []float64
	stride int

	// seg memoizes the last (load, slew) segment pair a Locate resolved,
	// packed as two uint32 indices. Queries along a timing path land in
	// the same segment almost every time, so validating the hint replaces
	// two binary searches with two comparisons. The hint is only trusted
	// after re-checking it brackets the query, so a stale or torn value
	// costs a binary search, never a wrong result.
	seg atomic.Uint64
}

// New allocates a zero-valued table over the given axes. The axes are
// copied so callers may reuse their slices. The value grid is one
// contiguous row-major allocation; Values exposes per-row views into it.
func New(loads, slews []float64) *Table {
	t := &Table{
		Loads:  append([]float64(nil), loads...),
		Slews:  append([]float64(nil), slews...),
		Values: make([][]float64, len(loads)),
		flat:   make([]float64, len(loads)*len(slews)),
		stride: len(slews),
	}
	for i := range t.Values {
		t.Values[i] = t.flat[i*t.stride : (i+1)*t.stride : (i+1)*t.stride]
	}
	return t
}

// NewFilled allocates a table and fills it by evaluating f at every grid
// point.
func NewFilled(loads, slews []float64, f func(load, slew float64) float64) *Table {
	t := New(loads, slews)
	for i, l := range t.Loads {
		for j, s := range t.Slews {
			t.Values[i][j] = f(l, s)
		}
	}
	return t
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := New(t.Loads, t.Slews)
	for i := range t.Values {
		copy(c.Values[i], t.Values[i])
	}
	return c
}

// Dims returns the number of load rows and slew columns.
func (t *Table) Dims() (nLoads, nSlews int) { return len(t.Loads), len(t.Slews) }

// Validate checks structural invariants: non-empty strictly ascending axes
// and a value grid matching the axes.
func (t *Table) Validate() error {
	if len(t.Loads) == 0 || len(t.Slews) == 0 {
		return errors.New("lut: empty axis")
	}
	if len(t.Values) != len(t.Loads) {
		return fmt.Errorf("lut: %d value rows for %d loads", len(t.Values), len(t.Loads))
	}
	for i, row := range t.Values {
		if len(row) != len(t.Slews) {
			return fmt.Errorf("lut: row %d has %d values for %d slews", i, len(row), len(t.Slews))
		}
	}
	if !strictlyAscending(t.Loads) {
		return errors.New("lut: load axis not strictly ascending")
	}
	if !strictlyAscending(t.Slews) {
		return errors.New("lut: slew axis not strictly ascending")
	}
	return nil
}

func strictlyAscending(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

// SameAxes reports whether two tables share identical load and slew axes.
func SameAxes(a, b *Table) bool {
	if len(a.Loads) != len(b.Loads) || len(a.Slews) != len(b.Slews) {
		return false
	}
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			return false
		}
	}
	for j := range a.Slews {
		if a.Slews[j] != b.Slews[j] {
			return false
		}
	}
	return true
}

// OneGrid reports whether the tables can share one Locate and read it
// through InterpGrid: every one non-nil and Contiguous, all on the
// first one's axes.
func OneGrid(tables ...*Table) bool {
	for _, t := range tables {
		if t == nil || !t.Contiguous() || !SameAxes(tables[0], t) {
			return false
		}
	}
	return len(tables) > 0
}

// Hint-statistics counters. Lookup is the hottest function in the whole
// pipeline (~10 ns/op), so the observability layer cannot afford an
// always-on record: the counters hide behind one atomic bool whose load
// predicts perfectly when stats are off. Enabled by cmd binaries when
// -trace/-debugaddr is set; the hit ratio is exported as the
// lut.hint_hit_ratio gauge.
var (
	hintStatsOn atomic.Bool
	hintHits    atomic.Int64
	hintMisses  atomic.Int64
)

// SetHintStatsEnabled switches atomic-hint hit/miss counting on or off
// process-wide.
func SetHintStatsEnabled(on bool) { hintStatsOn.Store(on) }

// HintStats returns the cumulative hint hits and misses counted while
// enabled. A "hit" is a Locate (every Lookup runs one) whose resolved
// (load, slew) segment pair equals the memoized hint, i.e. both binary
// searches were skipped.
func HintStats() (hits, misses int64) { return hintHits.Load(), hintMisses.Load() }

// HintHitRatio returns hits/(hits+misses), or -1 before any counted
// lookup — the value served as lut.hint_hit_ratio.
func HintHitRatio() float64 {
	h, m := HintStats()
	if h+m == 0 {
		return -1
	}
	return float64(h) / float64(h+m)
}

// segment locates i such that axis[i] <= x <= axis[i+1], clamping x to the
// axis range. It returns the index and the normalized position within the
// segment. Single-point axes return (0, 0); a NaN query yields a NaN
// fraction (never an out-of-range index).
func segment(axis []float64, x float64) (int, float64) {
	return segmentHint(axis, x, -1)
}

// segmentHint is segment with a candidate index from a previous query.
// A hint that still brackets x (axis[hint] < x <= axis[hint+1], the exact
// bracket the binary search would pick) is returned directly; anything
// else — including a stale, out-of-range or torn hint — falls back to the
// binary search, so the result is bit-identical either way.
func segmentHint(axis []float64, x float64, hint int) (int, float64) {
	n := len(axis)
	if math.IsNaN(x) {
		// All comparisons with NaN are false, so sort.SearchFloat64s
		// would return n and index out of range below. Surface the NaN
		// through the fraction instead.
		return 0, math.NaN()
	}
	if n == 1 {
		return 0, 0
	}
	if x <= axis[0] {
		return 0, 0
	}
	if x >= axis[n-1] {
		return n - 2, 1
	}
	if hint >= 0 && hint+1 < n && axis[hint] < x && x <= axis[hint+1] {
		return hint, (x - axis[hint]) / (axis[hint+1] - axis[hint])
	}
	// sort.SearchFloat64s returns the first index with axis[i] >= x.
	i := sort.SearchFloat64s(axis, x)
	lo := i - 1
	frac := (x - axis[lo]) / (axis[i] - axis[lo])
	return lo, frac
}

// Lookup bilinearly interpolates the table at the given load and slew,
// clamping queries outside the characterized range to the table edge.
// This implements eqs. (2)-(4): interpolate along the load axis first,
// then along the slew axis. A NaN load or slew returns NaN (the query
// point is undefined, so no table entry can be the right answer);
// ±Inf queries clamp to the table edge like any other out-of-range
// value. Lookup is safe for concurrent use.
func (t *Table) Lookup(load, slew float64) float64 { return t.interp(t.Locate(load, slew)) }

// Point is a (load, slew) query located on a pair of axes: the segment
// each coordinate falls in and its position within it. Every table over
// the same axes interpolates a Point exactly as its own Lookup would, so
// tables that share a grid pay for one bracket between them.
type Point struct {
	li, sj int
	lf, sf float64
	nan    bool // load or slew is NaN: every table reads NaN
	grid   bool // not NaN, and both axes have two or more points
}

// OnGrid reports whether the Point lies inside a two-dimensional grid:
// not NaN, with two or more points on each axis. InterpGrid takes only
// such Points; Locate decides it once for every table on the axes.
func (p Point) OnGrid() bool { return p.grid }

// Locate brackets (load, slew) on the table's axes, through and into
// the table's segment hint. It is safe for concurrent use.
func (t *Table) Locate(load, slew float64) Point {
	if math.IsNaN(load) || math.IsNaN(slew) {
		return Point{nan: true}
	}
	hint := t.seg.Load()
	li, lf := segmentHint(t.Loads, load, int(uint32(hint>>32)))
	sj, sf := segmentHint(t.Slews, slew, int(uint32(hint)))
	// Stat counting hides inside the branch the hint logic already
	// takes, so the disabled fast path pays one predictable load per
	// arm and nothing new in the interpolation.
	if packed := uint64(uint32(li))<<32 | uint64(uint32(sj)); packed != hint {
		t.seg.Store(packed)
		if hintStatsOn.Load() {
			hintMisses.Add(1)
		}
	} else if hintStatsOn.Load() {
		hintHits.Add(1)
	}
	return Point{li: li, sj: sj, lf: lf, sf: sf, grid: len(t.Loads) > 1 && len(t.Slews) > 1}
}

// InterpGrid interpolates a Contiguous table at an OnGrid Point located
// on the same axes (SameAxes), bit-identical to Lookup: eqs. (2)-(4)
// over the four grid values around it, small enough to inline.
func (t *Table) InterpGrid(p Point) float64 {
	q := t.flat[p.li*t.stride+p.sj:]
	p1 := lerp(q[0], q[t.stride], p.lf)   // eq. (2): (Li, Sj) to (Li+1, Sj)
	p2 := lerp(q[1], q[t.stride+1], p.lf) // eq. (3): (Li, Sj+1) to (Li+1, Sj+1)
	return lerp(p1, p2, p.sf)             // eq. (4)
}

// interp interpolates the table at a Point located on its own axes.
func (t *Table) interp(p Point) float64 {
	if p.grid && t.flat != nil {
		return t.InterpGrid(p)
	}
	if p.nan {
		return math.NaN()
	}
	li, sj, lf, sf := p.li, p.sj, p.lf, p.sf
	if len(t.Loads) == 1 && len(t.Slews) == 1 {
		return t.at(0, 0)
	}
	if len(t.Loads) == 1 {
		return lerp(t.at(0, sj), t.at(0, sj+1), sf)
	}
	if len(t.Slews) == 1 {
		return lerp(t.at(li, 0), t.at(li+1, 0), lf)
	}
	q11 := t.Values[li][sj]     // (Li, Sj)
	q21 := t.Values[li+1][sj]   // (Li+1, Sj)
	q12 := t.Values[li][sj+1]   // (Li, Sj+1)
	q22 := t.Values[li+1][sj+1] // (Li+1, Sj+1)
	p1 := lerp(q11, q21, lf)    // eq. (2)
	p2 := lerp(q12, q22, lf)    // eq. (3)
	return lerp(p1, p2, sf)     // eq. (4)
}

// at reads one grid value through the contiguous backing when present.
func (t *Table) at(i, j int) float64 {
	if t.flat != nil {
		return t.flat[i*t.stride+j]
	}
	return t.Values[i][j]
}

func lerp(a, b, f float64) float64 { return a + (b-a)*f }

// Max returns the maximum value in the table.
func (t *Table) Max() float64 {
	m := math.Inf(-1)
	for _, row := range t.Values {
		for _, v := range row {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// Min returns the minimum value in the table.
func (t *Table) Min() float64 {
	m := math.Inf(1)
	for _, row := range t.Values {
		for _, v := range row {
			if v < m {
				m = v
			}
		}
	}
	return m
}

// At returns the value at load index i and slew index j.
func (t *Table) At(i, j int) float64 { return t.at(i, j) }

// Set assigns the value at load index i and slew index j.
func (t *Table) Set(i, j int, v float64) {
	if t.flat != nil {
		t.flat[i*t.stride+j] = v
		return
	}
	t.Values[i][j] = v
}

// Scale multiplies every entry by k, in place, and returns the table.
func (t *Table) Scale(k float64) *Table {
	for i := range t.Values {
		for j := range t.Values[i] {
			t.Values[i][j] *= k
		}
	}
	return t
}

// MaxEquivalent builds the element-wise maximum of the given tables. All
// tables must share the same axes; the paper uses this to fold the LUTs of
// all timing arcs of an output pin (or all cells of a cluster) into one
// worst-case table.
func MaxEquivalent(tables ...*Table) (*Table, error) {
	if len(tables) == 0 {
		return nil, errors.New("lut: MaxEquivalent of zero tables")
	}
	base := tables[0]
	out := base.Clone()
	for _, tb := range tables[1:] {
		if !SameAxes(base, tb) {
			return nil, errors.New("lut: MaxEquivalent over mismatched axes")
		}
		for i := range out.Values {
			for j := range out.Values[i] {
				if tb.Values[i][j] > out.Values[i][j] {
					out.Values[i][j] = tb.Values[i][j]
				}
			}
		}
	}
	return out, nil
}

// String renders a compact human-readable dump of the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lut %dx%d loads=%v slews=%v\n", len(t.Loads), len(t.Slews), t.Loads, t.Slews)
	for _, row := range t.Values {
		for j, v := range row {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.6g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
