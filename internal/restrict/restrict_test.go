package restrict

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"stdcelltune/internal/stdcell"
)

func TestWindowAllows(t *testing.T) {
	w := Window{MinLoad: 0.001, MaxLoad: 0.02, MinSlew: 0.01, MaxSlew: 0.2}
	cases := []struct {
		load, slew float64
		want       bool
	}{
		{0.01, 0.1, true},
		{0.001, 0.01, true},  // inclusive lower bounds
		{0.02, 0.2, true},    // inclusive upper bounds
		{0.0005, 0.1, false}, // load below
		{0.03, 0.1, false},   // load above
		{0.01, 0.005, false}, // slew below
		{0.01, 0.3, false},   // slew above
	}
	for _, c := range cases {
		if got := w.Allows(c.load, c.slew); got != c.want {
			t.Errorf("Allows(%g,%g)=%v want %v", c.load, c.slew, got, c.want)
		}
	}
}

func TestWindowEmpty(t *testing.T) {
	if (Window{MaxLoad: 1, MaxSlew: 1}).Empty() {
		t.Error("valid window reported empty")
	}
	if !(Window{MinLoad: 2, MaxLoad: 1, MaxSlew: 1}).Empty() {
		t.Error("inverted load window not empty")
	}
	if !(Window{MaxLoad: 1, MinSlew: 2, MaxSlew: 1}).Empty() {
		t.Error("inverted slew window not empty")
	}
	if (Window{MaxLoad: -1, MaxSlew: -1}).Allows(0, 0) {
		t.Error("exclusion window allows the origin")
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet("test")
	if s.Len() != 0 {
		t.Error("new set not empty")
	}
	w := Window{MaxLoad: 0.05, MaxSlew: 0.1}
	s.Put("INV_1", "Y", w)
	got, ok := s.Window("INV_1", "Y")
	if !ok || got != w {
		t.Fatalf("Window lookup: %v %v", got, ok)
	}
	if _, ok := s.Window("INV_1", "Z"); ok {
		t.Error("wrong pin found")
	}
	if !s.Allows("INV_1", "Y", 0.01, 0.05) {
		t.Error("inside window rejected")
	}
	if s.Allows("INV_1", "Y", 0.06, 0.05) {
		t.Error("outside window allowed")
	}
	// Pins without a window are unrestricted.
	if !s.Allows("ND2_4", "Y", 99, 99) {
		t.Error("unwindowed pin restricted")
	}
}

func TestNilSetIsUnrestricted(t *testing.T) {
	var s *Set
	if !s.Allows("X", "Y", 1e9, 1e9) {
		t.Error("nil set restricted")
	}
	if s.Len() != 0 {
		t.Error("nil set length")
	}
	if _, ok := s.Window("X", "Y"); ok {
		t.Error("nil set has windows")
	}
	if s.MaxLoad("X", "Y", 0.5) != 0.5 {
		t.Error("nil MaxLoad fallback")
	}
	if s.MaxSlew("X", "Y", 0.5) != 0.5 {
		t.Error("nil MaxSlew fallback")
	}
	if s.Keys() != nil {
		t.Error("nil keys")
	}
	if s.String() != "unrestricted" {
		t.Errorf("nil String %q", s.String())
	}
}

func TestEffectiveLimits(t *testing.T) {
	s := NewSet("lims")
	s.Put("A_1", "Y", Window{MaxLoad: 0.01, MaxSlew: 0.05})
	// Window tighter than fallback: window wins.
	if got := s.MaxLoad("A_1", "Y", 0.04); got != 0.01 {
		t.Errorf("MaxLoad %g want 0.01", got)
	}
	if got := s.MaxSlew("A_1", "Y", 0.5); got != 0.05 {
		t.Errorf("MaxSlew %g want 0.05", got)
	}
	// Fallback tighter than window: fallback wins.
	if got := s.MaxLoad("A_1", "Y", 0.005); got != 0.005 {
		t.Errorf("MaxLoad %g want fallback 0.005", got)
	}
	// Unknown pin: fallback.
	if got := s.MaxLoad("B_1", "Y", 0.04); got != 0.04 {
		t.Errorf("unknown pin MaxLoad %g", got)
	}
}

func TestKeysSortedAndString(t *testing.T) {
	s := NewSet("str")
	s.Put("ZZ_1", "Y", Window{MaxLoad: 1, MaxSlew: 1})
	s.Put("AA_1", "Y", Window{MaxLoad: 1, MaxSlew: 1})
	s.Put("AA_1", "CO", Window{MaxLoad: 1, MaxSlew: 1})
	keys := s.Keys()
	if len(keys) != 3 {
		t.Fatalf("keys %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			t.Fatalf("keys not sorted: %v", keys)
		}
	}
	out := s.String()
	for _, want := range []string{"str", "ZZ_1/Y", "AA_1/CO", "3 windows"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}

// Property: Allows is consistent with the stored window bounds.
func TestAllowsConsistencyProperty(t *testing.T) {
	s := NewSet("prop")
	w := Window{MinLoad: 0.002, MaxLoad: 0.04, MinSlew: 0.01, MaxSlew: 0.3}
	s.Put("C_1", "Y", w)
	f := func(lu, su uint16) bool {
		load := float64(lu) / float64(1<<16) * 0.08
		slew := float64(su) / float64(1<<16) * 0.6
		want := load >= w.MinLoad && load <= w.MaxLoad && slew >= w.MinSlew && slew <= w.MaxSlew
		return s.Allows("C_1", "Y", load, slew) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestTableMatchesSet checks every resolved limit against the string-keyed
// Set lookups it replaces, for a set with windows looser and tighter
// than the fallbacks, and for the unrestricted nil set.
func TestTableMatchesSet(t *testing.T) {
	cat := stdcell.NewCatalogue(stdcell.Typical)
	last := stdcell.SlewAxis[len(stdcell.SlewAxis)-1]
	set := NewSet("t")
	set.Put("INV_4", "Y", Window{MaxLoad: 0.01, MaxSlew: 0.1})
	set.Put("ADDF_1", "S", Window{MaxLoad: 1e3, MaxSlew: 0.2})
	set.Put("ADDF_1", "CO", Window{MaxLoad: 0.002, MaxSlew: 0.05})
	for _, s := range []*Set{set, nil} {
		tab := Resolve(s, cat)
		for _, name := range cat.CellNames() {
			spec := cat.Spec(name)
			sink := math.Inf(1)
			for i, pin := range spec.Outputs {
				want := Limit{Load: s.MaxLoad(name, pin, spec.MaxCap()), Slew: s.MaxSlew(name, pin, last)}
				if got := tab.Pins(spec)[i]; got != want {
					t.Fatalf("%s/%s: Pins %+v want %+v", name, pin, got, want)
				}
				if got := tab.Pin(spec, pin); got != want {
					t.Fatalf("%s/%s: Pin %+v want %+v", name, pin, got, want)
				}
				sink = math.Min(sink, want.Slew)
			}
			if got := tab.SinkSlew(spec); got != sink {
				t.Fatalf("%s: SinkSlew %v want %v", name, got, sink)
			}
		}
	}
	// A spec outside the catalogue resolves on the fly.
	odd := *cat.Spec("INV_4")
	if got := Resolve(set, cat).Pin(&odd, "Y"); got.Load != 0.01 || got.Slew != 0.1 {
		t.Fatalf("uncatalogued spec: %+v", got)
	}
}

// TestDigestNamesResolvedLimits checks that the digest is a function of
// the resolved limits alone: a nil set and a set looser than every
// fallback agree, the order of Put calls never shows, and tightening
// one pin by one ULP changes it.
func TestDigestNamesResolvedLimits(t *testing.T) {
	cat := stdcell.NewCatalogue(stdcell.Typical)
	last := stdcell.SlewAxis[len(stdcell.SlewAxis)-1]
	base := Resolve(nil, cat).Digest()
	if !strings.HasPrefix(base, "sha256:") {
		t.Fatalf("digest %q lacks its scheme", base)
	}

	loose := NewSet("loose")
	for _, name := range cat.CellNames() {
		spec := cat.Spec(name)
		for _, pin := range spec.Outputs {
			loose.Put(name, pin, Window{MaxLoad: spec.MaxCap() * 2, MaxSlew: last * 2})
		}
	}
	if got := Resolve(loose, cat).Digest(); got != base {
		t.Errorf("set looser than the fallbacks: digest %s, want the nil set's %s", got, base)
	}

	windows := []struct {
		cell, pin string
		w         Window
	}{
		{"INV_4", "Y", Window{MaxLoad: 0.01, MaxSlew: 0.1}},
		{"ADDF_1", "CO", Window{MaxLoad: 0.002, MaxSlew: 0.05}},
		{"ND2_2", "Y", Window{MinLoad: 0.001, MaxLoad: 0.004, MaxSlew: 0.3}},
	}
	fwd, rev := NewSet("fwd"), NewSet("rev")
	for i := range windows {
		w := windows[i]
		fwd.Put(w.cell, w.pin, w.w)
		w = windows[len(windows)-1-i]
		rev.Put(w.cell, w.pin, w.w)
	}
	tight := Resolve(fwd, cat).Digest()
	if got := Resolve(rev, cat).Digest(); got != tight {
		t.Errorf("Put order changed the digest: %s vs %s", got, tight)
	}
	if tight == base {
		t.Error("binding windows left the digest at the unrestricted value")
	}

	ulp := NewSet("ulp")
	for _, w := range windows {
		ulp.Put(w.cell, w.pin, w.w)
	}
	w := windows[0].w
	w.MaxSlew = math.Nextafter(w.MaxSlew, 0)
	ulp.Put(windows[0].cell, windows[0].pin, w)
	if got := Resolve(ulp, cat).Digest(); got == tight {
		t.Error("slew limit one ULP tighter left the digest unchanged")
	}
	w = windows[0].w
	w.MaxLoad = math.Nextafter(w.MaxLoad, 0)
	ulp.Put(windows[0].cell, windows[0].pin, w)
	if got := Resolve(ulp, cat).Digest(); got == tight {
		t.Error("load limit one ULP tighter left the digest unchanged")
	}
}
