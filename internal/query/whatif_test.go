package query

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"stdcelltune/internal/netlist"
	"stdcelltune/internal/restrict"
	"stdcelltune/internal/rtlgen"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/synth"
)

// legalUnder counts load/slew violations of the design against a
// restriction set by scanning every net — the oracle Widen's tracked
// per-net count must agree with on every probe.
func legalUnder(nl *netlist.Netlist, r *sta.Result, set *restrict.Set) int {
	lastSlew := stdcell.SlewAxis[len(stdcell.SlewAxis)-1]
	n := 0
	for _, net := range nl.Nets {
		if net.Driver != nil {
			spec := net.Driver.Spec
			if net.ID < len(r.Load) && r.Load[net.ID] > set.MaxLoad(spec.Name, net.DrvPin, spec.MaxCap())+1e-12 {
				n++
			}
		}
		// The slew bound of a net is the tightest input-slew window of
		// any cell it feeds.
		limit := math.Inf(1)
		for _, snk := range net.Sinks {
			if snk.Inst == nil {
				continue
			}
			for _, outPin := range snk.Inst.Spec.Outputs {
				if l := set.MaxSlew(snk.Inst.Spec.Name, outPin, lastSlew); l < limit {
					limit = l
				}
			}
		}
		if net.ID < len(r.Slew) && r.Slew[net.ID] > limit+1e-12 {
			n++
		}
	}
	return n
}

var crcStores sync.Map // clock period -> *Store

// crcStore is a synthesized CRC-16 under windows on every cell (60% of
// max_capacitance, 80 ps input slew) at the given clock: a design where
// widen probes are both accepted and rejected, and narrowed windows
// turn slews far downstream of a probe illegal.
func crcStore(t *testing.T, clock float64) *Store {
	t.Helper()
	if s, ok := crcStores.Load(clock); ok {
		return s.(*Store)
	}
	c, sl := env(t)
	src, err := rtlgen.BuildCRC(rtlgen.CRCConfig{Width: 16, Poly: 0x1021, DataWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	set := restrict.NewSet("crc")
	for _, name := range c.CellNames() {
		spec := c.Spec(name)
		for _, pin := range spec.Outputs {
			set.Put(name, pin, restrict.Window{MaxLoad: spec.MaxCap() * 0.6, MaxSlew: 0.08})
		}
	}
	opts := synth.DefaultOptions(clock)
	opts.Restrict = set
	res, err := synth.Synthesize("crc", src, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(Source{Library: "sha256:crc", Stat: sl, Windows: set, Netlist: res.Netlist, STA: opts.STA})
	if err != nil {
		t.Fatal(err)
	}
	crcStores.Store(clock, s)
	return s
}

// TestWidenTrackedLegalityMatchesScan checks the per-net violation count
// and the engine's WNS, as read on every widen probe, against a full
// legality scan over a fresh analysis, and the count of endpoints below
// minWNS against that WNS. The fixtures include a flop downsize whose
// only effect is a longer setup time: that probe must be seen and
// rejected.
func TestWidenTrackedLegalityMatchesScan(t *testing.T) {
	stores := map[string]*Store{"test": testStore(t), "crc@0.8": crcStore(t, 0.8), "crc@1.0": crcStore(t, 1.0), "setup": setupStore(t)}
	probes, rejected, flopProbes := 0, 0, 0
	for name, s := range stores {
		for _, f := range []float64{0.8, 1.2, 2} {
			set := widenSet(s.windows, f)
			wr, err := s.widen(f, func(w *widening) {
				probes++
				r, err := sta.Analyze(w.nl, s.staCfg)
				if err != nil {
					t.Fatal(err)
				}
				if want := legalUnder(w.nl, r, set); w.violations != want {
					t.Fatalf("%s widen %v probe %d: tracked %d violations, scan finds %d", name, f, probes, w.violations, want)
				}
				if g, want := w.eng.WNS(), r.WNS(); math.Float64bits(g) != math.Float64bits(want) {
					t.Fatalf("%s widen %v probe %d: WNS %v want %v", name, f, probes, g, want)
				}
				if met := r.WNS() >= w.minWNS; (w.nlate == 0) != met {
					t.Fatalf("%s widen %v probe %d: %d endpoints below minWNS %v, but WNS %v", name, f, probes, w.nlate, w.minWNS, r.WNS())
				}
				for _, inst := range w.nl.Instances {
					if inst.Name == "ff" && inst.Spec.Name == "DFQ_1" {
						flopProbes++
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			rejected += wr.IncrementalUpdates - wr.Changed
			for _, c := range wr.Changes {
				if name == "setup" && c.Inst == "ff" {
					t.Fatalf("%s widen %v accepted the flop downsize %s -> %s", name, f, c.From, c.To)
				}
			}
		}
	}
	if probes == 0 || rejected == 0 || flopProbes == 0 {
		t.Fatalf("probes %d, rejected %d, flop downsizes %d: the fixtures must exercise both outcomes and a flop", probes, rejected, flopProbes)
	}
}

// TestWhatIfResponsesPinned pins the serialized what-if responses,
// engine accounting included, to the digests the full-scan evaluator
// (re-snapshotting the design on every probe) produced: tracking
// legality per net must not change a single byte.
func TestWhatIfResponsesPinned(t *testing.T) {
	digest := func(wr *WhatIfResult, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(wr)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	s := testStore(t)
	crc10, crc08 := crcStore(t, 1.0), crcStore(t, 0.8)
	for _, c := range []struct {
		name string
		got  string
		want string
	}{
		{"test widen 1.5", digest(s.Widen(1.5)), "62675469da593ab2bd5ada168bfc7ccae6328f1af2a1d0fc62e16e8a7a5a0b19"},
		{"test substitute INV_4->INV_8", digest(s.Substitute("INV_4", "INV_8")), "4a86277c3fac5f018422c56b5de8c09d6ec8cd9bf8979ae5b8593bb4730df8ad"},
		{"crc@1.0 widen 0.8", digest(crc10.Widen(0.8)), "a3b23e2361a57b7b6409ae2eeb40491a6c8b12b2500c916232b66d612eb083ae"},
		{"crc@1.0 widen 1.2", digest(crc10.Widen(1.2)), "dfdcdec429b038769755366ae972af34789fc034e1a5bb7a4a31febbc0b300fe"},
		{"crc@1.0 widen 2", digest(crc10.Widen(2)), "c9e60f10164fa7947fed22fced13635039e67f1afb359a83708e3ce4f0c696c2"},
		{"crc@0.8 widen 0.8", digest(crc08.Widen(0.8)), "a9b47c1bf0c18a871233f6fcd9213b0328352a5be41c92bab58fb644b4694ae9"},
		{"crc@0.8 widen 1.2", digest(crc08.Widen(1.2)), "323cbb061f51ce0ce14b70c55e9bbcbccb67c9872c4e12d6edfbf2169a242017"},
		{"crc@0.8 widen 2", digest(crc08.Widen(2)), "b68725d59617bf7d7bd46adfd34298aeb3e25e0f3d30d40a0d7eac5c3997d7f1"},
	} {
		if c.got != c.want {
			t.Errorf("%s: response sha256 %s want %s", c.name, c.got, c.want)
		}
	}
}

// setupStore is a design whose widen pass probes a flop downsize that
// moves no net value at all: on a private catalogue the DFQ flops load
// their D net with nothing, and the smaller drive has the longer setup.
// The downsize changes only the slack of the endpoint on the flop's D
// net, which no changed net reports.
func setupStore(t *testing.T) *Store {
	t.Helper()
	_, sl := env(t)
	c := stdcell.NewCatalogue(stdcell.Typical)
	for _, spec := range c.SizesOf("DFQ_1") {
		spec.Params.CinPerDrive = 0
		spec.Params.Setup = 1 / float64(spec.Drive)
	}
	nl := netlist.New("setup", c)
	cur := nl.AddInput("a")
	for i := 0; i < 4; i++ {
		inv := nl.AddInstance("", c.Spec("INV_4"))
		nl.Connect(inv, "A", cur)
		cur = nl.AddNet("")
		nl.Drive(inv, "Y", cur)
	}
	ff := nl.AddInstance("ff", c.Spec("DFQ_2"))
	nl.Connect(ff, "D", cur)
	q := nl.AddNet("")
	nl.Drive(ff, "Q", q)
	nl.MarkOutput("q", q)
	set := restrict.NewSet("loose")
	for _, name := range c.CellNames() {
		spec := c.Spec(name)
		for _, pin := range spec.Outputs {
			set.Put(name, pin, restrict.Window{MaxLoad: 10 * spec.MaxCap(), MaxSlew: 10})
		}
	}
	s, err := Build(Source{Library: "sha256:setup", Stat: sl, Windows: set, Netlist: nl, STA: sta.DefaultConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	return s
}
