package netlist_test

import (
	"strings"
	"sync"
	"testing"

	"stdcelltune/internal/netlist"
	"stdcelltune/internal/rtlgen"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/synth"
)

// headline maps the headline MCU (the 10k-instance design the served
// what-ifs clone per probe).
func headline(t testing.TB) *netlist.Netlist {
	t.Helper()
	m, err := rtlgen.Build(rtlgen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nl, err := synth.Map("mcu", m.Net, stdcell.NewCatalogue(stdcell.Typical))
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func verilog(t testing.TB, nl *netlist.Netlist) string {
	t.Helper()
	var sb strings.Builder
	if err := netlist.WriteVerilog(&sb, nl); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestCloneIsExactAndDisjoint: a clone has the original's IDs, names,
// pin positions, sink order and net extent; it shares no instance or
// net with the original; and edits to it leave the original's Verilog
// unchanged.
func TestCloneIsExactAndDisjoint(t *testing.T) {
	nl := headline(t)
	before := verilog(t, nl)
	cp := nl.Clone()
	if cp.NetExtent() != nl.NetExtent() || len(cp.Instances) != len(nl.Instances) || len(cp.Nets) != len(nl.Nets) {
		t.Fatalf("sizes differ: extent %d/%d, instances %d/%d, nets %d/%d",
			cp.NetExtent(), nl.NetExtent(), len(cp.Instances), len(nl.Instances), len(cp.Nets), len(nl.Nets))
	}
	ownInst := make(map[*netlist.Instance]bool, len(nl.Instances))
	ownNet := make(map[*netlist.Net]bool, len(nl.Nets))
	for _, inst := range nl.Instances {
		ownInst[inst] = true
	}
	for _, n := range nl.Nets {
		ownNet[n] = true
	}
	// same reports whether c (in the clone) mirrors o (in the original):
	// both nil, or the same ID and not shared.
	same := func(c, o *netlist.Net) bool {
		return c == nil && o == nil || c != nil && o != nil && c.ID == o.ID && !ownNet[c]
	}
	for i, inst := range nl.Instances {
		c := cp.Instances[i]
		if ownInst[c] || c.ID != inst.ID || c.Name != inst.Name || c.Spec != inst.Spec ||
			len(c.In) != len(inst.In) || len(c.Out) != len(inst.Out) {
			t.Fatalf("instance %d: clone %+v, original %+v", i, c, inst)
		}
		for j := range inst.In {
			if !same(c.In[j], inst.In[j]) {
				t.Fatalf("%s input %s: clone and original differ", inst.Name, inst.Spec.Inputs[j])
			}
		}
		for j := range inst.Out {
			if !same(c.Out[j], inst.Out[j]) {
				t.Fatalf("%s output %s: clone and original differ", inst.Name, inst.Spec.Outputs[j])
			}
		}
	}
	for i, n := range nl.Nets {
		c := cp.Nets[i]
		if !same(c, n) || c.Name != n.Name || c.DrvPin != n.DrvPin || c.PrimaryIn != n.PrimaryIn ||
			(c.Driver == nil) != (n.Driver == nil) || c.Driver != nil && (ownInst[c.Driver] || c.Driver.ID != n.Driver.ID) ||
			len(c.Sinks) != len(n.Sinks) {
			t.Fatalf("net %s: clone and original differ", n.Name)
		}
		for j, s := range n.Sinks {
			cs := c.Sinks[j]
			if cs.Pin != s.Pin || (cs.Inst == nil) != (s.Inst == nil) || cs.Inst != nil && (ownInst[cs.Inst] || cs.Inst.ID != s.Inst.ID) {
				t.Fatalf("net %s sink %d: clone %s, original %s", n.Name, j, cs.Pin, s.Pin)
			}
		}
	}
	if got := verilog(t, cp); got != before {
		t.Fatal("clone writes different Verilog")
	}

	// Edit the clone: a resize, a buffer on a multi-sink net, and a new
	// inverter on a new net whose input sink is appended to a net in the
	// middle of the clone's sink slab (an append past its window would
	// overwrite the next net's sinks, which Validate reports).
	for _, inst := range cp.Instances {
		if up := cp.Cat.Step(inst.Spec, 1); up != nil {
			if err := cp.Resize(inst, up); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	for _, n := range cp.Nets {
		if n.Driver != nil && len(n.Sinks) > 2 {
			cp.InsertBuffer(n, cp.Cat.Spec("BUF_2"), n.Sinks[:1])
			break
		}
	}
	mid := cp.Nets[len(cp.Nets)/2]
	inv := cp.AddInstance("", cp.Cat.Spec("INV_1"))
	cp.Connect(inv, "A", mid)
	cp.Drive(inv, "Y", cp.AddNet(""))
	if err := cp.Validate(); err != nil {
		t.Fatalf("edited clone: %v", err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("original after clone edits: %v", err)
	}
	if got := verilog(t, nl); got != before {
		t.Fatal("editing the clone changed the original's Verilog")
	}
	if cp.NetExtent() != nl.NetExtent()+2 {
		t.Fatalf("clone extent %d after two new nets, original %d", cp.NetExtent(), nl.NetExtent())
	}
}

// TestCloneAllocsConstant: Clone allocates a fixed handful of slabs, the
// same for a small and the headline design, so per-instance pin maps
// (two or more allocations per instance) cannot come back unnoticed.
func TestCloneAllocsConstant(t *testing.T) {
	m, err := rtlgen.Build(rtlgen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	small, err := synth.Map("mcu", m.Net, stdcell.NewCatalogue(stdcell.Typical))
	if err != nil {
		t.Fatal(err)
	}
	big := headline(t)
	const limit = 8
	for _, nl := range []*netlist.Netlist{small, big} {
		if a := testing.AllocsPerRun(3, func() { nl.Clone() }); a > limit {
			t.Errorf("Clone of %d instances makes %.0f allocations, want at most %d", len(nl.Instances), a, limit)
		}
	}
}

// TestConcurrentClones: a mapped template is cloned by concurrent
// syntheses, so Clone must only read its receiver. Several goroutines
// clone one netlist and edit their copies; under -race this fails if
// Clone writes to the template, and every edited copy must leave the
// template's Verilog unchanged.
func TestConcurrentClones(t *testing.T) {
	m, err := rtlgen.Build(rtlgen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := synth.Map("mcu", m.Net, stdcell.NewCatalogue(stdcell.Typical))
	if err != nil {
		t.Fatal(err)
	}
	before := verilog(t, tmpl)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cp := tmpl.Clone()
			for _, inst := range cp.Instances[g:] {
				if up := cp.Cat.Step(inst.Spec, 1); up != nil {
					if errs[g] = cp.Resize(inst, up); errs[g] != nil {
						return
					}
				}
			}
			if _, errs[g] = cp.TopoOrder(); errs[g] != nil {
				return
			}
			errs[g] = cp.Validate()
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	if got := verilog(t, tmpl); got != before {
		t.Fatal("concurrent clone edits changed the template's Verilog")
	}
}
