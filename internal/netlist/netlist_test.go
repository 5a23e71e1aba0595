package netlist

import (
	"strings"
	"testing"

	"stdcelltune/internal/stdcell"
)

var cat = stdcell.NewCatalogue(stdcell.Typical)

// buildXorViaNandInv builds y = a ^ b as XNR2 + INV plus a registered
// copy, exercising instances, nets, outputs and a flip-flop.
func buildXorViaNandInv(t testing.TB) *Netlist {
	t.Helper()
	nl := New("txor", cat)
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	xnr := nl.AddInstance("u_xnr", cat.Spec("XNR2_1"))
	nl.Connect(xnr, "A", a)
	nl.Connect(xnr, "B", b)
	nxn := nl.AddNet("")
	nl.Drive(xnr, "Y", nxn)
	inv := nl.AddInstance("u_inv", cat.Spec("INV_1"))
	nl.Connect(inv, "A", nxn)
	ny := nl.AddNet("y_net")
	nl.Drive(inv, "Y", ny)
	nl.MarkOutput("y", ny)
	ff := nl.AddInstance("u_ff", cat.Spec("DFQ_1"))
	nl.Connect(ff, "D", ny)
	q := nl.AddNet("")
	nl.Drive(ff, "Q", q)
	nl.MarkOutput("q", q)
	return nl
}

func TestValidateAndBasics(t *testing.T) {
	nl := buildXorViaNandInv(t)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(nl.PrimaryInputs()); got != 2 {
		t.Errorf("PIs %d want 2", got)
	}
	if got := len(nl.PrimaryOutputs()); got != 2 {
		t.Errorf("POs %d want 2", got)
	}
	if nl.OutputNet("y") == nil || nl.OutputNet("zzz") != nil {
		t.Error("OutputNet lookup broken")
	}
	if got := len(nl.Sequentials()); got != 1 {
		t.Errorf("sequentials %d want 1", got)
	}
	use := nl.CellUse()
	if use["XNR2_1"] != 1 || use["INV_1"] != 1 || use["DFQ_1"] != 1 {
		t.Errorf("cell use %v", use)
	}
	wantArea := cat.Spec("XNR2_1").Area() + cat.Spec("INV_1").Area() + cat.Spec("DFQ_1").Area()
	if got := nl.Area(); got != wantArea {
		t.Errorf("area %g want %g", got, wantArea)
	}
}

func TestValidateCatchesDangling(t *testing.T) {
	nl := New("bad", cat)
	inst := nl.AddInstance("u0", cat.Spec("ND2_1"))
	n := nl.AddNet("")
	nl.Drive(inst, "Y", n)
	// inputs A and B unconnected
	if err := nl.Validate(); err == nil {
		t.Error("dangling inputs accepted")
	}
}

func TestTopoOrder(t *testing.T) {
	nl := buildXorViaNandInv(t)
	order, err := nl.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, inst := range order {
		pos[inst.Name] = i
	}
	if pos["u_xnr"] > pos["u_inv"] {
		t.Error("xnr must precede inv")
	}
	if pos["u_ff"] != 0 {
		t.Error("sequential must be first")
	}
}

func TestTopoCycleDetection(t *testing.T) {
	nl := New("cyc", cat)
	a := nl.AddInstance("a", cat.Spec("INV_1"))
	b := nl.AddInstance("b", cat.Spec("INV_1"))
	n1, n2 := nl.AddNet(""), nl.AddNet("")
	nl.Drive(a, "Y", n1)
	nl.Connect(b, "A", n1)
	nl.Drive(b, "Y", n2)
	nl.Connect(a, "A", n2)
	if _, err := nl.TopoOrder(); err == nil {
		t.Error("combinational cycle not detected")
	}
}

func TestSimulatorTruthTable(t *testing.T) {
	nl := buildXorViaNandInv(t)
	sim, err := NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	prevY := false
	for v := 0; v < 4; v++ {
		av, bv := v&1 != 0, v&2 != 0
		out, err := sim.Step(map[string]bool{"a": av, "b": bv})
		if err != nil {
			t.Fatal(err)
		}
		if out["y"] != (av != bv) {
			t.Errorf("y(%v,%v)=%v", av, bv, out["y"])
		}
		if v > 0 && out["q"] != prevY {
			t.Errorf("q should lag y by one cycle")
		}
		prevY = out["y"]
	}
}

func TestEvalCellAllKinds(t *testing.T) {
	cases := []struct {
		cell string
		in   map[string]bool
		want map[string]bool
	}{
		{"INV_1", map[string]bool{"A": true}, map[string]bool{"Y": false}},
		{"BUF_2", map[string]bool{"A": true}, map[string]bool{"Y": true}},
		{"OR3_1", map[string]bool{"A": false, "B": false, "C": true}, map[string]bool{"Y": true}},
		{"ND2_1", map[string]bool{"A": true, "B": true}, map[string]bool{"Y": false}},
		{"ND2B_1", map[string]bool{"AN": false, "B": true}, map[string]bool{"Y": false}}, // !(!0 * 1) = !(1) = 0
		{"NR2_1", map[string]bool{"A": false, "B": false}, map[string]bool{"Y": true}},
		{"NR2B_1", map[string]bool{"AN": true, "B": false}, map[string]bool{"Y": true}}, // !(!1 + 0) = !(0) = 1
		{"NR4_1", map[string]bool{"A": false, "B": false, "C": false, "D": true}, map[string]bool{"Y": false}},
		{"XNR2_1", map[string]bool{"A": true, "B": true}, map[string]bool{"Y": true}},
		{"XNR3_1", map[string]bool{"A": true, "B": true, "C": true}, map[string]bool{"Y": false}},
		{"ADDF_1", map[string]bool{"A": true, "B": true, "CI": false}, map[string]bool{"S": false, "CO": true}},
		{"ADDC_1", map[string]bool{"A": true, "B": true, "CI": true}, map[string]bool{"S": true, "CON": false}},
		{"ADDH_1", map[string]bool{"A": true, "B": false}, map[string]bool{"S": true, "CO": false}},
		{"MUX2_1", map[string]bool{"D0": false, "D1": true, "S": true}, map[string]bool{"Y": true}},
		{"MUX4_1", map[string]bool{"D0": false, "D1": false, "D2": true, "D3": false, "S0": false, "S1": true}, map[string]bool{"Y": true}},
		{"TIEH_1", map[string]bool{}, map[string]bool{"Y": true}},
		{"TIEL_1", map[string]bool{}, map[string]bool{"Y": false}},
		{"DFQ_1", map[string]bool{"__state": true}, map[string]bool{"Q": true}},
		{"DFQN_1", map[string]bool{"__state": true}, map[string]bool{"QN": false}},
	}
	for _, c := range cases {
		spec := cat.Spec(c.cell)
		if spec == nil {
			t.Fatalf("cell %s missing", c.cell)
		}
		got, err := EvalCell(spec, c.in)
		if err != nil {
			t.Fatal(err)
		}
		for pin, want := range c.want {
			if got[pin] != want {
				t.Errorf("%s %v: pin %s = %v want %v", c.cell, c.in, pin, got[pin], want)
			}
		}
	}
}

func TestResize(t *testing.T) {
	nl := buildXorViaNandInv(t)
	inv := nl.Instances[1]
	if err := nl.Resize(inv, cat.Spec("INV_8")); err != nil {
		t.Fatal(err)
	}
	if inv.Spec.Drive != 8 {
		t.Error("resize did not stick")
	}
	if err := nl.Resize(inv, cat.Spec("ND2_4")); err == nil {
		t.Error("cross-footprint resize accepted")
	}
	// Connections are held by pin position, so a same-family spec that
	// lists other pins must be refused too.
	renamed := *cat.Spec("INV_4")
	renamed.Inputs = []string{"I"}
	if err := nl.Resize(inv, &renamed); err == nil || inv.Spec.Drive != 8 {
		t.Errorf("resize to a spec with other pin names: err %v, drive %d", err, inv.Spec.Drive)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBuffer(t *testing.T) {
	nl := buildXorViaNandInv(t)
	ny := nl.OutputNet("y")
	// Move the FF sink and the primary output behind a buffer.
	var ffSink Sink
	for _, s := range ny.Sinks {
		if s.Inst != nil && s.Inst.Name == "u_ff" {
			ffSink = s
		}
	}
	buf, out := nl.InsertBuffer(ny, cat.Spec("BUF_2"), []Sink{ffSink})
	if buf.Spec.Family != "BUF" {
		t.Error("buffer spec wrong")
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	// The FF is now fed by the buffer output.
	ff := nl.Instances[2]
	if ff.Input("D") != out {
		t.Error("FF not rewired to buffer output")
	}
	// Functionality unchanged.
	sim, err := NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	o1, _ := sim.Step(map[string]bool{"a": true, "b": false})
	o2, _ := sim.Step(map[string]bool{"a": true, "b": false})
	if !o1["y"] || !o2["q"] {
		t.Error("buffered netlist misbehaves")
	}
}

func TestInsertBufferOnPrimaryOutput(t *testing.T) {
	nl := buildXorViaNandInv(t)
	ny := nl.OutputNet("y")
	var po Sink
	for _, s := range ny.Sinks {
		if s.Inst == nil {
			po = s
		}
	}
	_, out := nl.InsertBuffer(ny, cat.Spec("BUF_2"), []Sink{po})
	if nl.OutputNet("y") != out {
		t.Error("primary output not re-pointed to buffer output")
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDepths(t *testing.T) {
	nl := buildXorViaNandInv(t)
	d, err := nl.Depths()
	if err != nil {
		t.Fatal(err)
	}
	// xnr at depth 1, inv at 2, ff at 0.
	if d[nl.Instances[0].ID] != 1 || d[nl.Instances[1].ID] != 2 || d[nl.Instances[2].ID] != 0 {
		t.Errorf("depths %v", d)
	}
}

func TestVerilogRoundTrip(t *testing.T) {
	nl := buildXorViaNandInv(t)
	var sb strings.Builder
	if err := WriteVerilog(&sb, nl); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"module txor", "XNR2_1", "INV_1 u_inv", ".D(y_net)", "endmodule"} {
		if !strings.Contains(text, want) {
			t.Errorf("verilog missing %q:\n%s", want, text)
		}
	}
	back, err := ParseVerilog(text, cat)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(back.Instances) != len(nl.Instances) {
		t.Fatalf("instances %d want %d", len(back.Instances), len(nl.Instances))
	}
	// Same truth table.
	s1, _ := NewSimulator(nl)
	s2, _ := NewSimulator(back)
	for v := 0; v < 4; v++ {
		in := map[string]bool{"a": v&1 != 0, "b": v&2 != 0}
		o1, _ := s1.Step(in)
		o2, _ := s2.Step(in)
		if o1["y"] != o2["y"] || o1["q"] != o2["q"] {
			t.Fatalf("round-trip functional mismatch at %02b", v)
		}
	}
}

func TestVerilogEscapedIdentifiers(t *testing.T) {
	nl := New("esc", cat)
	a := nl.AddInput("bus[3]")
	inv := nl.AddInstance("u_inv", cat.Spec("INV_1"))
	nl.Connect(inv, "A", a)
	y := nl.AddNet("out[0]")
	nl.Drive(inv, "Y", y)
	nl.MarkOutput("out[0]", y)
	var sb strings.Builder
	if err := WriteVerilog(&sb, nl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `\bus[3] `) {
		t.Errorf("escaped identifier missing:\n%s", sb.String())
	}
	back, err := ParseVerilog(sb.String(), cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.PrimaryInputs()) != 1 || back.PrimaryInputs()[0].Name != "bus[3]" {
		t.Error("escaped input lost")
	}
}

func TestParseVerilogErrors(t *testing.T) {
	bad := []string{
		"",
		"module ; endmodule",
		"module m ( input a ); UNKNOWN_CELL u0 (.A(a)); endmodule",
		"module m ( input a ); wire w endmodule", // missing semicolon
	}
	for _, src := range bad {
		if _, err := ParseVerilog(src, cat); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// TestParseVerilogRejectsBadPins: a connection to a pin the cell does
// not have, or a second connection to one pin, is a parse error naming
// the instance and the pin. Accepting a phantom input would add the
// cell's input capacitance to the net's load and write the pin back
// out.
func TestParseVerilogRejectsBadPins(t *testing.T) {
	for _, tc := range []struct {
		name, src, pin string
	}{
		{"unknown input", "module m ( input n1, output y ); INV_1 u1 (.A(n1), .Q(a), .Y(y)); endmodule", "Q"},
		{"unknown output", "module m ( input n1, output y ); INV_1 u1 (.A(n1), .Y(y), .Z(z)); endmodule", "Z"},
		{"duplicate pin", "module m ( input n1, input n2, output y ); INV_1 u1 (.A(n1), .A(n2), .Y(y)); endmodule", "A"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl, err := ParseVerilog(tc.src, cat)
			if err == nil {
				var sb strings.Builder
				WriteVerilog(&sb, nl)
				t.Fatalf("accepted, read back as:\n%s", sb.String())
			}
			if msg := err.Error(); !strings.Contains(msg, "u1") || !strings.Contains(msg, tc.pin) {
				t.Errorf("error %q does not name instance u1 and pin %s", msg, tc.pin)
			}
		})
	}
}

// TestWriteVerilogRefusesWhitespaceNames: an escaped identifier ends at
// whitespace, so a net, instance or port name with a space, tab or
// newline would read back as a different netlist. The writer must
// refuse it rather than emit such text.
func TestWriteVerilogRefusesWhitespaceNames(t *testing.T) {
	for _, name := range []string{"a b", "a\tb", "a\nb", " "} {
		for _, where := range []string{"net", "instance", "output", "module"} {
			nl := buildXorViaNandInv(t)
			switch where {
			case "net":
				nl.Nets[len(nl.Nets)-1].Name = name
			case "instance":
				nl.Instances[0].Name = name
			case "output":
				nl.MarkOutput(name, nl.Nets[0])
			case "module":
				nl.Name = name
			}
			var sb strings.Builder
			err := WriteVerilog(&sb, nl)
			if err == nil {
				t.Errorf("%s named %q written:\n%s", where, name, sb.String())
			} else if sb.Len() != 0 {
				t.Errorf("%s named %q: error %v, but %d bytes written", where, name, err, sb.Len())
			}
		}
	}
	// Names that need escaping but hold no whitespace still round-trip.
	nl := escapedNetlist()
	nl.Nets[0].Name = "a\rb"
	var sb strings.Builder
	if err := WriteVerilog(&sb, nl); err != nil {
		t.Fatal(err)
	}
	back, err := ParseVerilog(sb.String(), cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.PrimaryInputs()[0].Name; got != "a\rb" {
		t.Errorf("escaped name read back as %q", got)
	}
}

func TestConnectRewires(t *testing.T) {
	nl := New("rw", cat)
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	inv := nl.AddInstance("u", cat.Spec("INV_1"))
	nl.Connect(inv, "A", a)
	nl.Connect(inv, "A", b) // rewire
	if len(a.Sinks) != 0 {
		t.Error("old net still has the sink")
	}
	if inv.Input("A") != b || len(b.Sinks) != 1 {
		t.Error("rewire failed")
	}
}

func TestClone(t *testing.T) {
	nl := buildXorViaNandInv(t)
	cp := nl.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cp.Instances) != len(nl.Instances) || len(cp.Nets) != len(nl.Nets) {
		t.Fatal("structure size mismatch")
	}
	// Same behaviour.
	s1, _ := NewSimulator(nl)
	s2, _ := NewSimulator(cp)
	for v := 0; v < 4; v++ {
		in := map[string]bool{"a": v&1 != 0, "b": v&2 != 0}
		o1, _ := s1.Step(in)
		o2, _ := s2.Step(in)
		if o1["y"] != o2["y"] || o1["q"] != o2["q"] {
			t.Fatalf("clone behaves differently at %02b", v)
		}
	}
	// Mutating the clone must not touch the original.
	inv := cp.Instances[1]
	if err := cp.Resize(inv, cat.Spec("INV_16")); err != nil {
		t.Fatal(err)
	}
	if nl.Instances[1].Spec.Drive == 16 {
		t.Fatal("resize leaked into original")
	}
	// Buffer insertion on the clone leaves the original net intact.
	ny := cp.OutputNet("y")
	cp.InsertBuffer(ny, cat.Spec("BUF_2"), []Sink{ny.Sinks[0]})
	if len(nl.Instances) == len(cp.Instances) {
		t.Fatal("instance count should diverge after clone mutation")
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("original corrupted: %v", err)
	}
}

// TestVerilogParserNeverPanics: noise and truncations must error, not
// panic.
func TestVerilogParserNeverPanics(t *testing.T) {
	nl := buildXorViaNandInv(t)
	var sb strings.Builder
	if err := WriteVerilog(&sb, nl); err != nil {
		t.Fatal(err)
	}
	valid := sb.String()
	alphabet := []byte("module endwire assign().,;=\\ \n\tINV_1uxy0")
	seed := int64(7)
	next := func() int64 { seed = seed*6364136223846793005 + 1442695040888963407; return seed }
	for i := 0; i < 400; i++ {
		var src string
		switch i % 3 {
		case 0:
			n := int(uint64(next()) % 150)
			b := make([]byte, n)
			for j := range b {
				b[j] = alphabet[uint64(next())%uint64(len(alphabet))]
			}
			src = string(b)
		case 1:
			src = valid[:uint64(next())%uint64(len(valid))]
		default:
			b := []byte(valid)
			for k := 0; k < 4; k++ {
				b[uint64(next())%uint64(len(b))] = alphabet[uint64(next())%uint64(len(alphabet))]
			}
			src = string(b)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("verilog parser panicked on input %d: %v\n%s", i, r, src)
				}
			}()
			_, _ = ParseVerilog(src, cat)
		}()
	}
}

// recObserver records every journal notification as a compact string.
type recObserver struct{ events []string }

func (r *recObserver) OnResize(inst *Instance, from, to *stdcell.Spec) {
	r.events = append(r.events, "resize "+inst.Name+" "+from.Name+"->"+to.Name)
}
func (r *recObserver) OnConnect(inst *Instance, pin string, old, n *Net) {
	o := "<nil>"
	if old != nil {
		o = old.Name
	}
	r.events = append(r.events, "connect "+inst.Name+"."+pin+" "+o+"->"+n.Name)
}
func (r *recObserver) OnDrive(inst *Instance, pin string, n *Net) {
	r.events = append(r.events, "drive "+inst.Name+"."+pin+" "+n.Name)
}
func (r *recObserver) OnNewNet(n *Net) { r.events = append(r.events, "newnet "+n.Name) }
func (r *recObserver) OnNewInstance(inst *Instance) {
	r.events = append(r.events, "newinst "+inst.Name)
}
func (r *recObserver) OnSinksChanged(n *Net) { r.events = append(r.events, "sinks "+n.Name) }

func TestJournalNotifications(t *testing.T) {
	nl := buildXorViaNandInv(t)
	rec := &recObserver{}
	nl.Observe(rec)

	inv := nl.Instances[1]
	if err := nl.Resize(inv, cat.Spec("INV_4")); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != 1 || rec.events[0] != "resize u_inv INV_1->INV_4" {
		t.Fatalf("resize events %v", rec.events)
	}

	// InsertBuffer must journal the new instance/net, the drive, the
	// moved sink's reconnection, and the PO move on the source net.
	rec.events = nil
	ny := nl.OutputNet("y")
	var ffSink Sink
	for _, s := range ny.Sinks {
		if s.Inst != nil && s.Inst.Name == "u_ff" {
			ffSink = s
		}
	}
	nl.InsertBuffer(ny, cat.Spec("BUF_2"), []Sink{ffSink})
	var hasNewInst, hasDrive, hasConnect bool
	for _, e := range rec.events {
		hasNewInst = hasNewInst || strings.HasPrefix(e, "newinst ")
		hasDrive = hasDrive || strings.HasPrefix(e, "drive ")
		hasConnect = hasConnect || strings.HasPrefix(e, "connect u_ff.D ")
	}
	if !hasNewInst || !hasDrive || !hasConnect {
		t.Fatalf("buffer insertion journal incomplete: %v", rec.events)
	}

	// A detached observer hears nothing.
	rec2 := &recObserver{}
	nl.Observe(rec2)
	nl.Unobserve(rec2)
	before := len(rec.events)
	if err := nl.Resize(inv, cat.Spec("INV_2")); err != nil {
		t.Fatal(err)
	}
	if len(rec2.events) != 0 {
		t.Errorf("unobserved recorder got %v", rec2.events)
	}
	if len(rec.events) != before+1 {
		t.Errorf("active recorder missed the resize")
	}
}

func TestTopoCacheInvalidation(t *testing.T) {
	nl := buildXorViaNandInv(t)
	gen := nl.TopoGen()
	o1, err := nl.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	idx1, err := nl.TopoIndexes()
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range o1 {
		if idx1[inst.ID] != i {
			t.Fatalf("index[%s]=%d, want %d", inst.Name, idx1[inst.ID], i)
		}
	}

	// Resizes keep the DAG: same generation, same cached slice.
	if err := nl.Resize(nl.Instances[1], cat.Spec("INV_4")); err != nil {
		t.Fatal(err)
	}
	if nl.TopoGen() != gen {
		t.Error("resize bumped the topology generation")
	}
	o2, _ := nl.TopoOrder()
	if &o1[0] != &o2[0] {
		t.Error("resize invalidated the cached topo order")
	}

	// A topology edit bumps the generation and rebuilds the cache.
	ny := nl.OutputNet("y")
	var ffSink Sink
	for _, s := range ny.Sinks {
		if s.Inst != nil && s.Inst.Name == "u_ff" {
			ffSink = s
		}
	}
	nl.InsertBuffer(ny, cat.Spec("BUF_2"), []Sink{ffSink})
	if nl.TopoGen() == gen {
		t.Error("topology edit did not bump the generation")
	}
	o3, err := nl.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(o3) != len(o1)+1 {
		t.Errorf("rebuilt order has %d instances, want %d", len(o3), len(o1)+1)
	}
	idx3, _ := nl.TopoIndexes()
	for i, inst := range o3 {
		if idx3[inst.ID] != i {
			t.Fatalf("rebuilt index[%s]=%d, want %d", inst.Name, idx3[inst.ID], i)
		}
	}
}
