// Package synth is the timing-driven synthesis substrate: it covers the
// technology-independent logic network with cells from the 304-cell
// catalogue (phase-aware pattern matching: NAND/NOR/XNOR forms, B-input
// variants, full/half adder inference, mux mapping), then sizes gates,
// repairs slew/load legality and recovers area against a clock
// constraint — honoring the per-pin slew/load windows produced by the
// library tuner, which is exactly the mechanism the paper uses to bind
// synthesis to the robust region of each cell's LUT.
package synth

import (
	"fmt"

	"stdcelltune/internal/logic"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/stdcell"
)

// mapper converts a logic.Network into a netlist.Netlist of
// minimum-drive cells.
type mapper struct {
	src    *logic.Network
	nl     *netlist.Netlist
	cat    *stdcell.Catalogue
	fanout []int

	// memo[2*id+phase] -> net (phase 1 = inverted).
	memo map[int]*netlist.Net
	// Full-adder instances by fanin-ID triple.
	fa map[[3]int]*netlist.Instance
	// Half-adder pairing: XOR/AND nodes with identical fanin pairs.
	xorByPair map[[2]int]*logic.Node
	andByPair map[[2]int]*logic.Node
	ha        map[[2]int]*netlist.Instance

	ffNet map[int]*netlist.Net // DFF logic node ID -> Q net
	tieH  *netlist.Net
	tieL  *netlist.Net
}

// Map covers the logic network with minimum-drive standard cells. It
// reads no clock and no windows, so one mapped netlist serves every
// synthesis of a design: callers that synthesize repeatedly clone it and
// size the copy (Optimize edits its netlist in place).
func Map(name string, src *logic.Network, cat *stdcell.Catalogue) (*netlist.Netlist, error) {
	if err := src.Validate(); err != nil {
		return nil, fmt.Errorf("synth: source network invalid: %w", err)
	}
	m := &mapper{
		src:       src,
		nl:        netlist.New(name, cat),
		cat:       cat,
		fanout:    src.FanoutCounts(),
		memo:      make(map[int]*netlist.Net),
		fa:        make(map[[3]int]*netlist.Instance),
		xorByPair: make(map[[2]int]*logic.Node),
		andByPair: make(map[[2]int]*logic.Node),
		ha:        make(map[[2]int]*netlist.Instance),
		ffNet:     make(map[int]*netlist.Net),
	}
	// Index XOR/AND pairs for half-adder inference.
	for _, n := range src.Nodes {
		if len(n.Fanin) == 2 {
			k := [2]int{n.Fanin[0].ID, n.Fanin[1].ID}
			switch n.Op {
			case logic.OpXor:
				m.xorByPair[k] = n
			case logic.OpAnd:
				m.andByPair[k] = n
			}
		}
	}
	// Primary inputs.
	for _, in := range src.Inputs {
		m.memo[2*in.ID] = m.nl.AddInput(in.Name)
	}
	// Flip-flops: allocate instances up front (Q nets are sources), wire
	// D afterwards.
	dff := cat.Spec("DFQ_1")
	for _, ff := range src.FFs {
		inst := m.nl.AddInstance(ff.Name, dff)
		q := m.nl.AddNet(ff.Name + "_q")
		m.nl.Drive(inst, "Q", q)
		m.ffNet[ff.ID] = q
		m.memo[2*ff.ID] = q
	}
	// Outputs pull the reachable cone.
	for _, p := range src.Outputs {
		m.nl.MarkOutput(p.Name, m.net(p.Node, false))
	}
	// FF D inputs pull their cones too.
	for i, ff := range src.FFs {
		inst := m.nl.Instances[i] // FFs were added first, in order
		m.nl.Connect(inst, "D", m.net(ff.Fanin[0], false))
	}
	if err := m.nl.Validate(); err != nil {
		return nil, fmt.Errorf("synth: mapped netlist invalid: %w", err)
	}
	return m.nl, nil
}

func phaseKey(n *logic.Node, neg bool) int {
	k := 2 * n.ID
	if neg {
		k++
	}
	return k
}

// cheapNeg reports whether the inverted phase of n is (almost) free.
func (m *mapper) cheapNeg(n *logic.Node) bool {
	if n.Op == logic.OpInv || n.Op == logic.OpConst0 || n.Op == logic.OpConst1 {
		return true
	}
	_, ok := m.memo[phaseKey(n, true)]
	return ok
}

// net returns the net computing node n in the requested phase, mapping
// cells on demand.
func (m *mapper) net(n *logic.Node, neg bool) *netlist.Net {
	if got, ok := m.memo[phaseKey(n, neg)]; ok {
		return got
	}
	var out *netlist.Net
	switch n.Op {
	case logic.OpInput:
		// Positive phase pre-seeded; negative needs an inverter.
		out = m.inverterOf(m.net(n, false))
	case logic.OpConst0:
		if neg {
			out = m.tieHigh()
		} else {
			out = m.tieLow()
		}
	case logic.OpConst1:
		if neg {
			out = m.tieLow()
		} else {
			out = m.tieHigh()
		}
	case logic.OpDFF:
		out = m.inverterOf(m.net(n, false)) // positive pre-seeded
	case logic.OpBuf:
		out = m.net(n.Fanin[0], neg)
	case logic.OpInv:
		out = m.net(n.Fanin[0], !neg)
	case logic.OpAnd:
		out = m.mapAnd(n, neg)
	case logic.OpOr:
		out = m.mapOr(n, neg)
	case logic.OpXor:
		out = m.mapXor(n, neg)
	case logic.OpMux:
		out = m.mapMux(n, neg)
	case logic.OpSum3:
		out = m.mapSum3(n, neg)
	case logic.OpMaj3:
		out = m.mapMaj3(n, neg)
	default:
		panic(fmt.Sprintf("synth: cannot map op %v", n.Op))
	}
	m.memo[phaseKey(n, neg)] = out
	return out
}

// newCell places the named cell, connecting inputs in pin order, and
// returns its (first) output net.
func (m *mapper) newCell(cellName string, pins []string, nets []*netlist.Net) *netlist.Net {
	spec := m.cat.Spec(cellName)
	if spec == nil {
		panic("synth: unknown cell " + cellName)
	}
	inst := m.nl.AddInstance("", spec)
	for i, p := range pins {
		m.nl.Connect(inst, p, nets[i])
	}
	out := m.nl.AddNet("")
	m.nl.Drive(inst, spec.Outputs[0], out)
	return out
}

func (m *mapper) inverterOf(in *netlist.Net) *netlist.Net {
	return m.newCell("INV_1", []string{"A"}, []*netlist.Net{in})
}

func (m *mapper) tieHigh() *netlist.Net {
	if m.tieH == nil {
		m.tieH = m.newCell("TIEH_1", nil, nil)
	}
	return m.tieH
}

func (m *mapper) tieLow() *netlist.Net {
	if m.tieL == nil {
		m.tieL = m.newCell("TIEL_1", nil, nil)
	}
	return m.tieL
}

// leaves collects the fanin frontier of a same-op tree rooted at n: the
// direct fanins, repeatedly expanding any frontier node of the same op
// whose only consumer is this tree, as long as the frontier stays within
// max leaves. This is what lets an AND-chain become a single ND3/ND4.
func (m *mapper) leaves(n *logic.Node, op logic.Op, max int) []*logic.Node {
	out := append([]*logic.Node(nil), n.Fanin...)
	for {
		expanded := false
		for i, x := range out {
			if x.Op != op || m.fanout[x.ID] != 1 {
				continue
			}
			if len(out)-1+len(x.Fanin) > max {
				continue
			}
			repl := append([]*logic.Node(nil), out[:i]...)
			repl = append(repl, x.Fanin...)
			repl = append(repl, out[i+1:]...)
			out = repl
			expanded = true
			break
		}
		if !expanded {
			return out
		}
	}
}

// mapAnd covers an AND(-tree). neg=true yields the NAND form.
func (m *mapper) mapAnd(n *logic.Node, neg bool) *netlist.Net {
	// Half-adder pairing first: AND(a,b) with a sibling XOR(a,b) -> ADDH.CO.
	if !neg {
		if inst := m.halfAdder(n); inst != nil {
			return m.faOutput(inst, "CO")
		}
	}
	lv := m.leaves(n, logic.OpAnd, 4)
	if !neg && len(lv) == 2 {
		a, b := lv[0], lv[1]
		switch {
		case a.Op == logic.OpInv && b.Op == logic.OpInv:
			// !x * !y = NR2(x, y)
			return m.newCell("NR2_1", []string{"A", "B"},
				[]*netlist.Net{m.net(a.Fanin[0], false), m.net(b.Fanin[0], false)})
		case b.Op == logic.OpInv:
			// a * !y = NR2B(AN=a, B=y)
			return m.newCell("NR2B_1", []string{"AN", "B"},
				[]*netlist.Net{m.net(a, false), m.net(b.Fanin[0], false)})
		case a.Op == logic.OpInv:
			return m.newCell("NR2B_1", []string{"AN", "B"},
				[]*netlist.Net{m.net(b, false), m.net(a.Fanin[0], false)})
		}
	}
	if neg && len(lv) == 2 {
		a, b := lv[0], lv[1]
		if b.Op == logic.OpInv {
			// !(a * !y) = ND2B... ND2B(AN,B) = !(!AN * B); want !(a*!y) =
			// ND2B(AN=y? ) -> !(!y * a): AN=y, B=a.
			return m.newCell("ND2B_1", []string{"AN", "B"},
				[]*netlist.Net{m.net(b.Fanin[0], false), m.net(a, false)})
		}
		if a.Op == logic.OpInv {
			return m.newCell("ND2B_1", []string{"AN", "B"},
				[]*netlist.Net{m.net(a.Fanin[0], false), m.net(b, false)})
		}
	}
	// NAND-k over positive leaves.
	nets := make([]*netlist.Net, len(lv))
	for i, l := range lv {
		nets[i] = m.net(l, false)
	}
	nand := m.newCell(fmt.Sprintf("ND%d_1", len(lv)), nandPins(len(lv)), nets)
	if neg {
		return nand
	}
	// Positive AND: NOR over cheap negations beats NAND+INV when all
	// leaves invert for free.
	allCheap := len(lv) <= 4
	for _, l := range lv {
		if !m.cheapNeg(l) {
			allCheap = false
			break
		}
	}
	if allCheap {
		negNets := make([]*netlist.Net, len(lv))
		for i, l := range lv {
			negNets[i] = m.net(l, true)
		}
		return m.newCell(fmt.Sprintf("NR%d_1", len(lv)), nandPins(len(lv)), negNets)
	}
	return m.inverterOf(nand)
}

// mapOr covers an OR(-tree). neg=true yields the NOR form.
func (m *mapper) mapOr(n *logic.Node, neg bool) *netlist.Net {
	lv := m.leaves(n, logic.OpOr, 4)
	if len(lv) == 2 {
		a, b := lv[0], lv[1]
		if !neg {
			switch {
			case a.Op == logic.OpInv && b.Op == logic.OpInv:
				// !x + !y = ND2(x, y)
				return m.newCell("ND2_1", []string{"A", "B"},
					[]*netlist.Net{m.net(a.Fanin[0], false), m.net(b.Fanin[0], false)})
			case b.Op == logic.OpInv:
				// a + !y = ND2B(AN=a, B=y): !( !a * y ) = a + !y
				return m.newCell("ND2B_1", []string{"AN", "B"},
					[]*netlist.Net{m.net(a, false), m.net(b.Fanin[0], false)})
			case a.Op == logic.OpInv:
				return m.newCell("ND2B_1", []string{"AN", "B"},
					[]*netlist.Net{m.net(b, false), m.net(a.Fanin[0], false)})
			}
		} else {
			if b.Op == logic.OpInv {
				// !(a + !y) = NR2B... NR2B(AN,B)=!(!AN+B); want !(!y + a):
				// AN=y, B=a.
				return m.newCell("NR2B_1", []string{"AN", "B"},
					[]*netlist.Net{m.net(b.Fanin[0], false), m.net(a, false)})
			}
			if a.Op == logic.OpInv {
				return m.newCell("NR2B_1", []string{"AN", "B"},
					[]*netlist.Net{m.net(a.Fanin[0], false), m.net(b, false)})
			}
		}
	}
	nets := make([]*netlist.Net, len(lv))
	for i, l := range lv {
		nets[i] = m.net(l, false)
	}
	if neg {
		return m.newCell(fmt.Sprintf("NR%d_1", len(lv)), nandPins(len(lv)), nets)
	}
	return m.newCell(fmt.Sprintf("OR%d_1", len(lv)), nandPins(len(lv)), nets)
}

// mapXor covers XOR(-trees) with XNOR cells.
func (m *mapper) mapXor(n *logic.Node, neg bool) *netlist.Net {
	// Half-adder pairing first: XOR(a,b) with a sibling AND(a,b) -> ADDH.S.
	if !neg {
		if inst := m.halfAdder(n); inst != nil {
			return m.faOutput(inst, "S")
		}
	}
	lv := m.leaves(n, logic.OpXor, 3)
	// Absorb an inverted leaf: a ^ !b = !(a ^ b).
	for i, l := range lv {
		if l.Op == logic.OpInv {
			lv[i] = l.Fanin[0]
			neg = !neg
		}
	}
	nets := make([]*netlist.Net, len(lv))
	for i, l := range lv {
		nets[i] = m.net(l, false)
	}
	var xnr *netlist.Net
	if len(lv) == 3 {
		xnr = m.newCell("XNR3_1", []string{"A", "B", "C"}, nets)
	} else {
		xnr = m.newCell("XNR2_1", []string{"A", "B"}, nets)
	}
	if neg {
		return xnr
	}
	return m.inverterOf(xnr)
}

func (m *mapper) mapMux(n *logic.Node, neg bool) *netlist.Net {
	sel, d0, d1 := n.Fanin[0], n.Fanin[1], n.Fanin[2]
	if neg && m.cheapNeg(d0) && m.cheapNeg(d1) {
		return m.newCell("MUX2_1", []string{"S", "D0", "D1"},
			[]*netlist.Net{m.net(sel, false), m.net(d0, true), m.net(d1, true)})
	}
	pos := m.newCell("MUX2_1", []string{"S", "D0", "D1"},
		[]*netlist.Net{m.net(sel, false), m.net(d0, false), m.net(d1, false)})
	if neg {
		return m.inverterOf(pos)
	}
	return pos
}

func (m *mapper) mapSum3(n *logic.Node, neg bool) *netlist.Net {
	if neg {
		// !(a^b^c) = XNR3.
		nets := []*netlist.Net{
			m.net(n.Fanin[0], false), m.net(n.Fanin[1], false), m.net(n.Fanin[2], false),
		}
		return m.newCell("XNR3_1", []string{"A", "B", "C"}, nets)
	}
	inst := m.fullAdder(n.Fanin)
	return m.faOutput(inst, "S")
}

func (m *mapper) mapMaj3(n *logic.Node, neg bool) *netlist.Net {
	inst := m.fullAdder(n.Fanin)
	if !neg {
		if inst.Spec.Family == "ADDC" {
			// Invert the inverted carry.
			return m.inverterOf(m.faOutput(inst, "CON"))
		}
		return m.faOutput(inst, "CO")
	}
	if inst.Spec.Family == "ADDC" {
		return m.faOutput(inst, "CON")
	}
	return m.inverterOf(m.faOutput(inst, "CO"))
}

// fullAdder returns the shared ADDF/ADDC instance for a fanin triple.
func (m *mapper) fullAdder(fanin []*logic.Node) *netlist.Instance {
	k := [3]int{fanin[0].ID, fanin[1].ID, fanin[2].ID}
	if inst, ok := m.fa[k]; ok {
		return inst
	}
	spec := m.cat.Spec("ADDF_1")
	inst := m.nl.AddInstance("", spec)
	m.nl.Connect(inst, "A", m.net(fanin[0], false))
	m.nl.Connect(inst, "B", m.net(fanin[1], false))
	m.nl.Connect(inst, "CI", m.net(fanin[2], false))
	m.fa[k] = inst
	return inst
}

// halfAdder returns a shared ADDH instance when both XOR(a,b) and
// AND(a,b) exist in the source network; nil otherwise.
func (m *mapper) halfAdder(n *logic.Node) *netlist.Instance {
	k := [2]int{n.Fanin[0].ID, n.Fanin[1].ID}
	if m.xorByPair[k] == nil || m.andByPair[k] == nil {
		return nil
	}
	if inst, ok := m.ha[k]; ok {
		return inst
	}
	inst := m.nl.AddInstance("", m.cat.Spec("ADDH_1"))
	m.nl.Connect(inst, "A", m.net(n.Fanin[0], false))
	m.nl.Connect(inst, "B", m.net(n.Fanin[1], false))
	m.ha[k] = inst
	return inst
}

// faOutput returns (creating on demand) the net of an adder output pin.
func (m *mapper) faOutput(inst *netlist.Instance, pin string) *netlist.Net {
	if n := inst.Output(pin); n != nil {
		return n
	}
	n := m.nl.AddNet("")
	m.nl.Drive(inst, pin, n)
	return n
}

func nandPins(k int) []string {
	return []string{"A", "B", "C", "D"}[:k]
}
