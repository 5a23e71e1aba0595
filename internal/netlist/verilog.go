package netlist

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"stdcelltune/internal/stdcell"
)

// WriteVerilog serializes the netlist as a flat structural Verilog
// module: one wire per net, one cell instantiation per instance with
// named port connections. Bus-style port names like "instr[3]" are
// escaped Verilog identifiers. An escaped identifier ends at whitespace,
// so a name containing a space, tab or newline cannot be written: it
// would read back as a different netlist. WriteVerilog returns an error
// for such a name and writes nothing.
func WriteVerilog(w io.Writer, nl *Netlist) error {
	var inputs, outputs []string
	for _, n := range nl.Nets {
		if n.PrimaryIn {
			inputs = append(inputs, n.Name)
		}
	}
	for _, s := range nl.PrimaryOutputs() {
		outputs = append(outputs, s.Pin)
	}
	slices.Sort(inputs)
	slices.Sort(outputs)

	var v vwriter
	v.put("module ", nl.Name, " (\n")
	for _, in := range inputs {
		v.put("  input ", in, ",\n")
	}
	for i, out := range outputs {
		if i < len(outputs)-1 {
			v.put("  output ", out, ",\n")
		} else {
			v.put("  output ", out, "\n")
		}
	}
	v.b = append(v.b, ");\n"...)
	for _, n := range nl.Nets {
		if !n.PrimaryIn {
			v.put("  wire ", n.Name, ";\n")
		}
	}
	var pins []pinNet // one scratch slice, refilled per instance
	for _, inst := range nl.Instances {
		pins = pins[:0]
		for i, n := range inst.In {
			if n != nil {
				pins = append(pins, pinNet{inst.Spec.Inputs[i], n})
			}
		}
		for i, n := range inst.Out {
			if n != nil {
				pins = append(pins, pinNet{inst.Spec.Outputs[i], n})
			}
		}
		slices.SortFunc(pins, func(a, b pinNet) int { return strings.Compare(a.pin, b.pin) })
		v.b = append(append(v.b, "  "...), inst.Spec.Name...)
		v.put(" ", inst.Name, " (")
		for i, p := range pins {
			if i > 0 {
				v.b = append(v.b, ", "...)
			}
			v.b = append(append(v.b, '.'), p.pin...)
			v.put("(", p.n.Name, ")")
		}
		v.b = append(v.b, ");\n"...)
	}
	// Primary output assigns.
	for _, n := range nl.Nets {
		for _, s := range n.Sinks {
			if s.Inst == nil && s.Pin != n.Name {
				v.put("  assign ", s.Pin, " = ")
				v.put("", n.Name, ";\n")
			}
		}
	}
	v.b = append(v.b, "endmodule\n"...)
	if v.err != nil {
		return v.err
	}
	_, err := w.Write(v.b)
	return err
}

// pinNet is one connected pin of an instance, for WriteVerilog's
// name-sorted port list.
type pinNet struct {
	pin string
	n   *Net
}

// vwriter appends Verilog text to b; err records the first name that
// cannot be written.
type vwriter struct {
	b   []byte
	err error
}

// put appends prefix, name as a Verilog identifier, then suffix. A name
// that plain identifiers disallow (a character like '[', or a leading
// digit) is written as an escaped identifier: backslash ... space.
func (v *vwriter) put(prefix, name, suffix string) {
	v.b = append(v.b, prefix...)
	plain := len(name) > 0 && !(name[0] >= '0' && name[0] <= '9')
	for i := 0; plain && i < len(name); i++ {
		c := name[i]
		plain = c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '$'
	}
	if plain {
		v.b = append(v.b, name...)
	} else {
		if v.err == nil && strings.ContainsAny(name, " \t\n") {
			v.err = fmt.Errorf("verilog: name %q contains whitespace and cannot be written as an escaped identifier", name)
		}
		v.b = append(append(append(v.b, '\\'), name...), ' ')
	}
	v.b = append(v.b, suffix...)
}

// ParseVerilog reads a flat structural module written by WriteVerilog
// back into a netlist over the given catalogue. Tokens are read on
// demand, straight from src; the netlist keeps no slice of src (see
// ownNames), so a long-lived netlist does not pin its text.
func ParseVerilog(src string, cat *stdcell.Catalogue) (*Netlist, error) {
	p := &vparser{src: src, cat: cat}
	nl, err := p.parseModule()
	if err != nil {
		return nil, err
	}
	ownNames(nl)
	return nl, nil
}

// ownNames copies the names a parsed netlist took from its source text
// (module, instance, net and primary-output names) into one shared
// string, one allocation per netlist rather than one per name. Pin
// names are the catalogue's already.
func ownNames(nl *Netlist) {
	size := len(nl.Name)
	for _, inst := range nl.Instances {
		size += len(inst.Name)
	}
	for _, n := range nl.Nets {
		size += len(n.Name)
		for _, s := range n.Sinks {
			if s.Inst == nil {
				size += len(s.Pin)
			}
		}
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(nl.Name)
	for _, inst := range nl.Instances {
		b.WriteString(inst.Name)
	}
	for _, n := range nl.Nets {
		b.WriteString(n.Name)
		for _, s := range n.Sinks {
			if s.Inst == nil {
				b.WriteString(s.Pin)
			}
		}
	}
	buf := b.String()
	own := func(name *string) {
		*name, buf = buf[:len(*name)], buf[len(*name):]
	}
	own(&nl.Name)
	for _, inst := range nl.Instances {
		own(&inst.Name)
	}
	for _, n := range nl.Nets {
		own(&n.Name)
		for i := range n.Sinks {
			if n.Sinks[i].Inst == nil {
				own(&n.Sinks[i].Pin)
			}
		}
	}
}

// vdelim marks the bytes that end a plain identifier.
var vdelim = [256]bool{' ': true, '\t': true, '\n': true, '\r': true, '\\': true,
	'(': true, ')': true, ',': true, '.': true, ';': true, '=': true}

type vparser struct {
	src string
	pos int
	cat *stdcell.Catalogue
}

// next returns the next token: one punctuation byte, a plain
// identifier, or the name of an escaped identifier, which runs from the
// backslash to the next space, tab or newline. Tokens are compared as
// text, so an escaped "(" reads like the punctuation.
func (p *vparser) next() (string, error) {
	src, n := p.src, len(p.src)
	for p.pos < n {
		i := p.pos
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			p.pos++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for p.pos < n && src[p.pos] != '\n' {
				p.pos++
			}
		case c == '\\':
			j := i + 1
			for j < n && src[j] != ' ' && src[j] != '\t' && src[j] != '\n' {
				j++
			}
			p.pos = j
			return src[i+1 : j], nil
		case vdelim[c]: // punctuation: every other delimiter is handled above
			p.pos++
			return src[i:p.pos], nil
		default:
			j := i + 1
			for j < n && !vdelim[src[j]] {
				j++
			}
			p.pos = j
			return src[i:j], nil
		}
	}
	return "", fmt.Errorf("verilog: unexpected end of input")
}

func (p *vparser) expect(s string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t != s {
		return fmt.Errorf("verilog: expected %q got %q", s, t)
	}
	return nil
}

func (p *vparser) parseModule() (*Netlist, error) {
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	name, err := p.next()
	if err != nil {
		return nil, err
	}
	nl := New(name, p.cat)
	nets := make(map[string]*Net)
	getNet := func(n string) *Net {
		if x, ok := nets[n]; ok {
			return x
		}
		x := nl.AddNet(n)
		nets[n] = x
		return x
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var outputs []string
	for {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		if t == ")" {
			break
		}
		if t == "," {
			continue
		}
		id, err := p.next()
		if err != nil {
			return nil, err
		}
		switch t {
		case "input":
			n := getNet(id)
			n.PrimaryIn = true
		case "output":
			outputs = append(outputs, id)
		default:
			return nil, fmt.Errorf("verilog: unexpected port class %q", t)
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	outputNets := make(map[string]*Net)
	for {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		switch t {
		case "endmodule":
			// Any output without an assign is driven by a same-named net.
			for _, o := range outputs {
				if outputNets[o] == nil {
					nl.MarkOutput(o, getNet(o))
				}
			}
			return nl, nil
		case "wire":
			id, err := p.next()
			if err != nil {
				return nil, err
			}
			getNet(id)
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		case "assign":
			lhs, err := p.next()
			if err != nil {
				return nil, err
			}
			if err := p.expect("="); err != nil {
				return nil, err
			}
			rhs, err := p.next()
			if err != nil {
				return nil, err
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			n := getNet(rhs)
			nl.MarkOutput(lhs, n)
			outputNets[lhs] = n
		default:
			// Cell instantiation: CELL instname ( .pin(net), ... );
			spec := p.cat.Spec(t)
			if spec == nil {
				return nil, fmt.Errorf("verilog: unknown cell %q", t)
			}
			iname, err := p.next()
			if err != nil {
				return nil, err
			}
			inst := nl.AddInstance(iname, spec)
			if err := p.expect("("); err != nil {
				return nil, err
			}
			for {
				t, err := p.next()
				if err != nil {
					return nil, err
				}
				if t == ")" {
					break
				}
				if t == "," {
					continue
				}
				if t != "." {
					return nil, fmt.Errorf("verilog: expected .pin, got %q", t)
				}
				pin, err := p.next()
				if err != nil {
					return nil, err
				}
				if err := p.expect("("); err != nil {
					return nil, err
				}
				netName, err := p.next()
				if err != nil {
					return nil, err
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				out, in := pinIndex(spec.Outputs, pin), pinIndex(spec.Inputs, pin)
				switch {
				case out < 0 && in < 0:
					return nil, fmt.Errorf("verilog: instance %s: cell %s has no pin %q", iname, spec.Name, pin)
				case out >= 0 && inst.Out[out] != nil, in >= 0 && inst.In[in] != nil:
					return nil, fmt.Errorf("verilog: instance %s: pin %s connected twice", iname, pin)
				}
				// Wire by the catalogue's pin name, not the token: the
				// netlist must not keep slices of src.
				n := getNet(netName)
				if out >= 0 {
					nl.Drive(inst, spec.Outputs[out], n)
				} else {
					nl.Connect(inst, spec.Inputs[in], n)
				}
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
	}
}
