package netlist

import (
	"fmt"
	"slices"
	"strings"

	"stdcelltune/internal/stdcell"
)

// parseVerilogOracle is the Verilog reader ParseVerilog replaced: it
// lexes the whole source into a token slice before parsing it, and
// classifies pins through a per-instance output-pin map; it rejects an
// unknown or repeated pin by name, where ParseVerilog checks positions.
// It is kept as the reference the differential tests hold the streaming
// parser to: both must accept the same inputs and build identical
// netlists.
func parseVerilogOracle(src string, cat *stdcell.Catalogue) (*Netlist, error) {
	toks, err := oracleLex(src)
	if err != nil {
		return nil, err
	}
	p := &oracleParser{toks: toks, cat: cat}
	return p.parseModule()
}

func oracleLex(src string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '\\': // escaped identifier, ends at whitespace
			j := i + 1
			for j < len(src) && src[j] != ' ' && src[j] != '\t' && src[j] != '\n' {
				j++
			}
			toks = append(toks, src[i+1:j])
			i = j
		case strings.IndexByte("(),.;=", c) >= 0:
			toks = append(toks, string(c))
			i++
		default:
			j := i
			for j < len(src) && !oracleIsDelim(src[j]) {
				j++
			}
			if j == i {
				return nil, fmt.Errorf("verilog: unexpected byte %q", c)
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks, nil
}

func oracleIsDelim(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\\' ||
		strings.IndexByte("(),.;=", c) >= 0
}

type oracleParser struct {
	toks []string
	pos  int
	cat  *stdcell.Catalogue
}

func (p *oracleParser) next() (string, error) {
	if p.pos >= len(p.toks) {
		return "", fmt.Errorf("verilog: unexpected end of input")
	}
	t := p.toks[p.pos]
	p.pos++
	return t, nil
}

func (p *oracleParser) expect(s string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t != s {
		return fmt.Errorf("verilog: expected %q got %q", s, t)
	}
	return nil
}

func (p *oracleParser) parseModule() (*Netlist, error) {
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
			outPins := make(map[string]bool, len(spec.Outputs))
			for _, o := range spec.Outputs {
				outPins[o] = true
			}
			seen := make(map[string]bool)
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
				if !outPins[pin] && !slices.Contains(spec.Inputs, pin) {
					return nil, fmt.Errorf("verilog: unknown pin %q on %s", pin, iname)
				}
				if seen[pin] {
					return nil, fmt.Errorf("verilog: duplicate pin %q on %s", pin, iname)
				}
				seen[pin] = true
				n := getNet(netName)
				if outPins[pin] {
					nl.Drive(inst, pin, n)
				} else {
					nl.Connect(inst, pin, n)
				}
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
	}
}
