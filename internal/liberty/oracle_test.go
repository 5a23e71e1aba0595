package liberty

import (
	"fmt"
	"strconv"
	"strings"

	"stdcelltune/internal/lut"
)

// parseOracle is the two-stage Liberty parser Parse replaced: a lexer
// that materializes every token, a generic group/attribute tree, then an
// interpretation pass over the tree. It is kept as the reference the
// differential tests hold the single-pass parser to: both must accept
// the same inputs and build identical libraries from them.
func parseOracle(src string) (*Library, error) {
	toks, err := oLex(src)
	if err != nil {
		return nil, err
	}
	p := &oParser{toks: toks}
	g, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("liberty: trailing tokens after library group (at %s)", p.toks[p.pos])
	}
	if g.kind != "library" {
		return nil, fmt.Errorf("liberty: top-level group is %q, want library", g.kind)
	}
	return oInterpretLibrary(g)
}

// ---------------------------------------------------------------- lexer

type oTokKind int

const (
	oTokIdent oTokKind = iota
	oTokString
	oTokPunct // one of (){};:,
)

type oToken struct {
	kind oTokKind
	text string
	line int
}

func (t oToken) String() string { return fmt.Sprintf("%q (line %d)", t.text, t.line) }

func oLex(src string) ([]oToken, error) {
	var toks []oToken
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r' || c == '\\':
			// Backslash only appears as a line continuation; treat as space.
			i++
		case c == '/' && i+1 < n && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("liberty: unterminated comment at line %d", line)
			}
			line += strings.Count(src[i:i+2+end+2], "\n")
			i += 2 + end + 2
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '"':
			j := i + 1
			for j < n && src[j] != '"' {
				if src[j] == '\n' {
					line++
				}
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("liberty: unterminated string at line %d", line)
			}
			toks = append(toks, oToken{oTokString, src[i+1 : j], line})
			i = j + 1
		case strings.IndexByte("(){};:,", c) >= 0:
			toks = append(toks, oToken{oTokPunct, string(c), line})
			i++
		default:
			j := i
			for j < n && !oIsDelim(src[j]) {
				j++
			}
			if j == i {
				return nil, fmt.Errorf("liberty: unexpected character %q at line %d", c, line)
			}
			toks = append(toks, oToken{oTokIdent, src[i:j], line})
			i = j
		}
	}
	return toks, nil
}

func oIsDelim(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\\' ||
		c == '"' || strings.IndexByte("(){};:,", c) >= 0
}

// ----------------------------------------------------------------- AST

type oGroup struct {
	kind  string
	args  []string
	attrs []oAttr
	subs  []*oGroup
}

type oAttr struct {
	name   string
	values []string // simple attrs have one value; complex attrs several
}

func (g *oGroup) attrValue(name string) (string, bool) {
	for _, a := range g.attrs {
		if a.name == name && len(a.values) > 0 {
			return a.values[0], true
		}
	}
	return "", false
}

func (g *oGroup) attrAll(name string) []string {
	for _, a := range g.attrs {
		if a.name == name {
			return a.values
		}
	}
	return nil
}

type oParser struct {
	toks []oToken
	pos  int
}

func (p *oParser) peek() (oToken, bool) {
	if p.pos >= len(p.toks) {
		return oToken{}, false
	}
	return p.toks[p.pos], true
}

func (p *oParser) next() (oToken, error) {
	t, ok := p.peek()
	if !ok {
		return oToken{}, fmt.Errorf("liberty: unexpected end of input")
	}
	p.pos++
	return t, nil
}

func (p *oParser) expectPunct(s string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t.kind != oTokPunct || t.text != s {
		return fmt.Errorf("liberty: expected %q, got %s", s, t)
	}
	return nil
}

// parseGroup parses: IDENT '(' args ')' '{' body '}'.
func (p *oParser) parseGroup() (*oGroup, error) {
	t, err := p.next()
	if err != nil {
		return nil, err
	}
	if t.kind != oTokIdent {
		return nil, fmt.Errorf("liberty: expected group name, got %s", t)
	}
	g := &oGroup{kind: t.text}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	g.args, err = p.parseValueList(")")
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for {
		t, ok := p.peek()
		if !ok {
			return nil, fmt.Errorf("liberty: unterminated group %q", g.kind)
		}
		if t.kind == oTokPunct && t.text == "}" {
			p.pos++
			return g, nil
		}
		if err := p.parseStatement(g); err != nil {
			return nil, err
		}
	}
}

// parseStatement parses one of: sub-group, simple attribute, complex
// attribute, and appends it to g.
func (p *oParser) parseStatement(g *oGroup) error {
	name, err := p.next()
	if err != nil {
		return err
	}
	if name.kind != oTokIdent {
		return fmt.Errorf("liberty: expected statement, got %s", name)
	}
	t, ok := p.peek()
	if !ok {
		return fmt.Errorf("liberty: dangling identifier %s", name)
	}
	switch {
	case t.kind == oTokPunct && t.text == ":":
		p.pos++
		vals, err := p.parseValueList(";")
		if err != nil {
			return err
		}
		g.attrs = append(g.attrs, oAttr{name: name.text, values: vals})
		return nil
	case t.kind == oTokPunct && t.text == "(":
		// Look ahead past the matching ')' to decide group vs complex attr.
		depth := 0
		j := p.pos
		for ; j < len(p.toks); j++ {
			if p.toks[j].kind != oTokPunct {
				continue
			}
			if p.toks[j].text == "(" {
				depth++
			} else if p.toks[j].text == ")" {
				depth--
				if depth == 0 {
					break
				}
			}
		}
		if j >= len(p.toks) {
			return fmt.Errorf("liberty: unbalanced parentheses after %s", name)
		}
		if j+1 < len(p.toks) && p.toks[j+1].kind == oTokPunct && p.toks[j+1].text == "{" {
			p.pos-- // rewind to group name
			sub, err := p.parseGroup()
			if err != nil {
				return err
			}
			g.subs = append(g.subs, sub)
			return nil
		}
		p.pos++ // consume '('
		vals, err := p.parseValueList(")")
		if err != nil {
			return err
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
		g.attrs = append(g.attrs, oAttr{name: name.text, values: vals})
		return nil
	default:
		return fmt.Errorf("liberty: unexpected token %s after %s", t, name)
	}
}

// parseValueList reads comma/space separated idents and strings until the
// closing punctuation (consumed).
func (p *oParser) parseValueList(closer string) ([]string, error) {
	var vals []string
	for {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		switch {
		case t.kind == oTokPunct && t.text == closer:
			return vals, nil
		case t.kind == oTokPunct && t.text == ",":
			// separator
		case t.kind == oTokIdent || t.kind == oTokString:
			vals = append(vals, t.text)
		default:
			return nil, fmt.Errorf("liberty: unexpected %s in value list", t)
		}
	}
}

// --------------------------------------------------------- interpretation

func oInterpretLibrary(g *oGroup) (*Library, error) {
	l := &Library{Name: oFirstArg(g)}
	if v, ok := g.attrValue("time_unit"); ok {
		l.TimeUnit = v
	}
	if v, ok := g.attrValue("voltage_unit"); ok {
		l.VoltageUnit = v
	}
	if v, ok := g.attrValue("nom_voltage"); ok {
		l.NominalVoltage, _ = strconv.ParseFloat(v, 64)
	}
	if v, ok := g.attrValue("nom_temperature"); ok {
		l.NominalTemp, _ = strconv.ParseFloat(v, 64)
	}
	if v, ok := g.attrValue("nom_process"); ok {
		l.NominalProcess, _ = strconv.ParseFloat(v, 64)
	}
	if v, ok := g.attrValue("default_operating_conditions"); ok {
		l.OperatingCorner = v
	}
	if vs := g.attrAll("capacitive_load_unit"); len(vs) == 2 {
		l.CapacitiveUnit = vs[0] + vs[1]
	}
	for _, sub := range g.subs {
		switch sub.kind {
		case "lu_table_template":
			t, err := oInterpretTemplate(sub)
			if err != nil {
				return nil, err
			}
			l.Templates = append(l.Templates, t)
		case "cell":
			c, err := oInterpretCell(sub)
			if err != nil {
				return nil, err
			}
			l.AddCell(c)
		}
	}
	return l, nil
}

func oFirstArg(g *oGroup) string {
	if len(g.args) > 0 {
		return g.args[0]
	}
	return ""
}

func oInterpretTemplate(g *oGroup) (*Template, error) {
	t := &Template{Name: oFirstArg(g)}
	t.Variable1, _ = g.attrValue("variable_1")
	t.Variable2, _ = g.attrValue("variable_2")
	var err error
	if v, ok := g.attrValue("index_1"); ok {
		if t.Index1, err = oParseFloats(v); err != nil {
			return nil, fmt.Errorf("template %q index_1: %w", t.Name, err)
		}
	}
	if v, ok := g.attrValue("index_2"); ok {
		if t.Index2, err = oParseFloats(v); err != nil {
			return nil, fmt.Errorf("template %q index_2: %w", t.Name, err)
		}
	}
	return t, nil
}

func oParseFloats(s string) ([]float64, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' || r == '\n' })
	out := make([]float64, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func oInterpretCell(g *oGroup) (*Cell, error) {
	c := &Cell{Name: oFirstArg(g)}
	if v, ok := g.attrValue("area"); ok {
		c.Area, _ = strconv.ParseFloat(v, 64)
	}
	if v, ok := g.attrValue("drive_strength"); ok {
		c.DriveStrength, _ = strconv.Atoi(v)
	}
	if v, ok := g.attrValue("cell_footprint"); ok {
		c.Footprint = v
	}
	if v, ok := g.attrValue("is_sequential"); ok {
		c.IsSequential = v == "true"
	}
	if v, ok := g.attrValue("cell_leakage_power"); ok {
		c.LeakagePower, _ = strconv.ParseFloat(v, 64)
	}
	for _, sub := range g.subs {
		if sub.kind != "pin" {
			continue
		}
		p, err := oInterpretPin(sub)
		if err != nil {
			return nil, fmt.Errorf("cell %q: %w", c.Name, err)
		}
		c.Pins = append(c.Pins, p)
	}
	return c, nil
}

func oInterpretPin(g *oGroup) (*Pin, error) {
	p := &Pin{Name: oFirstArg(g)}
	if v, ok := g.attrValue("direction"); ok && v == "output" {
		p.Direction = Output
	}
	if v, ok := g.attrValue("capacitance"); ok {
		p.Capacitance, _ = strconv.ParseFloat(v, 64)
	}
	if v, ok := g.attrValue("max_capacitance"); ok {
		p.MaxCap, _ = strconv.ParseFloat(v, 64)
	}
	if v, ok := g.attrValue("function"); ok {
		p.Function = v
	}
	for _, sub := range g.subs {
		switch sub.kind {
		case "timing":
			a, err := oInterpretArc(sub)
			if err != nil {
				return nil, fmt.Errorf("pin %q: %w", p.Name, err)
			}
			p.Timing = append(p.Timing, a)
		case "internal_power":
			a, err := oInterpretPowerArc(sub)
			if err != nil {
				return nil, fmt.Errorf("pin %q: %w", p.Name, err)
			}
			p.Power = append(p.Power, a)
		}
	}
	return p, nil
}

func oInterpretPowerArc(g *oGroup) (*PowerArc, error) {
	a := &PowerArc{}
	a.RelatedPin, _ = g.attrValue("related_pin")
	for _, sub := range g.subs {
		tb, err := oInterpretTable(sub)
		if err != nil {
			return nil, fmt.Errorf("power arc from %q: %w", a.RelatedPin, err)
		}
		if a.Template == "" {
			a.Template = oFirstArg(sub)
		}
		switch sub.kind {
		case "rise_power":
			a.RisePower = tb
		case "fall_power":
			a.FallPower = tb
		}
	}
	return a, nil
}

func oInterpretArc(g *oGroup) (*TimingArc, error) {
	a := &TimingArc{}
	a.RelatedPin, _ = g.attrValue("related_pin")
	a.Sense, _ = g.attrValue("timing_sense")
	a.Type, _ = g.attrValue("timing_type")
	for _, sub := range g.subs {
		tb, err := oInterpretTable(sub)
		if err != nil {
			return nil, fmt.Errorf("arc from %q: %w", a.RelatedPin, err)
		}
		if a.Template == "" {
			a.Template = oFirstArg(sub)
		}
		switch sub.kind {
		case "cell_rise":
			a.CellRise = tb
		case "cell_fall":
			a.CellFall = tb
		case "rise_transition":
			a.RiseTransition = tb
		case "fall_transition":
			a.FallTransition = tb
		case "ocv_sigma_cell_rise":
			a.SigmaRise = tb
		case "ocv_sigma_cell_fall":
			a.SigmaFall = tb
		}
	}
	a.Prepare()
	return a, nil
}

func oInterpretTable(g *oGroup) (*lut.Table, error) {
	i1, ok := g.attrValue("index_1")
	if !ok {
		return nil, fmt.Errorf("table %q missing index_1", g.kind)
	}
	i2, ok := g.attrValue("index_2")
	if !ok {
		return nil, fmt.Errorf("table %q missing index_2", g.kind)
	}
	loads, err := oParseFloats(i1)
	if err != nil {
		return nil, err
	}
	slews, err := oParseFloats(i2)
	if err != nil {
		return nil, err
	}
	rows := g.attrAll("values")
	if len(rows) != len(loads) {
		return nil, fmt.Errorf("table %q has %d value rows for %d loads", g.kind, len(rows), len(loads))
	}
	t := lut.New(loads, slews)
	for i, r := range rows {
		vals, err := oParseFloats(r)
		if err != nil {
			return nil, err
		}
		if len(vals) != len(slews) {
			return nil, fmt.Errorf("table %q row %d has %d values for %d slews", g.kind, i, len(vals), len(slews))
		}
		copy(t.Values[i], vals)
	}
	return t, nil
}
