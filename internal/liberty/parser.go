package liberty

import (
	"fmt"
	"strconv"
	"strings"

	"stdcelltune/internal/lut"
)

// Parse reads Liberty text and builds the library model for the subset
// this package emits (library/cell/pin/timing groups, lu_table_template,
// NLDM value tables, LVF sigma tables). Unknown attributes and groups are
// skipped so libraries with extra content still load.
//
// The text is read in one pass: a scanner hands out one token at a
// time, each group's statements are interpreted as they are read, and
// number lists are parsed straight from the source into the tables.
// Within a group the first occurrence of an attribute that carries a
// value wins.
//
// The returned library shares no memory with src: every string it keeps
// is a copy, made once per distinct value, so holding the library does
// not hold the text.
func Parse(src string) (*Library, error) {
	p := &parser{scanner: scanner{src: src, line: 1}, kept: make(map[string]string)}
	t, err := p.next()
	if err != nil {
		return nil, err
	}
	if t.kind != tokIdent {
		return nil, fmt.Errorf("liberty: expected group name, got %s", t)
	}
	if err := p.expect('('); err != nil {
		return nil, err
	}
	if err := p.values(')'); err != nil {
		return nil, err
	}
	if err := p.expect('{'); err != nil {
		return nil, err
	}
	if t.text != "library" {
		return nil, fmt.Errorf("liberty: top-level group is %q, want library", t.text)
	}
	l, err := p.library(p.keep(firstArg(p.vals)))
	if err != nil {
		return nil, err
	}
	if t, err = p.next(); err != nil {
		return nil, err
	}
	if t.kind != tokEOF {
		return nil, fmt.Errorf("liberty: trailing tokens after library group (at %s)", t)
	}
	return l, nil
}

// ---------------------------------------------------------------- scanner

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokPunct // one of (){};:,
)

type token struct {
	kind tokKind
	text string // a slice of the source; a string's text excludes the quotes
	line int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return fmt.Sprintf("end of input (line %d)", t.line)
	}
	return fmt.Sprintf("%q (line %d)", t.text, t.line)
}

// is reports whether t is the punctuation c.
func (t token) is(c byte) bool { return t.kind == tokPunct && t.text[0] == c }

// delim marks the bytes that end an identifier.
var delim = [256]bool{' ': true, '\t': true, '\r': true, '\n': true, '\\': true, '"': true,
	'(': true, ')': true, '{': true, '}': true, ';': true, ':': true, ',': true}

// scanner tokenizes Liberty text on demand.
type scanner struct {
	src  string
	pos  int
	line int
}

// next returns the next token, or a tokEOF token at the end of the
// input. Comments are recognized at token starts only; a backslash only
// appears as a line continuation and reads as space.
func (s *scanner) next() (token, error) {
	src, n := s.src, len(s.src)
	for s.pos < n {
		i := s.pos
		c := src[i]
		switch {
		case c == '\n':
			s.line++
			s.pos++
		case c == ' ' || c == '\t' || c == '\r' || c == '\\':
			s.pos++
		case c == '/' && i+1 < n && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return token{}, fmt.Errorf("liberty: unterminated comment at line %d", s.line)
			}
			s.pos = i + 2 + end + 2
			s.line += strings.Count(src[i:s.pos], "\n")
		case c == '/' && i+1 < n && src[i+1] == '/':
			for s.pos < n && src[s.pos] != '\n' {
				s.pos++
			}
		case c == '"':
			j := strings.IndexByte(src[i+1:], '"')
			if j < 0 {
				s.line += strings.Count(src[i+1:], "\n")
				return token{}, fmt.Errorf("liberty: unterminated string at line %d", s.line)
			}
			j += i + 1
			s.line += strings.Count(src[i+1:j], "\n")
			s.pos = j + 1
			return token{tokString, src[i+1 : j], s.line}, nil
		case delim[c]: // punctuation: every other delimiter is handled above
			s.pos++
			return token{tokPunct, src[i:s.pos], s.line}, nil
		default:
			j := i + 1
			for j < n && !delim[src[j]] {
				j++
			}
			s.pos = j
			return token{tokIdent, src[i:j], s.line}, nil
		}
	}
	return token{kind: tokEOF, line: s.line}, nil
}

// ----------------------------------------------------------------- parser

type parser struct {
	scanner
	// Scratch reused across statements and tables.
	vals         []string // values (or group arguments) of the last statement
	rows         []string // value rows of the table being parsed
	loads, slews axis
	// kept interns the strings the library keeps, as copies (see keep).
	kept map[string]string
}

// keep returns a copy of s that does not point into the source,
// interned so that every use of one name shares a single copy. Every
// string the library model holds goes through keep; tokens that are
// only compared or parsed stay slices of the source.
func (p *parser) keep(s string) string {
	if k, ok := p.kept[s]; ok {
		return k
	}
	k := strings.Clone(s)
	p.kept[k] = k
	return k
}

// axis is a table axis parsed from its index string. The tables of an
// arc repeat the same index_1 and index_2 strings, so an axis whose
// string is byte-equal to the last one parsed is reused, not parsed
// again.
type axis struct {
	text string // the index string vals holds, valid when ok
	vals []float64
	ok   bool
}

func (a *axis) parse(s string) ([]float64, error) {
	if a.ok && s == a.text {
		return a.vals, nil
	}
	a.ok = false
	vals, err := appendFloats(a.vals[:0], s)
	if err != nil {
		return nil, err
	}
	a.text, a.vals, a.ok = s, vals, true
	return vals, nil
}

func (p *parser) expect(c byte) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if !t.is(c) {
		return fmt.Errorf("liberty: expected %q, got %s", string(c), t)
	}
	return nil
}

// values reads comma/space separated identifiers and strings into
// p.vals up to the closing punctuation (consumed).
func (p *parser) values(closer byte) error {
	p.vals = p.vals[:0]
	for {
		t, err := p.next()
		if err != nil {
			return err
		}
		switch {
		case t.kind == tokEOF:
			return fmt.Errorf("liberty: unexpected end of input")
		case t.is(closer):
			return nil
		case t.is(','):
			// separator
		case t.kind == tokIdent || t.kind == tokString:
			p.vals = append(p.vals, t.text)
		default:
			return fmt.Errorf("liberty: unexpected %s in value list", t)
		}
	}
}

type stmtKind uint8

const (
	stmtEnd   stmtKind = iota // the group's closing '}'
	stmtAttr                  // name : values ;  or  name (values) ;
	stmtGroup                 // name (args) {  — the group's body follows
)

// statement reads the next statement of the body of group kind and
// returns what it was and its name; p.vals holds the attribute's values
// or the group's arguments until the next statement is read.
func (p *parser) statement(kind string) (stmtKind, string, error) {
	t, err := p.next()
	if err != nil {
		return 0, "", err
	}
	switch {
	case t.kind == tokEOF:
		return 0, "", fmt.Errorf("liberty: unterminated group %q", kind)
	case t.is('}'):
		return stmtEnd, "", nil
	case t.kind != tokIdent:
		return 0, "", fmt.Errorf("liberty: expected statement, got %s", t)
	}
	name := t
	if t, err = p.next(); err != nil {
		return 0, "", err
	}
	switch {
	case t.kind == tokEOF:
		return 0, "", fmt.Errorf("liberty: dangling identifier %s", name)
	case t.is(':'):
		return stmtAttr, name.text, p.values(';')
	case t.is('('):
		if err := p.values(')'); err != nil {
			return 0, "", err
		}
		if t, err = p.next(); err != nil {
			return 0, "", err
		}
		if t.is('{') {
			return stmtGroup, name.text, nil
		}
		if !t.is(';') {
			return 0, "", fmt.Errorf("liberty: expected \";\", got %s", t)
		}
		return stmtAttr, name.text, nil
	default:
		return 0, "", fmt.Errorf("liberty: unexpected token %s after %s", t, name)
	}
}

// skip reads and discards the body of a group this package does not
// interpret; it must still be well-formed.
func (p *parser) skip(kind string) error {
	for {
		k, name, err := p.statement(kind)
		if err != nil {
			return err
		}
		switch k {
		case stmtEnd:
			return nil
		case stmtGroup:
			if err := p.skip(name); err != nil {
				return err
			}
		}
	}
}

func firstArg(vals []string) string {
	if len(vals) > 0 {
		return vals[0]
	}
	return ""
}

// value returns the first value of the last attribute, and false when it
// has none (such an attribute is passed over, as if absent).
func (p *parser) value() (string, bool) {
	if len(p.vals) == 0 {
		return "", false
	}
	return p.vals[0], true
}

// take marks an attribute as read and reports whether it had not been:
// the first occurrence wins.
func take(seen *bool) bool {
	first := !*seen
	*seen = true
	return first
}

// --------------------------------------------------------- interpretation

func (p *parser) library(name string) (*Library, error) {
	l := &Library{Name: name}
	var timeUnit, voltageUnit, nomV, nomT, nomP, corner, capUnit bool
	for {
		k, name, err := p.statement("library")
		if err != nil {
			return nil, err
		}
		switch k {
		case stmtEnd:
			return l, nil
		case stmtGroup:
			switch name {
			case "lu_table_template":
				t, err := p.template(p.keep(firstArg(p.vals)))
				if err != nil {
					return nil, err
				}
				l.Templates = append(l.Templates, t)
			case "cell":
				c, err := p.cell(p.keep(firstArg(p.vals)))
				if err != nil {
					return nil, err
				}
				l.AddCell(c)
			default:
				if err := p.skip(name); err != nil {
					return nil, err
				}
			}
		case stmtAttr:
			if name == "capacitive_load_unit" {
				// Complex attribute: its first occurrence counts, with or
				// without values.
				if take(&capUnit) && len(p.vals) == 2 {
					// A concatenation with an empty operand is the
					// other operand itself, so it is kept too.
					l.CapacitiveUnit = p.keep(p.vals[0] + p.vals[1])
				}
				continue
			}
			v, ok := p.value()
			if !ok {
				continue
			}
			switch name {
			case "time_unit":
				if take(&timeUnit) {
					l.TimeUnit = p.keep(v)
				}
			case "voltage_unit":
				if take(&voltageUnit) {
					l.VoltageUnit = p.keep(v)
				}
			case "nom_voltage":
				if take(&nomV) {
					l.NominalVoltage, _ = strconv.ParseFloat(v, 64)
				}
			case "nom_temperature":
				if take(&nomT) {
					l.NominalTemp, _ = strconv.ParseFloat(v, 64)
				}
			case "nom_process":
				if take(&nomP) {
					l.NominalProcess, _ = strconv.ParseFloat(v, 64)
				}
			case "default_operating_conditions":
				if take(&corner) {
					l.OperatingCorner = p.keep(v)
				}
			}
		}
	}
}

func (p *parser) template(name string) (*Template, error) {
	t := &Template{Name: name}
	var v1, v2, i1, i2 bool
	for {
		k, name, err := p.statement("lu_table_template")
		if err != nil {
			return nil, err
		}
		switch k {
		case stmtEnd:
			return t, nil
		case stmtGroup:
			if err := p.skip(name); err != nil {
				return nil, err
			}
		case stmtAttr:
			v, ok := p.value()
			if !ok {
				continue
			}
			switch name {
			case "variable_1":
				if take(&v1) {
					t.Variable1 = p.keep(v)
				}
			case "variable_2":
				if take(&v2) {
					t.Variable2 = p.keep(v)
				}
			case "index_1":
				if take(&i1) {
					if t.Index1, err = appendFloats([]float64{}, v); err != nil {
						return nil, fmt.Errorf("template %q index_1: %w", t.Name, err)
					}
				}
			case "index_2":
				if take(&i2) {
					if t.Index2, err = appendFloats([]float64{}, v); err != nil {
						return nil, fmt.Errorf("template %q index_2: %w", t.Name, err)
					}
				}
			}
		}
	}
}

// sep marks the bytes that separate the numbers of a list.
var sep = [256]bool{',': true, ' ': true, '\t': true, '\n': true}

// appendFloats parses a comma/space separated number list onto dst.
func appendFloats(dst []float64, s string) ([]float64, error) {
	for i := 0; i < len(s); {
		if sep[s[i]] {
			i++
			continue
		}
		j := i + 1
		for j < len(s) && !sep[s[j]] {
			j++
		}
		v, err := strconv.ParseFloat(s[i:j], 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", s[i:j])
		}
		dst = append(dst, v)
		i = j
	}
	return dst, nil
}

func (p *parser) cell(name string) (*Cell, error) {
	c := &Cell{Name: name}
	var area, drive, footprint, seq, leakage bool
	for {
		k, name, err := p.statement("cell")
		if err != nil {
			return nil, err
		}
		switch k {
		case stmtEnd:
			return c, nil
		case stmtGroup:
			if name != "pin" {
				if err := p.skip(name); err != nil {
					return nil, err
				}
				continue
			}
			pin, err := p.pin(p.keep(firstArg(p.vals)))
			if err != nil {
				return nil, fmt.Errorf("cell %q: %w", c.Name, err)
			}
			c.Pins = append(c.Pins, pin)
		case stmtAttr:
			v, ok := p.value()
			if !ok {
				continue
			}
			switch name {
			case "area":
				if take(&area) {
					c.Area, _ = strconv.ParseFloat(v, 64)
				}
			case "drive_strength":
				if take(&drive) {
					c.DriveStrength, _ = strconv.Atoi(v)
				}
			case "cell_footprint":
				if take(&footprint) {
					c.Footprint = p.keep(v)
				}
			case "is_sequential":
				if take(&seq) {
					c.IsSequential = v == "true"
				}
			case "cell_leakage_power":
				if take(&leakage) {
					c.LeakagePower, _ = strconv.ParseFloat(v, 64)
				}
			}
		}
	}
}

func (p *parser) pin(name string) (*Pin, error) {
	pin := &Pin{Name: name}
	var dir, capacitance, maxCap, function bool
	for {
		k, name, err := p.statement("pin")
		if err != nil {
			return nil, err
		}
		switch k {
		case stmtEnd:
			return pin, nil
		case stmtGroup:
			switch name {
			case "timing":
				a, err := p.arc()
				if err != nil {
					return nil, fmt.Errorf("pin %q: %w", pin.Name, err)
				}
				pin.Timing = append(pin.Timing, a)
			case "internal_power":
				a, err := p.powerArc()
				if err != nil {
					return nil, fmt.Errorf("pin %q: %w", pin.Name, err)
				}
				pin.Power = append(pin.Power, a)
			default:
				if err := p.skip(name); err != nil {
					return nil, err
				}
			}
		case stmtAttr:
			v, ok := p.value()
			if !ok {
				continue
			}
			switch name {
			case "direction":
				if take(&dir) && v == "output" {
					pin.Direction = Output
				}
			case "capacitance":
				if take(&capacitance) {
					pin.Capacitance, _ = strconv.ParseFloat(v, 64)
				}
			case "max_capacitance":
				if take(&maxCap) {
					pin.MaxCap, _ = strconv.ParseFloat(v, 64)
				}
			case "function":
				if take(&function) {
					pin.Function = p.keep(v)
				}
			}
		}
	}
}

// arc parses a timing group. Every sub-group is a value table; the
// arc's template is the first non-empty table template argument.
func (p *parser) arc() (*TimingArc, error) {
	a := &TimingArc{}
	var related, sense, typ bool
	for {
		k, name, err := p.statement("timing")
		if err != nil {
			return nil, err
		}
		switch k {
		case stmtEnd:
			a.Prepare()
			return a, nil
		case stmtGroup:
			template := firstArg(p.vals)
			tb, err := p.table(name)
			if err != nil {
				return nil, fmt.Errorf("arc from %q: %w", a.RelatedPin, err)
			}
			if a.Template == "" {
				a.Template = p.keep(template)
			}
			switch name {
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
		case stmtAttr:
			v, ok := p.value()
			if !ok {
				continue
			}
			switch name {
			case "related_pin":
				if take(&related) {
					a.RelatedPin = p.keep(v)
				}
			case "timing_sense":
				if take(&sense) {
					a.Sense = p.keep(v)
				}
			case "timing_type":
				if take(&typ) {
					a.Type = p.keep(v)
				}
			}
		}
	}
}

// powerArc parses an internal_power group; like a timing group, every
// sub-group is a value table.
func (p *parser) powerArc() (*PowerArc, error) {
	a := &PowerArc{}
	var related bool
	for {
		k, name, err := p.statement("internal_power")
		if err != nil {
			return nil, err
		}
		switch k {
		case stmtEnd:
			return a, nil
		case stmtGroup:
			template := firstArg(p.vals)
			tb, err := p.table(name)
			if err != nil {
				return nil, fmt.Errorf("power arc from %q: %w", a.RelatedPin, err)
			}
			if a.Template == "" {
				a.Template = p.keep(template)
			}
			switch name {
			case "rise_power":
				a.RisePower = tb
			case "fall_power":
				a.FallPower = tb
			}
		case stmtAttr:
			if v, ok := p.value(); ok && name == "related_pin" && take(&related) {
				a.RelatedPin = p.keep(v)
			}
		}
	}
}

// table parses a value-table group. index_1, index_2 and values may
// come in any order, so the row strings (slices of the source) are held
// until the group closes; then each row is parsed straight into the
// table's row-major storage. The axes are parser scratch (see axis),
// which lut.New copies.
func (p *parser) table(kind string) (*lut.Table, error) {
	var index1, index2 string
	var seen1, seen2, values bool
	p.rows = p.rows[:0]
	for {
		k, name, err := p.statement(kind)
		if err != nil {
			return nil, err
		}
		if k == stmtEnd {
			break
		}
		if k == stmtGroup {
			if err := p.skip(name); err != nil {
				return nil, err
			}
			continue
		}
		switch name {
		case "values":
			// The first values attribute counts, with or without rows.
			if take(&values) {
				p.rows = append(p.rows, p.vals...)
			}
		case "index_1":
			if v, ok := p.value(); ok && take(&seen1) {
				index1 = v
			}
		case "index_2":
			if v, ok := p.value(); ok && take(&seen2) {
				index2 = v
			}
		}
	}
	if !seen1 {
		return nil, fmt.Errorf("table %q missing index_1", kind)
	}
	if !seen2 {
		return nil, fmt.Errorf("table %q missing index_2", kind)
	}
	loads, err := p.loads.parse(index1)
	if err != nil {
		return nil, err
	}
	slews, err := p.slews.parse(index2)
	if err != nil {
		return nil, err
	}
	if len(p.rows) != len(loads) {
		return nil, fmt.Errorf("table %q has %d value rows for %d loads", kind, len(p.rows), len(loads))
	}
	t := lut.New(loads, slews)
	for i, r := range p.rows {
		// A row has capacity for exactly len(slews) values, so a long
		// row reallocates instead of spilling into the next one.
		row, err := appendFloats(t.Values[i][:0], r)
		if err != nil {
			return nil, err
		}
		if len(row) != len(slews) {
			return nil, fmt.Errorf("table %q row %d has %d values for %d slews", kind, i, len(row), len(slews))
		}
	}
	return t, nil
}
