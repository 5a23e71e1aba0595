package liberty

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"stdcelltune/internal/lut"
)

// Append appends the Liberty text of the library to dst and returns the
// extended buffer. Cells and pins are emitted in their stored order;
// call SortCells first for a canonical file. The emitted subset
// round-trips through Parse: a name or value that would not read back
// as itself unquoted (it holds a delimiter, or starts a comment) is
// quoted. A value holding a double quote fits no Liberty form, since
// strings have no escapes; for such a library Append returns dst
// unchanged and an error.
//
// The text is produced by one append-based printer: numbers go straight
// into the buffer through strconv.AppendFloat, so rendering a library
// costs about what its bytes cost.
func Append(dst []byte, l *Library) ([]byte, error) {
	p := printer{b: slices.Grow(dst, sizeHint(l))}
	p.open("library", l.Name)
	p.attrQuoted("time_unit", orDefault(l.TimeUnit, "1ns"))
	// Complex attribute form: capacitive_load_unit (1, pf);
	p.pad(p.indent)
	p.b = append(p.b, "capacitive_load_unit (1, "...)
	p.value(strings.TrimPrefix(orDefault(l.CapacitiveUnit, "1pf"), "1"))
	p.b = append(p.b, ");\n"...)
	p.attrQuoted("voltage_unit", orDefault(l.VoltageUnit, "1V"))
	p.attrFloat("nom_voltage", l.NominalVoltage)
	p.attrFloat("nom_temperature", l.NominalTemp)
	p.attrFloat("nom_process", l.NominalProcess)
	if l.OperatingCorner != "" {
		p.attr("default_operating_conditions", l.OperatingCorner)
	}
	for _, t := range l.Templates {
		p.template(t)
	}
	for _, c := range l.Cells {
		p.cell(c)
	}
	p.close()
	if p.err != nil {
		return dst, p.err
	}
	return p.b, nil
}

// sizeHint estimates the text length of a library: 20 bytes per number
// (17.8 on average in a statistical library, plus the separator) and
// the statements around them. A library's text comes in a little under
// it (1.5% for a statistical library, 6% for a nominal one), so one
// allocation holds the whole text: a short estimate would regrow, and
// copy, a multi-megabyte buffer, and the service keeps the buffer.
func sizeHint(l *Library) int {
	n := 1024
	table := func(t *lut.Table) {
		if t != nil {
			n += 200 + 20*(len(t.Loads)+len(t.Slews)+len(t.Loads)*len(t.Slews))
		}
	}
	for _, t := range l.Templates {
		n += 256 + 20*(len(t.Index1)+len(t.Index2))
	}
	for _, c := range l.Cells {
		n += 150
		for _, pin := range c.Pins {
			n += 100
			for _, a := range pin.Timing {
				n += 100
				for _, e := range arcTables(a) {
					table(e.tb)
				}
			}
			for _, a := range pin.Power {
				n += 100
				table(a.RisePower)
				table(a.FallPower)
			}
		}
	}
	return n
}

// Write serializes the library as Liberty text in one write. A library
// Append cannot represent writes nothing and returns Append's error.
func Write(w io.Writer, l *Library) error {
	text, err := Append(nil, l)
	if err != nil {
		return err
	}
	_, err = w.Write(text)
	return err
}

// WriteString serializes the library to a string, or returns Append's
// error for a library it cannot represent.
func WriteString(l *Library) (string, error) {
	text, err := Append(nil, l)
	return string(text), err
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// printer appends Liberty statements to b, two spaces of indentation
// per open group; err records the first value no Liberty form can hold.
type printer struct {
	b      []byte
	indent int
	err    error
}

func (p *printer) pad(n int) {
	for ; n > 0; n-- {
		p.b = append(p.b, "  "...)
	}
}

func (p *printer) open(kind, name string) {
	p.pad(p.indent)
	p.b = append(p.b, kind...)
	p.b = append(p.b, " ("...)
	p.value(name)
	p.b = append(p.b, ") {\n"...)
	p.indent++
}

func (p *printer) close() {
	p.indent--
	p.pad(p.indent)
	p.b = append(p.b, "}\n"...)
}

// name appends the indented "name : " prefix of a simple attribute.
func (p *printer) name(name string) {
	p.pad(p.indent)
	p.b = append(p.b, name...)
	p.b = append(p.b, " : "...)
}

func (p *printer) attr(name, value string) {
	p.name(name)
	p.value(value)
	p.b = append(p.b, ";\n"...)
}

func (p *printer) attrQuoted(name, value string) {
	p.name(name)
	p.quoted(value)
	p.b = append(p.b, ";\n"...)
}

// value appends v bare when it reads back as one identifier (or as
// nothing, for ""), else quoted.
func (p *printer) value(v string) {
	bare := !strings.HasPrefix(v, "//") && !strings.HasPrefix(v, "/*")
	for i := 0; bare && i < len(v); i++ {
		bare = !delim[v[i]]
	}
	if !bare {
		p.quoted(v)
		return
	}
	p.b = append(p.b, v...)
}

// quoted appends v as a Liberty string. A string runs to the next
// double quote, with no escapes, so a v holding one cannot be written.
func (p *printer) quoted(v string) {
	if p.err == nil && strings.IndexByte(v, '"') >= 0 {
		p.err = fmt.Errorf("liberty: %q holds a double quote, which no Liberty string can", v)
	}
	p.b = append(p.b, '"')
	p.b = append(p.b, v...)
	p.b = append(p.b, '"')
}

func (p *printer) attrFloat(name string, f float64) {
	p.name(name)
	p.b = strconv.AppendFloat(p.b, f, 'g', -1, 64)
	p.b = append(p.b, ";\n"...)
}

// attrFloats appends name : "f0, f1, ...";
func (p *printer) attrFloats(name string, fs []float64) {
	p.name(name)
	p.floats(fs)
	p.b = append(p.b, ";\n"...)
}

// floats appends a quoted, comma-separated number list.
func (p *printer) floats(fs []float64) {
	p.b = append(p.b, '"')
	for i, f := range fs {
		if i > 0 {
			p.b = append(p.b, ", "...)
		}
		p.b = strconv.AppendFloat(p.b, f, 'g', -1, 64)
	}
	p.b = append(p.b, '"')
}

func (p *printer) template(t *Template) {
	p.open("lu_table_template", t.Name)
	p.attr("variable_1", t.Variable1)
	p.attr("variable_2", t.Variable2)
	p.attrFloats("index_1", t.Index1)
	p.attrFloats("index_2", t.Index2)
	p.close()
}

func (p *printer) cell(c *Cell) {
	p.open("cell", c.Name)
	p.attrFloat("area", c.Area)
	if c.DriveStrength > 0 {
		p.name("drive_strength")
		p.b = strconv.AppendInt(p.b, int64(c.DriveStrength), 10)
		p.b = append(p.b, ";\n"...)
	}
	if c.Footprint != "" {
		p.attrQuoted("cell_footprint", c.Footprint)
	}
	if c.IsSequential {
		p.attr("is_sequential", "true")
	}
	if c.LeakagePower > 0 {
		p.attrFloat("cell_leakage_power", c.LeakagePower)
	}
	for _, pin := range c.Pins {
		p.pin(pin)
	}
	p.close()
}

func (p *printer) pin(pin *Pin) {
	p.open("pin", pin.Name)
	p.attr("direction", pin.Direction.String())
	if pin.Direction == Input {
		p.attrFloat("capacitance", pin.Capacitance)
	} else {
		if pin.MaxCap > 0 {
			p.attrFloat("max_capacitance", pin.MaxCap)
		}
		if pin.Function != "" {
			p.attrQuoted("function", pin.Function)
		}
	}
	for _, arc := range pin.Timing {
		p.arc(arc)
	}
	for _, pw := range pin.Power {
		p.powerArc(pw)
	}
	p.close()
}

func (p *printer) powerArc(a *PowerArc) {
	p.open("internal_power", "")
	p.attrQuoted("related_pin", a.RelatedPin)
	if a.RisePower != nil {
		p.table("rise_power", a.Template, a.RisePower)
	}
	if a.FallPower != nil {
		p.table("fall_power", a.Template, a.FallPower)
	}
	p.close()
}

func (p *printer) arc(a *TimingArc) {
	p.open("timing", "")
	p.attrQuoted("related_pin", a.RelatedPin)
	if a.Sense != "" {
		p.attr("timing_sense", a.Sense)
	}
	if a.Type != "" {
		p.attr("timing_type", a.Type)
	}
	for _, e := range arcTables(a) {
		if e.tb != nil {
			p.table(e.kind, a.Template, e.tb)
		}
	}
	p.close()
}

// arcTables lists an arc's tables, nil ones included, in the stable
// order they are written in.
func arcTables(a *TimingArc) [6]struct {
	kind string
	tb   *lut.Table
} {
	return [6]struct {
		kind string
		tb   *lut.Table
	}{
		{"cell_rise", a.CellRise},
		{"cell_fall", a.CellFall},
		{"rise_transition", a.RiseTransition},
		{"fall_transition", a.FallTransition},
		{"ocv_sigma_cell_rise", a.SigmaRise},
		{"ocv_sigma_cell_fall", a.SigmaFall},
	}
}

// table appends one value table; its rows are continued lines indented
// one level deeper than the values statement.
func (p *printer) table(kind, template string, t *lut.Table) {
	p.open(kind, orDefault(template, "delay_template"))
	p.attrFloats("index_1", t.Loads)
	p.attrFloats("index_2", t.Slews)
	p.pad(p.indent)
	p.b = append(p.b, "values ("...)
	for i, row := range t.Values {
		if i > 0 {
			p.b = append(p.b, ", \\\n"...)
			p.pad(p.indent + 1)
		}
		p.floats(row)
	}
	p.b = append(p.b, ");\n"...)
	p.close()
}
