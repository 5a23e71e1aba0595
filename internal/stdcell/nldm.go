package stdcell

import (
	"math"

	"stdcelltune/internal/liberty"
	"stdcelltune/internal/lut"
)

// SlewAxis is the library-wide input transition axis in ns. The paper
// notes the slew range is identical for all cells (Fig. 4): from steep to
// shallow with an adequate number of slopes in between.
var SlewAxis = []float64{0.008, 0.016, 0.032, 0.064, 0.128, 0.256, 0.512}

// LoadAxisPoints is the number of load points per cell table.
const LoadAxisPoints = 7

// LoadAxis returns the cell's output load axis: geometric from
// MaxCap/2^(LoadAxisPoints-1) up to MaxCap, so low-drive cells get a
// small load range and high-drive cells a big one (Fig. 4).
func (s *Spec) LoadAxis() []float64 {
	cmax := s.MaxCap()
	axis := make([]float64, LoadAxisPoints)
	for i := range axis {
		axis[i] = cmax / float64(int(1)<<(LoadAxisPoints-1-i))
	}
	return axis
}

// InputCap returns the capacitance of one data input pin in pF.
func (s *Spec) InputCap() float64 {
	return s.Params.CinPerDrive * float64(s.Drive)
}

// ClockCap returns the clock/enable pin capacitance in pF; clock pins are
// smaller than data pins since they drive only the internal latch stage.
func (s *Spec) ClockCap() float64 { return 0.6 * s.Params.CinPerDrive * float64(s.Drive) }

// MaxCap returns the maximum load the output may drive in pF.
func (s *Spec) MaxCap() float64 { return s.Params.CmaxPerDrive * float64(s.Drive) }

// Area returns the cell area in um^2.
func (s *Spec) Area() float64 {
	return s.Params.AreaBase + s.Params.AreaPerDrive*float64(s.Drive)
}

// Delay evaluates the analytic propagation delay (ns) of the cell at the
// given output load (pF) and input slew (ns) in the given corner:
//
//	d = scale * (parasitic + a*slew + (R/k)*load + b*slew*load/(k*cmax0))
//
// a logical-effort style model: drive strength k divides the resistive
// term, slew adds linearly, and a slew-load cross term bends the far
// corner of the LUT upward.
func (s *Spec) Delay(load, slew float64, corner Corner) float64 {
	p := s.Params
	k := float64(s.Drive)
	rel := load / (k * p.CmaxPerDrive) // 0..1 position within the drive range
	d := p.Parasitic + p.SlewCoeff*slew + (p.Resistance/k)*load + p.Interact*slew*rel
	return d * corner.DelayScale()
}

// OutputTransition evaluates the output slew (ns) at the given operating
// point.
func (s *Spec) OutputTransition(load, slew float64, corner Corner) float64 {
	p := s.Params
	k := float64(s.Drive)
	tr := p.TransBase + (p.TransSlope/k)*load + p.TransFeed*slew
	return tr * corner.DelayScale()
}

// Sigma evaluates the local-variation standard deviation of the delay
// (ns) at the operating point. Pelgrom's law makes mismatch shrink with
// device width: sigma ∝ 1/sqrt(k). The load and cross terms carry extra
// weight so the sigma surface steepens toward high slew and load — the
// "steep sigma increase" regions the slope-bound tuning methods cut away.
func (s *Spec) Sigma(load, slew float64, corner Corner) float64 {
	p := s.Params
	k := float64(s.Drive)
	rel := load / (k * p.CmaxPerDrive)
	base := 0.5*p.Parasitic + 0.8*p.SlewCoeff*slew + 1.2*(p.Resistance/k)*load + 1.5*p.Interact*slew*rel
	return (p.Mismatch / math.Sqrt(k)) * base * corner.DelayScale()
}

// SetupTime returns the sequential setup constraint in ns (zero for
// combinational cells).
func (s *Spec) SetupTime(corner Corner) float64 {
	return s.Params.Setup * corner.DelayScale()
}

// HoldTime returns the sequential hold constraint in ns.
func (s *Spec) HoldTime(corner Corner) float64 {
	return s.Params.Hold * corner.DelayScale()
}

// riseFallSkew is the rise/fall asymmetry applied to delay tables:
// cell_rise = delay * (1 + skew), cell_fall = delay * (1 - skew).
const riseFallSkew = 0.05

// RiseScale and FallScale turn a nominal delay entry into its cell_rise
// and cell_fall values.
const (
	RiseScale = 1 + riseFallSkew
	FallScale = 1 - riseFallSkew
)

// DelayTable builds the nominal cell delay LUT (before rise/fall skew).
func (s *Spec) DelayTable(corner Corner) *lut.Table {
	return lut.NewFilled(s.LoadAxis(), SlewAxis, func(l, sl float64) float64 {
		return s.Delay(l, sl, corner)
	})
}

// TransitionTable builds the nominal output transition LUT.
func (s *Spec) TransitionTable(corner Corner) *lut.Table {
	return lut.NewFilled(s.LoadAxis(), SlewAxis, func(l, sl float64) float64 {
		return s.OutputTransition(l, sl, corner)
	})
}

// SigmaTable builds the analytic local-variation sigma LUT — the ground
// truth the Monte-Carlo statistical library estimates.
func (s *Spec) SigmaTable(corner Corner) *lut.Table {
	return lut.NewFilled(s.LoadAxis(), SlewAxis, func(l, sl float64) float64 {
		return s.Sigma(l, sl, corner)
	})
}

// TemplateName is the shared lu_table_template name used by all emitted
// tables.
const TemplateName = "delay_template_7x7"

// buildLiberty renders the whole catalogue as a Liberty library at the
// catalogue corner with nominal (variation-free) tables.
func (c *Catalogue) buildLiberty() *liberty.Library {
	lib := &liberty.Library{
		Name:            "stc40_" + c.Corner.Name(),
		TimeUnit:        "1ns",
		CapacitiveUnit:  "1pf",
		VoltageUnit:     "1V",
		NominalVoltage:  c.Corner.Voltage(),
		NominalTemp:     c.Corner.Temperature(),
		NominalProcess:  1,
		OperatingCorner: c.Corner.Name(),
		Templates: []*liberty.Template{{
			Name:      TemplateName,
			Variable1: "total_output_net_capacitance",
			Variable2: "input_net_transition",
			Index2:    append([]float64(nil), SlewAxis...),
		}},
	}
	for _, lc := range c.layout.Cells {
		lib.AddCell(c.buildCell(lc, nil))
	}
	return lib
}

// Perturb maps a delay entry of the cell to a delay offset, used by the
// variation package to generate Monte-Carlo library instances. It
// receives the entry's analytic model — nominal is Spec.Delay and sigma
// is Spec.Sigma at the entry's operating point, from the catalogue's
// Layout tables — so it never re-evaluates the model. Entries arrive in
// Layout order. nil means no perturbation.
type Perturb func(s *Spec, nominal, sigma float64) float64

// BuildLibrary renders a full Liberty library applying the given
// perturbation to every delay entry (the transition tables stay nominal;
// the paper's statistics are about the delay). A nil perturb yields the
// nominal library.
func (c *Catalogue) BuildLibrary(name string, perturb Perturb) *liberty.Library {
	lib := &liberty.Library{
		Name:            name,
		TimeUnit:        "1ns",
		CapacitiveUnit:  "1pf",
		VoltageUnit:     "1V",
		NominalVoltage:  c.Corner.Voltage(),
		NominalTemp:     c.Corner.Temperature(),
		NominalProcess:  1,
		OperatingCorner: c.Corner.Name(),
		Templates:       c.Lib.Templates,
	}
	for _, lc := range c.layout.Cells {
		lib.AddCell(c.buildCell(lc, perturb))
	}
	return lib
}

func (c *Catalogue) buildCell(lc LayoutCell, perturb Perturb) *liberty.Cell {
	s := lc.Spec
	cell := &liberty.Cell{
		Name:          s.Name,
		Area:          s.Area(),
		DriveStrength: s.Drive,
		Footprint:     s.Family,
		IsSequential:  s.IsSequential(),
		LeakagePower:  s.LeakagePower(c.Corner),
	}
	// Data inputs.
	for _, in := range s.Inputs {
		cell.Pins = append(cell.Pins, &liberty.Pin{
			Name: in, Direction: liberty.Input, Capacitance: s.InputCap(),
		})
	}
	// Control pins.
	for _, ctl := range []string{s.Clock, s.ResetN, s.SetN} {
		if ctl != "" {
			cell.Pins = append(cell.Pins, &liberty.Pin{
				Name: ctl, Direction: liberty.Input, Capacitance: s.ClockCap(),
			})
		}
	}
	// Setup/hold constraint arcs on D for sequential cells.
	if s.IsSequential() {
		d := cell.Pin("D")
		setup := constTable(s.SetupTime(c.Corner))
		hold := constTable(s.HoldTime(c.Corner))
		d.Timing = append(d.Timing,
			&liberty.TimingArc{RelatedPin: s.Clock, Type: "setup_rising",
				CellRise: setup, CellFall: setup.Clone(), Template: "scalar"},
			&liberty.TimingArc{RelatedPin: s.Clock, Type: "hold_rising",
				CellRise: hold, CellFall: hold.Clone(), Template: "scalar"},
		)
	}
	// Outputs with delay arcs (none on a tie cell), in Layout order.
	for oi, lp := range lc.Pins {
		pin := &liberty.Pin{
			Name:      lp.Name,
			Direction: liberty.Output,
			MaxCap:    s.MaxCap(),
		}
		if oi < len(s.Functions) {
			pin.Function = s.Functions[oi]
		}
		for _, a := range lp.Arcs {
			pin.Timing = append(pin.Timing, c.buildArc(lc, a, perturb))
			pin.Power = append(pin.Power, c.buildPowerArc(s, a.RelatedPin))
		}
		cell.Pins = append(cell.Pins, pin)
	}
	return cell
}

func constTable(v float64) *lut.Table {
	t := lut.New([]float64{0.001}, []float64{0.05})
	t.Values[0][0] = v
	return t
}

func (c *Catalogue) buildArc(lc LayoutCell, la LayoutArc, perturb Perturb) *liberty.TimingArc {
	s := lc.Spec
	arc := &liberty.TimingArc{
		RelatedPin: la.RelatedPin,
		Sense:      senseOf(s.Kind),
		Template:   TemplateName,
	}
	if s.IsSequential() {
		arc.Type = "rising_edge"
		arc.Sense = "non_unate"
	}
	delay := lut.New(lc.Loads, SlewAxis)
	e := la.Offset
	for i := range delay.Values {
		for j := range delay.Values[i] {
			delay.Values[i][j] = c.entryDelay(s, e, perturb)
			e++
		}
	}
	trans := s.TransitionTable(c.Corner)
	arc.CellRise = delay.Clone().Scale(RiseScale)
	arc.CellFall = delay.Scale(FallScale)
	arc.RiseTransition = trans.Clone().Scale(RiseScale)
	arc.FallTransition = trans.Scale(FallScale)
	arc.Prepare()
	return arc
}

// buildPowerArc emits the internal_power group for one timing arc: the
// internal energy per transition over the same load/slew grid, with the
// rise transition slightly more expensive than the fall (PMOS stack).
func (c *Catalogue) buildPowerArc(s *Spec, from string) *liberty.PowerArc {
	energy := lut.NewFilled(s.LoadAxis(), SlewAxis, func(l, sl float64) float64 {
		return s.InternalEnergy(l, sl, c.Corner)
	})
	return &liberty.PowerArc{
		RelatedPin: from,
		Template:   TemplateName,
		RisePower:  energy.Clone().Scale(1.08),
		FallPower:  energy.Scale(0.92),
	}
}

func senseOf(k Kind) string {
	switch k {
	case KindInv, KindNand, KindNor:
		return "negative_unate"
	case KindBuf, KindOr:
		return "positive_unate"
	default:
		return "non_unate"
	}
}
