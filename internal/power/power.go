// Package power estimates the power of a synthesized design — the
// library-file dimension the paper mentions but does not evaluate
// (Section II), built out so the power cost of variability tolerance can
// be measured: tuned designs use bigger, lower-sigma cells, which burn
// more leakage and internal power.
//
// Dynamic power comes from activity-based estimation: the mapped netlist
// is simulated with random input vectors, per-net toggle rates feed
// 0.5*C*V^2*alpha*f switching power plus LUT-interpolated internal
// energy per transition; leakage sums the per-cell static numbers.
// The local-variation sigma of the switching power aggregates the
// per-cell Pelgrom power mismatch (independent cells, RSS).
package power

import (
	"fmt"
	"math"
	"sort"

	"stdcelltune/internal/dist"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/stdcell"
)

// Config controls the estimation.
type Config struct {
	// Cycles of random stimulus for activity extraction.
	Cycles int
	// Seed for the stimulus.
	Seed int64
	// ClockPeriod in ns; switching power scales with 1/period.
	ClockPeriod float64
	// InputToggleProb is the per-cycle probability an input flips.
	InputToggleProb float64
}

// DefaultConfig estimates over 256 cycles.
func DefaultConfig(clock float64) Config {
	return Config{Cycles: 256, Seed: 1, ClockPeriod: clock, InputToggleProb: 0.25}
}

// Report is the power breakdown of a design, all in mW.
type Report struct {
	Cfg Config

	Switching float64 // net charging: 0.5*C*V^2*alpha*f
	Internal  float64 // cell internal energy per output transition
	Leakage   float64 // static
	// SigmaInternal is the local-variation standard deviation of the
	// internal component (independent per-cell mismatch, RSS).
	SigmaInternal float64

	// MeanActivity is the average per-net toggle rate (toggles/cycle).
	MeanActivity float64
}

// Total returns switching + internal + leakage.
func (r *Report) Total() float64 { return r.Switching + r.Internal + r.Leakage }

// Estimate runs activity extraction and sums the components. The timing
// result supplies per-net loads and slews (the power LUT operating
// points).
func Estimate(nl *netlist.Netlist, timing *sta.Result, cfg Config) (*Report, error) {
	if cfg.Cycles < 2 {
		return nil, fmt.Errorf("power: need at least 2 cycles")
	}
	if cfg.ClockPeriod <= 0 {
		return nil, fmt.Errorf("power: non-positive clock period")
	}
	sim, err := netlist.NewSimulator(nl)
	if err != nil {
		return nil, err
	}
	rng := dist.NewRNG(cfg.Seed)
	toggles := make([]int, nl.NetExtent()) // per net ID
	prev := make([]bool, nl.NetExtent())
	inputs := make(map[string]bool)
	var names []string
	for _, n := range nl.PrimaryInputs() {
		names = append(names, n.Name)
	}
	sort.Strings(names) // deterministic stimulus order
	for _, name := range names {
		inputs[name] = rng.Float64() < 0.5
	}
	for cyc := 0; cyc < cfg.Cycles; cyc++ {
		for _, name := range names {
			if rng.Float64() < cfg.InputToggleProb {
				inputs[name] = !inputs[name]
			}
		}
		if err := sim.Advance(inputs); err != nil {
			return nil, err
		}
		for _, n := range nl.Nets {
			v := sim.NetValue(n)
			if cyc > 0 && v != prev[n.ID] {
				toggles[n.ID]++
			}
			prev[n.ID] = v
		}
	}
	denom := float64(cfg.Cycles - 1)
	freqGHz := 1.0 / cfg.ClockPeriod // 1/ns = GHz
	v := nl.Cat.Corner.Voltage()
	rep := &Report{Cfg: cfg}
	var actSum float64
	var varInternal float64
	for _, n := range nl.Nets {
		alpha := float64(toggles[n.ID]) / denom
		actSum += alpha
		if n.ID >= len(timing.Load) {
			continue
		}
		load := timing.Load[n.ID]
		// Net switching power: pJ * GHz = mW.
		rep.Switching += 0.5 * load * v * v * alpha * freqGHz
		// Internal energy of the driving cell at its operating point.
		if n.Driver != nil {
			spec := n.Driver.Spec
			slew := worstInputSlew(n.Driver, timing)
			e := spec.InternalEnergy(load, slew, nl.Cat.Corner)
			rep.Internal += e * alpha * freqGHz
			sg := spec.PowerSigma(load, slew, nl.Cat.Corner) * alpha * freqGHz
			varInternal += sg * sg
		}
	}
	// Leakage is activity-independent.
	for _, inst := range nl.Instances {
		rep.Leakage += inst.Spec.LeakagePower(nl.Cat.Corner) * 1e-6 // nW -> mW
	}
	rep.SigmaInternal = math.Sqrt(varInternal)
	if len(nl.Nets) > 0 {
		rep.MeanActivity = actSum / float64(len(nl.Nets))
	}
	return rep, nil
}

func worstInputSlew(inst *netlist.Instance, timing *sta.Result) float64 {
	worst := timing.Cfg.InputSlew
	for _, n := range inst.In {
		if n != nil && n.ID < len(timing.Slew) && timing.Slew[n.ID] > worst {
			worst = timing.Slew[n.ID]
		}
	}
	return worst
}

// CellDomain breaks the report down per cell family.
type CellDomain struct {
	Family  string
	Leakage float64 // mW
	Cells   int
}

// LeakageByFamily returns the leakage breakdown sorted by family name.
func LeakageByFamily(nl *netlist.Netlist) []CellDomain {
	m := make(map[string]*CellDomain)
	for _, inst := range nl.Instances {
		fam := stdcell.FamilyOf(inst.Spec.Name)
		d := m[fam]
		if d == nil {
			d = &CellDomain{Family: fam}
			m[fam] = d
		}
		d.Leakage += inst.Spec.LeakagePower(nl.Cat.Corner) * 1e-6
		d.Cells++
	}
	out := make([]CellDomain, 0, len(m))
	for _, d := range m {
		out = append(out, *d)
	}
	sortDomains(out)
	return out
}

func sortDomains(ds []CellDomain) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].Family < ds[j-1].Family; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}
