package exp

import (
	"context"
	"fmt"

	"stdcelltune/internal/core"
	"stdcelltune/internal/report"
	"stdcelltune/internal/robust"
)

// Table1Result reproduces Table 1: the clock periods of the four timing
// constraints, anchored at the measured minimum achievable period.
type Table1Result struct {
	Clocks ClockSet
}

// Table1 finds the minimum clock period by shrinking until synthesis
// fails, then derives the other constraints at the paper's ratios.
func (f *Flow) Table1() (*Table1Result, error) {
	clocks, err := f.Clocks()
	if err != nil {
		return nil, err
	}
	return &Table1Result{Clocks: clocks}, nil
}

// Render draws the table in the paper's layout.
func (t *Table1Result) Render() string {
	tb := &report.Table{
		Title:  "Table 1: clock periods for different constraints",
		Header: []string{"constraint", "clock period (ns)"},
	}
	tb.AddRow("High performance", t.Clocks.HighPerf)
	tb.AddRow("Medium performance", t.Clocks.Medium)
	tb.AddRow("Low performance", t.Clocks.Low)
	tb.AddRow("Close to maximum check", t.Clocks.CloseToMax)
	return tb.Render()
}

// Table2Result reproduces Table 2: the constraint parameters used during
// threshold extraction. These are inputs of the method, fixed by the
// paper; the driver exists so the harness records them next to the
// measured outputs.
type Table2Result struct {
	LoadSlopeBounds []float64
	SlewSlopeBounds []float64
	SigmaCeilings   []float64
	Defaults        core.Params
}

// Table2 returns the paper's constraint parameter matrix.
func (f *Flow) Table2() *Table2Result {
	return &Table2Result{
		LoadSlopeBounds: core.SweepBounds(core.CellLoadSlope),
		SlewSlopeBounds: core.SweepBounds(core.CellSlewSlope),
		SigmaCeilings:   core.SweepBounds(core.SigmaCeiling),
		Defaults: core.Params{
			LoadSlopeBound: core.DefaultLoadSlopeBound,
			SlewSlopeBound: core.DefaultSlewSlopeBound,
			SigmaCeiling:   core.DefaultSigmaCeiling,
		},
	}
}

// Render draws the parameter matrix.
func (t *Table2Result) Render() string {
	tb := &report.Table{
		Title:  "Table 2: constraint parameters used during threshold extraction",
		Header: []string{"parameter", "sweep values", "default"},
	}
	tb.AddRow("Load slope bounds", fmt.Sprint(t.LoadSlopeBounds), t.Defaults.LoadSlopeBound)
	tb.AddRow("Slew slope bounds", fmt.Sprint(t.SlewSlopeBounds), t.Defaults.SlewSlopeBound)
	tb.AddRow("Sigma ceiling", fmt.Sprint(t.SigmaCeilings), t.Defaults.SigmaCeiling)
	return tb.Render()
}

// MethodBest is the winning bound of one tuning method at one clock:
// the highest sigma reduction with area increase below the cap.
type MethodBest struct {
	Method     core.Method
	Clock      float64
	Bound      float64
	Met        bool // any bound produced a met design within the area cap
	SigmaBase  float64
	SigmaTuned float64
	AreaBase   float64
	AreaTuned  float64
}

// SigmaReduction returns the fractional reduction.
func (m MethodBest) SigmaReduction() float64 {
	if m.SigmaBase == 0 {
		return 0
	}
	return (m.SigmaBase - m.SigmaTuned) / m.SigmaBase
}

// AreaIncrease returns the fractional increase.
func (m MethodBest) AreaIncrease() float64 {
	if m.AreaBase == 0 {
		return 0
	}
	return (m.AreaTuned - m.AreaBase) / m.AreaBase
}

// Table3Result holds, per method and clock, the constraint bound that
// achieved the highest sigma reduction at <10% area increase (Table 3),
// together with the measured reductions (Fig. 10 draws the same data).
type Table3Result struct {
	Clocks ClockSet
	Best   []MethodBest // 5 methods x 4 clocks, method-major
}

// AreaCap is the paper's acceptance bound for Fig. 10 / Table 3: area
// increase below 10%.
const AreaCap = 0.10

// Table3 runs the full 5-method x 4-bound x 4-clock sweep. The twenty
// (method, clock) cells are independent once the four baselines exist,
// so they run concurrently; the flow cache deduplicates shared tuning
// runs.
func (f *Flow) Table3() (*Table3Result, error) {
	clocks, err := f.Clocks()
	if err != nil {
		return nil, err
	}
	// Baselines first (each shared by five methods), then the tuning
	// runs (shared across clocks) — both serial so the parallel phase
	// below only ever hits warm caches for shared artifacts.
	for _, clk := range clocks.Periods() {
		if _, _, err := f.BaselineStats(clk); err != nil {
			return nil, err
		}
	}
	for _, m := range core.Methods {
		for _, bound := range core.SweepBounds(m) {
			if _, _, err := f.Tune(m, bound); err != nil {
				return nil, err
			}
		}
	}
	type cell struct {
		m   core.Method
		clk float64
	}
	var cells []cell
	for _, m := range core.Methods {
		for _, clk := range clocks.Periods() {
			cells = append(cells, cell{m, clk})
		}
	}
	// One pool task per cell, not index ranges: a cell's cost is a
	// whole set of tuning syntheses and varies by cell. The pool bounds
	// concurrency (slots are acquired before a goroutine spawns),
	// recovers per-cell panics into errors, honours the flow context,
	// and joins every cell error instead of dropping all but the first.
	results := make([]MethodBest, len(cells))
	err = robust.ForEachNamed(f.ctx, "table3.tune", poolWorkers(), len(cells), func(_ context.Context, i int) error {
		c := cells[i]
		b, err := f.bestBound(c.m, c.clk)
		if err != nil {
			return fmt.Errorf("table3 %s at %.2f ns: %w", c.m, c.clk, err)
		}
		results[i] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Table3Result{Clocks: clocks, Best: results}, nil
}

// bestBound sweeps the method's Table-2 bounds at one clock and picks
// the highest sigma reduction whose area increase stays under AreaCap.
func (f *Flow) bestBound(m core.Method, clk float64) (MethodBest, error) {
	_, baseDS, err := f.BaselineStats(clk)
	if err != nil {
		return MethodBest{}, err
	}
	baseRes, err := f.Baseline(clk)
	if err != nil {
		return MethodBest{}, err
	}
	best := MethodBest{
		Method: m, Clock: clk,
		SigmaBase: baseDS.Design.Sigma, AreaBase: baseRes.Area(),
		SigmaTuned: baseDS.Design.Sigma, AreaTuned: baseRes.Area(),
	}
	for _, bound := range core.SweepBounds(m) {
		res, ds, err := f.TunedStats(m, bound, clk)
		if err != nil {
			return MethodBest{}, err
		}
		if !res.Met {
			continue
		}
		inc := (res.Area() - best.AreaBase) / best.AreaBase
		if inc >= AreaCap {
			continue
		}
		if !best.Met || ds.Design.Sigma < best.SigmaTuned {
			best.Met = true
			best.Bound = bound
			best.SigmaTuned = ds.Design.Sigma
			best.AreaTuned = res.Area()
		}
	}
	return best, nil
}

// Render draws Table 3: the chosen bound per method and clock.
func (t *Table3Result) Render() string {
	tb := &report.Table{
		Title: "Table 3: constraint parameters used to get the sigma decrease",
		Header: []string{"tuning method",
			fmt.Sprintf("%.2f ns", t.Clocks.HighPerf),
			fmt.Sprintf("%.2f ns", t.Clocks.CloseToMax),
			fmt.Sprintf("%.2f ns", t.Clocks.Medium),
			fmt.Sprintf("%.2f ns", t.Clocks.Low)},
	}
	perMethod := make(map[core.Method][]MethodBest)
	for _, b := range t.Best {
		perMethod[b.Method] = append(perMethod[b.Method], b)
	}
	for _, m := range core.Methods {
		row := []any{m.String()}
		for _, b := range perMethod[m] {
			if b.Met {
				row = append(row, b.Bound)
			} else {
				row = append(row, "-")
			}
		}
		tb.AddRow(row...)
	}
	return tb.Render()
}
