package stattime_test

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"stdcelltune/internal/core"
	"stdcelltune/internal/exp"
	"stdcelltune/internal/robust"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/synth"
)

// TestAnalyzeMatchesPathByPathOnFlow runs the path-by-path reference
// check on the -small flow's synthesized designs: the baseline and the
// sigma-ceiling design at the high-performance clock, whose worst paths
// share long prefixes, at every reference rho; then again with the
// driver cell of the baseline's first endpoint quarantined, so degraded
// steps sit on shared prefixes.
func TestAnalyzeMatchesPathByPathOnFlow(t *testing.T) {
	f, err := exp.NewFlow(context.Background(), exp.SmallFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	clocks, err := f.Clocks()
	if err != nil {
		t.Fatal(err)
	}
	base, err := f.Baseline(clocks.HighPerf)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := f.Tuned(core.SigmaCeiling, core.DefaultSigmaCeiling, clocks.HighPerf)
	if err != nil {
		t.Fatal(err)
	}
	designs := []struct {
		name string
		res  *synth.Result
	}{{"baseline", base}, {"sigma ceiling", tuned}}
	check := func(stat *statlib.Library) (degraded int) {
		t.Helper()
		for _, d := range designs {
			for _, rho := range stattime.ReferenceRhos {
				ds := stattime.CheckMatchesReference(t, fmt.Sprintf("%s rho=%g", d.name, rho), d.res.Timing, stat, rho)
				degraded += ds.DegradedSteps()
			}
		}
		return degraded
	}
	if n := check(f.Stat); n != 0 {
		t.Fatalf("clean library degraded %d steps", n)
	}

	var victim string
	for _, ep := range base.Timing.Endpoints {
		if d := ep.Net.Driver; d != nil && !d.Spec.IsSequential() {
			victim = d.Spec.Name
			break
		}
	}
	if victim == "" {
		t.Fatal("baseline has no endpoint driven by a combinational cell")
	}
	q := &statlib.Library{Name: "quarantine", Cells: maps.Clone(f.Stat.Cells), Quarantine: robust.NewQuarantine("test")}
	q.Quarantine.Add(victim, "test: degenerate statistics")
	delete(q.Cells, victim)
	if check(q) == 0 {
		t.Fatalf("quarantining %s degraded no step", victim)
	}
}
