package sta

import (
	"math"
	"testing"

	"stdcelltune/internal/netlist"
)

func TestRequiredTimesChain(t *testing.T) {
	nl := chain(t) // in -> INV_1 -> INV_2 -> out
	cfg := DefaultConfig(5)
	r, err := Analyze(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := r.RequiredTimes()
	out := nl.OutputNet("out")
	// The output net's required time is the effective clock.
	want := cfg.ClockPeriod - cfg.Uncertainty
	if math.Abs(req[out.ID]-want) > 1e-12 {
		t.Errorf("required(out)=%g want %g", req[out.ID], want)
	}
	// Upstream required = downstream required - arc delay, so net slack
	// is constant along a single chain.
	slacks := r.NetSlacks()
	var chainSlack []float64
	for _, n := range nl.Nets {
		if n.PrimaryIn {
			continue
		}
		chainSlack = append(chainSlack, slacks[n.ID])
	}
	for i := 1; i < len(chainSlack); i++ {
		if math.Abs(chainSlack[i]-chainSlack[0]) > 1e-9 {
			t.Errorf("slack varies along a single chain: %v", chainSlack)
		}
	}
	// Endpoint slack must equal the output net slack.
	if math.Abs(slacks[out.ID]-r.Endpoints[0].Slack) > 1e-9 {
		t.Errorf("net slack %g vs endpoint slack %g", slacks[out.ID], r.Endpoints[0].Slack)
	}
}

func TestRequiredTimesSetupSubtracted(t *testing.T) {
	nl := ffPath(t) // ff1 -> inv -> ff2
	cfg := DefaultConfig(4)
	r, err := Analyze(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := r.RequiredTimes()
	// The D net of ff2 must carry required = T - uncertainty - setup.
	var ff2 *netlist.Instance
	for _, inst := range nl.Instances {
		if inst.Name == "ff2" {
			ff2 = inst
		}
	}
	d := ff2.Input("D")
	want := cfg.ClockPeriod - cfg.Uncertainty - ff2.Spec.SetupTime(nl.Cat.Corner)
	if math.Abs(req[d.ID]-want) > 1e-12 {
		t.Errorf("required(D)=%g want %g", req[d.ID], want)
	}
}

func TestRequiredTimesDivergentFanout(t *testing.T) {
	// One driver feeding a short path and a long path: its required time
	// is set by the more critical (longer) branch.
	nl := netlist.New("fan", cat)
	in := nl.AddInput("in")
	drv := nl.AddInstance("drv", cat.Spec("INV_2"))
	nl.Connect(drv, "A", in)
	stem := nl.AddNet("stem")
	nl.Drive(drv, "Y", stem)
	// Short branch: direct PO.
	nl.MarkOutput("short", stem)
	// Long branch: 4 inverters then PO.
	cur := stem
	for i := 0; i < 4; i++ {
		inv := nl.AddInstance("", cat.Spec("INV_1"))
		nl.Connect(inv, "A", cur)
		nxt := nl.AddNet("")
		nl.Drive(inv, "Y", nxt)
		cur = nxt
	}
	nl.MarkOutput("long", cur)
	r, err := Analyze(nl, DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	req := r.RequiredTimes()
	eff := r.Cfg.ClockPeriod - r.Cfg.Uncertainty
	// Stem required must be strictly below the PO requirement (the long
	// branch eats into it) even though the stem itself is also a PO.
	if req[stem.ID] >= eff {
		t.Errorf("stem required %g not reduced by the long branch (eff %g)", req[stem.ID], eff)
	}
	// And the slack of the stem equals the worst (long) endpoint slack.
	slacks := r.NetSlacks()
	var longSlack float64
	for _, ep := range r.Endpoints {
		if ep.Name == "long" {
			longSlack = ep.Slack
		}
	}
	if math.Abs(slacks[stem.ID]-longSlack) > 1e-9 {
		t.Errorf("stem slack %g want long-branch slack %g", slacks[stem.ID], longSlack)
	}
}

func TestRequiredInfinityForDeadNets(t *testing.T) {
	// A net with no downstream endpoint keeps +Inf required time.
	nl := netlist.New("dead", cat)
	in := nl.AddInput("in")
	inv := nl.AddInstance("u", cat.Spec("INV_1"))
	nl.Connect(inv, "A", in)
	dead := nl.AddNet("dead")
	nl.Drive(inv, "Y", dead)
	// A second, live cone so the design has an endpoint.
	inv2 := nl.AddInstance("v", cat.Spec("INV_1"))
	nl.Connect(inv2, "A", in)
	o := nl.AddNet("")
	nl.Drive(inv2, "Y", o)
	nl.MarkOutput("y", o)
	r, err := Analyze(nl, DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	req := r.RequiredTimes()
	if !math.IsInf(req[dead.ID], 1) {
		t.Errorf("dead net required %g want +Inf", req[dead.ID])
	}
	if !math.IsInf(r.NetSlacks()[dead.ID], 1) {
		t.Error("dead net slack should be +Inf")
	}
}
