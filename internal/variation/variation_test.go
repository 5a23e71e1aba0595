package variation

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"stdcelltune/internal/dist"
	"stdcelltune/internal/stdcell"
)

func TestDeterminism(t *testing.T) {
	cat := stdcell.NewCatalogue(stdcell.Typical)
	cfg := Config{N: 2, Seed: 7, CharNoise: 0.02}
	a := Instances(cat, cfg)
	b := Instances(cat, cfg)
	for i := range a {
		ca := a[i].Cell("INV_1").Pin("Y").Timing[0].CellRise
		cb := b[i].Cell("INV_1").Pin("Y").Timing[0].CellRise
		for r := range ca.Values {
			for c := range ca.Values[r] {
				if ca.Values[r][c] != cb.Values[r][c] {
					t.Fatalf("instance %d not deterministic", i)
				}
			}
		}
	}
	if a[0].Name == a[1].Name {
		t.Error("instances should have distinct names")
	}
}

func TestInstancesDiffer(t *testing.T) {
	cat := stdcell.NewCatalogue(stdcell.Typical)
	libs := Instances(cat, Config{N: 2, Seed: 3})
	t0 := libs[0].Cell("ND2_2").Pin("Y").Timing[0].CellRise
	t1 := libs[1].Cell("ND2_2").Pin("Y").Timing[0].CellRise
	if t0.Values[3][3] == t1.Values[3][3] {
		t.Error("two MC instances produced identical entries")
	}
}

// TestPerEntryStdMatchesSigmaModel: the standard deviation of one LUT
// entry across many instances must approach the catalogue's analytic
// Sigma at that operating point (this is the property the statistical
// library construction relies on).
func TestPerEntryStdMatchesSigmaModel(t *testing.T) {
	cat := stdcell.NewCatalogue(stdcell.Typical)
	spec := cat.Spec("INV_2")
	sm := NewSampler(11)
	load, slew := spec.MaxCap()/4, 0.128
	want := spec.Sigma(load, slew, stdcell.Typical)
	const n = 3000
	samples := make([]float64, n)
	for i := 0; i < n; i++ {
		cs := sm.Cell(i, spec.Name)
		samples[i] = spec.Delay(load, slew, stdcell.Typical) + cs.Delta(spec, load, slew, stdcell.Typical)
	}
	mu, sg := dist.MeanStdDev(samples)
	if math.Abs(mu-spec.Delay(load, slew, stdcell.Typical)) > 0.05*want {
		t.Errorf("sample mean %g drifted from nominal", mu)
	}
	if math.Abs(sg-want)/want > 0.08 {
		t.Errorf("sample sigma %g want %g (±8%%)", sg, want)
	}
}

func TestDeltaWeightsAreUnitNorm(t *testing.T) {
	if math.Abs(wVth*wVth+wBeta*wBeta-1) > 1e-12 {
		t.Fatalf("mismatch component weights %g,%g not unit norm", wVth, wBeta)
	}
}

func TestSamplerKeying(t *testing.T) {
	sm := NewSampler(5)
	a := sm.Cell(0, "INV_1")
	b := sm.Cell(0, "INV_1")
	if a != b {
		t.Error("same key must give same sample")
	}
	if sm.Cell(1, "INV_1") == a {
		t.Error("different instance must differ")
	}
	if sm.Cell(0, "INV_2") == a {
		t.Error("different cell must differ")
	}
	if NewSampler(6).Cell(0, "INV_1") == a {
		t.Error("different seed must differ")
	}
}

func TestGlobalFactor(t *testing.T) {
	sm := NewSampler(9)
	if g := sm.Global(0, 0); g != 1 {
		t.Errorf("zero-sigma global factor %g want 1", g)
	}
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = sm.Global(i, 0.05)
	}
	mu, sg := dist.MeanStdDev(samples)
	if math.Abs(mu-1) > 0.01 {
		t.Errorf("global mean %g want ~1", mu)
	}
	if math.Abs(sg-0.05) > 0.01 {
		t.Errorf("global sigma %g want ~0.05", sg)
	}
}

func TestGlobalVariationShiftsWholeLibrary(t *testing.T) {
	cat := stdcell.NewCatalogue(stdcell.Typical)
	sm := NewSampler(21)
	cfg := Config{N: 1, Seed: 21, GlobalSigma: 0.2}
	inst := Instance(cat, sm, 0, cfg)
	g := sm.Global(0, 0.2)
	spec := cat.Spec("BUF_4")
	got := inst.Cell("BUF_4").Pin("Y").Timing[0].CellRise.Values[3][3]
	load, slew := spec.LoadAxis()[3], stdcell.SlewAxis[3]
	nominal := spec.Delay(load, slew, stdcell.Typical)
	cs := sm.Cell(0, spec.Name)
	want := (nominal + (g-1)*nominal + cs.Delta(spec, load, slew, stdcell.Typical)) * 1.05
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("global-perturbed entry %g want %g", got, want)
	}
}

func TestCellDelay(t *testing.T) {
	cat := stdcell.NewCatalogue(stdcell.Typical)
	spec := cat.Spec("INV_8")
	cs := CellSample{Vth: 1, Beta: -0.5}
	load, slew := 0.05, 0.1
	got := CellDelay(spec, cs, 1.1, load, slew, stdcell.Typical)
	want := 1.1*spec.Delay(load, slew, stdcell.Typical) + cs.Delta(spec, load, slew, stdcell.Typical)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("CellDelay=%g want %g", got, want)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.N != 50 {
		t.Errorf("default N=%d want 50 (paper)", cfg.N)
	}
	if cfg.GlobalSigma != 0 {
		t.Error("statistical library characterization must be local-only")
	}
	if DefaultGlobalSigma <= 0 {
		t.Error("DefaultGlobalSigma must be positive")
	}
}

// TestSamplerKeysMatchSprintf pins the zero-allocation fork keys to the
// exact draws the fmt.Sprintf keys produced: the statistical library's
// bit-identity depends on the byte stream fed to ForkNamed not changing.
func TestSamplerKeysMatchSprintf(t *testing.T) {
	sm := NewSampler(42)
	ref := dist.NewRNG(42)
	for _, instance := range []int{0, 1, 9, 10, 123, 9999} {
		for _, name := range []string{"INV_X1", "NAND2_X4", "DFF_X2"} {
			g := ref.ForkNamed(fmt.Sprintf("mc%d/%s", instance, name))
			want := CellSample{Vth: g.StandardNormal(), Beta: g.StandardNormal()}
			if got := sm.Cell(instance, name); got != want {
				t.Fatalf("Cell(%d, %s) = %+v, want %+v", instance, name, got, want)
			}
		}
		gg := ref.ForkNamed(fmt.Sprintf("global%d", instance))
		want := 1 + 0.035*gg.StandardNormal()
		if got := sm.Global(instance, 0.035); got != want {
			t.Fatalf("Global(%d) = %v, want %v", instance, got, want)
		}
	}
}

// TestSamplerCellAllocFree: the per-(instance, cell) draw must not
// allocate for the fork key (the whole point of the append/strconv
// path). The RNG construction itself allocates; assert we stay at that
// floor rather than zero.
func TestSamplerCellAllocFree(t *testing.T) {
	sm := NewSampler(7)
	base := testing.AllocsPerRun(200, func() {
		dist.NewRNG(7).ForkNamedBytes([]byte("mc3/NAND2_X4"))
	})
	got := testing.AllocsPerRun(200, func() {
		sm.Cell(3, "NAND2_X4")
	})
	// Cell = key build (must be free) + one ForkNamedBytes; allow the
	// NewRNG(7) of the baseline as slack, so key building is provably 0.
	if got > base {
		t.Fatalf("Cell allocates %.1f/op, fork baseline %.1f/op — key building is allocating", got, base)
	}
}

// TestSampleRowsIsARangeOfSamples: any row range, generated under any
// cfg.N and with or without pacing, is bit for bit the same rows of
// the whole matrix — the property the cluster tier's shard split rests
// on.
func TestSampleRowsIsARangeOfSamples(t *testing.T) {
	ctx := context.Background()
	cat := stdcell.NewCatalogue(stdcell.Typical)
	cfg := Config{N: 7, Seed: 3, CharNoise: 0.02}
	whole, err := SamplesCtx(ctx, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		lo, hi, n int
		pace      time.Duration
	}{{0, 7, 7, 0}, {2, 5, 7, 0}, {6, 7, 2, 0}, {3, 6, 50, time.Microsecond}, {4, 4, 7, 0}} {
		c := cfg
		c.N = r.n
		rows, err := SampleRows(ctx, cat, c, r.lo, r.hi, r.pace)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != r.hi-r.lo {
			t.Fatalf("[%d,%d): %d rows", r.lo, r.hi, len(rows))
		}
		for k, row := range rows {
			for e, v := range row {
				if math.Float64bits(v) != math.Float64bits(whole[r.lo+k][e]) {
					t.Fatalf("[%d,%d) N=%d: row %d entry %d differs from the whole matrix", r.lo, r.hi, r.n, r.lo+k, e)
				}
			}
		}
	}
	if _, err := SampleRows(ctx, cat, cfg, 3, 2, 0); err == nil {
		t.Error("inverted range generated")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := SampleRows(cancelled, cat, cfg, 0, 4, time.Millisecond); err == nil {
		t.Error("cancelled generation returned rows")
	}
}
