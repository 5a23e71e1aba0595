package obs

import (
	"math"
	"testing"
	"time"
)

func TestRegistryCountersGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("robust.pool_tasks")
	c.Add(3)
	if r.Counter("robust.pool_tasks") != c {
		t.Error("Counter not idempotent")
	}
	c.Add(2)
	if got := c.Value(); got != 5 {
		t.Errorf("counter %d want 5", got)
	}

	g := r.Gauge("queue.depth")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge %g want 2.5", got)
	}

	r.GaugeFunc("lut.hint_hit_ratio", func() float64 { return 0.75 })
	snap := r.Snapshot()
	if snap["robust.pool_tasks"] != int64(5) {
		t.Errorf("snapshot counter = %v", snap["robust.pool_tasks"])
	}
	if snap["queue.depth"] != 2.5 {
		t.Errorf("snapshot gauge = %v", snap["queue.depth"])
	}
	if snap["lut.hint_hit_ratio"] != 0.75 {
		t.Errorf("snapshot gauge func = %v", snap["lut.hint_hit_ratio"])
	}
}

// NaN/Inf from a computed gauge (e.g. a 0/0 hit ratio before any
// lookups) must not poison the JSON snapshot.
func TestSnapshotSanitizesNaN(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("nan", func() float64 { return math.NaN() })
	r.GaugeFunc("inf", func() float64 { return math.Inf(1) })
	snap := r.Snapshot()
	if snap["nan"] != -1.0 || snap["inf"] != -1.0 {
		t.Errorf("snapshot = %v, want NaN/Inf reported as -1", snap)
	}
}

// The registry's one histogram type is HDRHistogram; these tests pin
// its Summary, the shape every histogram metric is snapshotted in.

func TestHistogramQuantiles(t *testing.T) {
	h := &HDRHistogram{}
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Summary()
	if s.Count != 100 {
		t.Errorf("count %d want 100", s.Count)
	}
	if math.Abs(s.SumMS-(90+10*100)) > 1e-6 {
		t.Errorf("sum %g ms want 1090", s.SumMS)
	}
	// Quantiles interpolate inside the containing sub-bucket, whose
	// width is 1/32 of its base: within 1/16 of the true value.
	if s.P50MS < 1-1.0/16 || s.P50MS > 1+1.0/16 {
		t.Errorf("p50 %g ms, want 1 ms within 1/16", s.P50MS)
	}
	if s.P99MS < 100-100.0/16 || s.P99MS > 100+100.0/16 {
		t.Errorf("p99 %g ms, want 100 ms within 1/16", s.P99MS)
	}
	if s.P50MS > s.P90MS || s.P90MS > s.P99MS {
		t.Errorf("quantiles not monotone: %g %g %g", s.P50MS, s.P90MS, s.P99MS)
	}
}

// Quantiles of known distributions land within the sub-bucket error
// bound, not at a bucket's upper bound. Unitless magnitudes (the
// sta.dirty_cone cone sizes) go through Record.
func TestHistogramQuantileInterpolation(t *testing.T) {
	// Point mass: 1000 identical observations of 10240. Every quantile
	// stays inside the sub-bucket [10240, 10496).
	point := &HDRHistogram{}
	for i := 0; i < 1000; i++ {
		point.Record(10240)
	}
	s := point.Summary()
	for _, q := range []float64{s.P50MS, s.P90MS, s.P99MS} {
		if q < 10240.0/1e6 || q >= 10496.0/1e6 {
			t.Errorf("point-mass quantile %g ms escaped sub-bucket [0.010240, 0.010496)", q)
		}
	}

	// Uniform over [1, 4096]: true p50 = 2048, p90 = 3687, p99 = 4056.
	uni := &HDRHistogram{}
	for v := int64(1); v <= 4096; v++ {
		uni.Record(v)
	}
	u := uni.Summary()
	for _, tc := range []struct {
		name string
		got  float64 // ms
		want float64 // ns
	}{
		{"p50", u.P50MS, 2048}, {"p90", u.P90MS, 3687}, {"p99", u.P99MS, 4056},
	} {
		gotNS := tc.got * 1e6
		if math.Abs(gotNS-tc.want) > tc.want/16 {
			t.Errorf("uniform %s = %.0f, want within 1/16 of %.0f", tc.name, gotNS, tc.want)
		}
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := &HDRHistogram{}
	h.Observe(-time.Second) // clamped to 0
	h.Observe(0)
	h.Observe(time.Hour)
	if h.Count() != 3 {
		t.Errorf("count %d want 3", h.Count())
	}
	s := h.Summary()
	if math.IsNaN(s.P99MS) || math.IsInf(s.P99MS, 0) {
		t.Errorf("p99 %g not finite", s.P99MS)
	}
	if s.SumMS < 3_600_000-1 {
		t.Errorf("sum %g lost the hour", s.SumMS)
	}
}

func TestEmptyHistogramSummary(t *testing.T) {
	s := (&HDRHistogram{}).Summary()
	if s.Count != 0 || s.P50MS != 0 || s.P99MS != 0 || s.MaxMS != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Gauge("a")
	r.HDR("c")
	names := r.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Errorf("names %v", names)
	}
}

func TestDefaultRegistrySingleton(t *testing.T) {
	if Default() != Default() {
		t.Error("Default() not a singleton")
	}
}
