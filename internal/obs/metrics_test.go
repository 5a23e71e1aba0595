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

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond) // ~2^20 ns bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond) // ~2^27 ns bucket
	}
	s := h.Summary()
	if s.Count != 100 {
		t.Errorf("count %d want 100", s.Count)
	}
	if math.Abs(s.SumMS-(90+10*100)) > 1e-6 {
		t.Errorf("sum %g ms want 1090", s.SumMS)
	}
	// Quantiles interpolate inside the containing power-of-two bucket:
	// 1 ms lives in bucket 19 ([2^19, 2^20) ns ≈ [0.52, 1.05) ms), 100 ms
	// in bucket 26 ([2^26, 2^27) ns ≈ [67, 134) ms). The estimate must
	// land inside its bucket — no more upper-bound bias.
	if s.P50MS < 0.52 || s.P50MS > 1.05 {
		t.Errorf("p50 %g ms outside its bucket [0.52,1.05]", s.P50MS)
	}
	if s.P99MS < 67 || s.P99MS > 135 {
		t.Errorf("p99 %g ms outside its bucket [67,135]", s.P99MS)
	}
	if s.P50MS > s.P90MS || s.P90MS > s.P99MS {
		t.Errorf("quantiles not monotone: %g %g %g", s.P50MS, s.P90MS, s.P99MS)
	}
}

// Regression for the upper-bound bias: quantiles of known
// distributions must land inside the containing bucket (error bounded
// by the bucket width, i.e. within a factor of 2 of the true value),
// not at the bucket's upper bound.
func TestHistogramQuantileInterpolation(t *testing.T) {
	// Point mass: 1000 identical observations of 10 µs (10240 ns, bucket
	// 13 = [8192, 16384) ns). Every quantile must stay inside the bucket.
	point := &Histogram{}
	for i := 0; i < 1000; i++ {
		point.ObserveN(10240)
	}
	s := point.Summary()
	for _, q := range []float64{s.P50MS, s.P90MS, s.P99MS} {
		if q < 8192.0/1e6 || q >= 16384.0/1e6 {
			t.Errorf("point-mass quantile %g ms escaped bucket [0.008192, 0.016384)", q)
		}
	}

	// Uniform over [1, 4096] ns: true p50 = 2048, p90 = 3687, p99 = 4056.
	uni := &Histogram{}
	for v := int64(1); v <= 4096; v++ {
		uni.ObserveN(v)
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
		if gotNS < tc.want/2 || gotNS > tc.want*2 {
			t.Errorf("uniform %s = %.0f ns, want within 2x of %.0f", tc.name, gotNS, tc.want)
		}
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := &Histogram{}
	h.Observe(-time.Second) // clamped to 0
	h.Observe(0)
	h.Observe(time.Hour) // beyond the last bucket boundary
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
	s := (&Histogram{}).Summary()
	if s.Count != 0 || s.P50MS != 0 || s.P99MS != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Gauge("a")
	r.Histogram("c")
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
