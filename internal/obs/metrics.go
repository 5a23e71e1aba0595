package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a flat, dependency-free metrics namespace: counters
// (monotonic int64), gauges (float64, settable), gauge funcs (computed
// on read — ratios live here), and high-resolution log-linear
// histograms (hdr.go).
// Get-or-create accessors make instrumentation sites declaration-free
// and idempotent. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	hdrs       map[string]*HDRHistogram

	// Labeled families (prom.go): get-or-create vecs whose children are
	// keyed by label values. Exposition renders them as Prometheus
	// series; Snapshot flattens them as name{k="v"} entries.
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	hdrVecs     map[string]*HDRVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		gaugeFuncs:  make(map[string]func() float64),
		hdrs:        make(map[string]*HDRHistogram),
		counterVecs: make(map[string]*CounterVec),
		gaugeVecs:   make(map[string]*GaugeVec),
		hdrVecs:     make(map[string]*HDRVec),
	}
}

var (
	defaultRegistry     *Registry
	defaultRegistryOnce sync.Once
)

// Default returns the process-wide registry every instrumented package
// records into.
func Default() *Registry {
	defaultRegistryOnce.Do(func() { defaultRegistry = NewRegistry() })
	return defaultRegistry
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers (or replaces) a computed gauge evaluated at
// snapshot time — the natural shape for ratios like lut.hint_hit_ratio.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.mu.Lock()
	r.gaugeFuncs[name] = f
	r.mu.Unlock()
}

// HDR returns (creating on first use) the named high-resolution
// log-linear histogram (hdr.go), the registry's one histogram type.
func (r *Registry) HDR(name string) *HDRHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hdrs[name]
	if !ok {
		h = &HDRHistogram{}
		r.hdrs[name] = h
	}
	return h
}

// Snapshot renders every metric into a plain JSON-marshalable map:
// counters and gauges by value, histograms as HDRSummary. Computed
// gauges are evaluated here; a NaN result is reported as -1 so the
// snapshot stays valid JSON.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.gaugeFuncs)+len(r.hdrs))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, f := range r.gaugeFuncs {
		v := f()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = -1
		}
		out[name] = v
	}
	for name, h := range r.hdrs {
		out[name] = h.Summary()
	}
	for _, v := range r.counterVecs {
		v.each(func(series string, c *Counter) { out[series] = c.Value() })
	}
	for _, v := range r.gaugeVecs {
		v.each(func(series string, g *Gauge) { out[series] = g.Value() })
	}
	for _, v := range r.hdrVecs {
		v.each(func(series string, h *HDRHistogram) { out[series] = h.Summary() })
	}
	return out
}

// Names returns every metric name in sorted order.
func (r *Registry) Names() []string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (negative to decrement) — the
// in-flight-request shape. Lock-free via compare-and-swap.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
