package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labeled metric families and Prometheus text exposition (format
// 0.0.4), dependency-free. A vec is a get-or-create family of children
// keyed by label values; the serving tier's RED metrics (request
// counters by route and status class, in-flight gauges, latency
// histograms) live here. Children are created on first use and never
// deleted, so instrumentation sites MUST only pass label values drawn
// from bounded sets (route patterns, status classes) — never raw
// request data like job ids. The cardinality regression test in
// internal/service pins this.

// labelSep joins label values into a child key; \x1f cannot appear in
// sane label values.
const labelSep = "\x1f"

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct {
	name   string
	labels []string
	mu     sync.Mutex
	kids   map[string]*Counter
}

// CounterVec returns (creating on first use) the named counter family.
// Label names are fixed at first creation.
func (r *Registry) CounterVec(name string, labelNames ...string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.counterVecs[name]
	if !ok {
		v = &CounterVec{name: name, labels: labelNames, kids: make(map[string]*Counter)}
		r.counterVecs[name] = v
	}
	return v
}

// With returns the child counter for the given label values (one per
// declared label name, in order).
func (v *CounterVec) With(values ...string) *Counter {
	key := strings.Join(values, labelSep)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[key]
	if !ok {
		c = &Counter{}
		v.kids[key] = c
	}
	return c
}

// Len reports the number of child series — the cardinality witness.
func (v *CounterVec) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.kids)
}

func (v *CounterVec) each(f func(series string, c *Counter)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for key, c := range v.kids {
		f(seriesName(v.name, v.labels, key), c)
	}
}

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct {
	name   string
	labels []string
	mu     sync.Mutex
	kids   map[string]*Gauge
}

// GaugeVec returns (creating on first use) the named gauge family.
func (r *Registry) GaugeVec(name string, labelNames ...string) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gaugeVecs[name]
	if !ok {
		v = &GaugeVec{name: name, labels: labelNames, kids: make(map[string]*Gauge)}
		r.gaugeVecs[name] = v
	}
	return v
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	key := strings.Join(values, labelSep)
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.kids[key]
	if !ok {
		g = &Gauge{}
		v.kids[key] = g
	}
	return g
}

// Len reports the number of child series.
func (v *GaugeVec) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.kids)
}

func (v *GaugeVec) each(f func(series string, g *Gauge)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for key, g := range v.kids {
		f(seriesName(v.name, v.labels, key), g)
	}
}

// HDRVec is a family of high-resolution histograms distinguished by
// label values — per-route request latency.
type HDRVec struct {
	name   string
	labels []string
	mu     sync.Mutex
	kids   map[string]*HDRHistogram
}

// HDRVec returns (creating on first use) the named histogram family.
func (r *Registry) HDRVec(name string, labelNames ...string) *HDRVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.hdrVecs[name]
	if !ok {
		v = &HDRVec{name: name, labels: labelNames, kids: make(map[string]*HDRHistogram)}
		r.hdrVecs[name] = v
	}
	return v
}

// With returns the child histogram for the given label values.
func (v *HDRVec) With(values ...string) *HDRHistogram {
	key := strings.Join(values, labelSep)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.kids[key]
	if !ok {
		h = &HDRHistogram{}
		v.kids[key] = h
	}
	return h
}

// Len reports the number of child series.
func (v *HDRVec) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.kids)
}

func (v *HDRVec) each(f func(series string, h *HDRHistogram)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for key, h := range v.kids {
		f(seriesName(v.name, v.labels, key), h)
	}
}

// seriesName renders name{k="v",...} for Snapshot keys and exposition.
func seriesName(name string, labels []string, key string) string {
	return name + labelString(labels, key)
}

func labelString(labels []string, key string) string {
	if len(labels) == 0 {
		return ""
	}
	values := strings.Split(key, labelSep)
	var b strings.Builder
	b.WriteByte('{')
	for i, ln := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(ln)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// promName sanitizes a registry metric name into a legal Prometheus
// metric name: [a-zA-Z_:][a-zA-Z0-9_:]*. Dotted names like
// service.jobs_done become service_jobs_done.
func promName(name string) string {
	var b strings.Builder
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the whole registry in the Prometheus text
// exposition format 0.0.4: counters and gauges as single samples,
// labeled families as one series per child, and both histogram kinds
// as cumulative-bucket histograms with `le` bounds in seconds at the
// power-of-two octaves (sub-bucket resolution is collapsed for
// exposition; Quantile keeps the full resolution in-process). Output
// is sorted by metric name, so identical registry state renders
// identical bytes — the golden-test contract.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gauges)+len(r.gaugeFuncs))
	for n, g := range r.gauges {
		gauges[n] = g.Value()
	}
	funcs := make(map[string]func() float64, len(r.gaugeFuncs))
	for n, f := range r.gaugeFuncs {
		funcs[n] = f
	}
	hdrs := make(map[string]*HDRHistogram, len(r.hdrs))
	for n, h := range r.hdrs {
		hdrs[n] = h
	}
	cvecs := make([]*CounterVec, 0, len(r.counterVecs))
	for _, v := range r.counterVecs {
		cvecs = append(cvecs, v)
	}
	gvecs := make([]*GaugeVec, 0, len(r.gaugeVecs))
	for _, v := range r.gaugeVecs {
		gvecs = append(gvecs, v)
	}
	hvecs := make([]*HDRVec, 0, len(r.hdrVecs))
	for _, v := range r.hdrVecs {
		hvecs = append(hvecs, v)
	}
	r.mu.Unlock()

	// Computed gauges are evaluated outside the registry lock: a gauge
	// func reading another metric must not deadlock.
	for n, f := range funcs {
		gauges[n] = f()
	}

	fams := make(map[string]*promFamily)
	fam := func(name, typ string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{typ: typ}
			fams[name] = f
		}
		return f
	}

	for n, v := range counters {
		f := fam(promName(n), "counter")
		f.lines = append(f.lines, fmt.Sprintf("%s %d", promName(n), v))
	}
	for n, v := range gauges {
		f := fam(promName(n), "gauge")
		f.lines = append(f.lines, fmt.Sprintf("%s %s", promName(n), promFloat(v)))
	}
	for _, v := range cvecs {
		f := fam(promName(v.name), "counter")
		v.mu.Lock()
		for key, c := range v.kids {
			f.lines = append(f.lines, fmt.Sprintf("%s%s %d", promName(v.name), labelString(v.labels, key), c.Value()))
		}
		v.mu.Unlock()
	}
	for _, v := range gvecs {
		f := fam(promName(v.name), "gauge")
		v.mu.Lock()
		for key, g := range v.kids {
			f.lines = append(f.lines, fmt.Sprintf("%s%s %s", promName(v.name), labelString(v.labels, key), promFloat(g.Value())))
		}
		v.mu.Unlock()
	}
	for n, h := range hdrs {
		writeHDRHist(fam(promName(n), "histogram"), promName(n), "", h.Snapshot())
	}
	for _, v := range hvecs {
		f := fam(promName(v.name), "histogram")
		v.mu.Lock()
		kids := make(map[string]*HDRHistogram, len(v.kids))
		for key, h := range v.kids {
			kids[key] = h
		}
		labels, name := v.labels, promName(v.name)
		v.mu.Unlock()
		keys := make([]string, 0, len(kids))
		for key := range kids {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			extra := strings.TrimSuffix(strings.TrimPrefix(labelString(labels, key), "{"), "}")
			writeHDRHist(f, name, extra, kids[key].Snapshot())
		}
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, n := range names {
		f := fams[n]
		fmt.Fprintf(bw, "# TYPE %s %s\n", n, f.typ)
		if f.typ != "histogram" {
			// Histogram lines keep their emission order: cumulative buckets
			// ascending per child, then +Inf, _sum, _count. Scalar families
			// sort for deterministic output.
			sort.Strings(f.lines)
		}
		for _, l := range f.lines {
			fmt.Fprintln(bw, l)
		}
	}
	return bw.Flush()
}

// promFamily collects the sample lines of one metric family during
// exposition.
type promFamily struct {
	typ   string
	lines []string
}

// histLine appends one sample line, merging extra labels (may be "")
// with the bucket label (may be "").
func (f *promFamily) histLine(name, suffix, extraLabels, bucketLabel, value string) {
	labels := extraLabels
	if bucketLabel != "" {
		if labels != "" {
			labels += ","
		}
		labels += bucketLabel
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	f.lines = append(f.lines, name+suffix+labels+" "+value)
}

// writeHDRHist renders an HDR snapshot as cumulative buckets at the
// octave bounds 2^o ns (in seconds) up to the highest non-empty
// bucket. The in-process sub-bucket resolution (1/32 relative error)
// is collapsed to octaves for exposition, which keeps the series count
// bounded; scrape-side quantiles are octave-accurate, in-process
// Quantile stays at full resolution.
func writeHDRHist(f *promFamily, name, extraLabels string, s HDRSnapshot) {
	maxNonEmpty := -1
	for i, c := range s.Counts {
		if c > 0 {
			maxNonEmpty = i
		}
	}
	var cum int64
	i := 0
	for o := uint(0); o <= 62; o++ {
		bound := int64(1) << o
		for i < len(s.Counts) {
			_, high := hdrBounds(i)
			if high > bound {
				break
			}
			cum += s.Counts[i]
			i++
		}
		f.histLine(name, "_bucket", extraLabels, fmt.Sprintf("le=%q", promFloat(float64(bound)/1e9)), strconv.FormatInt(cum, 10))
		if i > maxNonEmpty {
			break
		}
	}
	f.histLine(name, "_bucket", extraLabels, `le="+Inf"`, strconv.FormatInt(s.Count, 10))
	f.histLine(name, "_sum", extraLabels, "", promFloat(float64(s.Sum)/1e9))
	f.histLine(name, "_count", extraLabels, "", strconv.FormatInt(s.Count, 10))
}

// PromSample is one parsed exposition sample.
type PromSample struct {
	Name   string            // metric name (with _bucket/_sum/_count suffix intact)
	Labels map[string]string // label set, nil when unlabeled
	Value  float64
}

// ParsePrometheusText parses text exposition format 0.0.4 — the
// validation half used by cmd/obscheck and the exposition tests. It
// understands comments, # TYPE lines, and sample lines with optional
// labels; it rejects structurally invalid lines. Returns the samples
// in input order plus the declared family types.
func ParsePrometheusText(r io.Reader) (samples []PromSample, types map[string]string, err error) {
	types = make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
					types[fields[2]] = fields[3]
				default:
					return nil, nil, fmt.Errorf("line %d: unknown TYPE %q", lineNo, fields[3])
				}
			}
			continue
		}
		s, perr := parsePromSample(line)
		if perr != nil {
			return nil, nil, fmt.Errorf("line %d: %v", lineNo, perr)
		}
		samples = append(samples, s)
	}
	return samples, types, sc.Err()
}

func parsePromSample(line string) (PromSample, error) {
	var s PromSample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		var err error
		s.Labels, err = parsePromLabels(rest[i+1 : end])
		if err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return s, fmt.Errorf("sample %q has no value", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	if s.Name == "" || !validPromName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	// Value (a possible trailing timestamp is taken as the second field).
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample %q: bad value: %v", line, err)
	}
	s.Value = v
	return s, nil
}

func parsePromLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", body)
		}
		name := strings.TrimSpace(body[i : i+eq])
		if !validPromName(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", body)
		}
		i++
		var b strings.Builder
		for i < len(body) && body[i] != '"' {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(body[i])
				}
			} else {
				b.WriteByte(body[i])
			}
			i++
		}
		if i >= len(body) {
			return nil, fmt.Errorf("unterminated label value in %q", body)
		}
		i++ // closing quote
		labels[name] = b.String()
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	return labels, nil
}

func validPromName(n string) bool {
	for i, c := range n {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return n != ""
}
