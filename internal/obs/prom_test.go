package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden exposition files")

// buildPromRegistry populates a registry with one of everything, with
// fixed values, so the exposition bytes are reproducible.
func buildPromRegistry() *Registry {
	r := NewRegistry()
	r.Counter("service.jobs_done").Add(7)
	r.Gauge("queue.depth").Set(2.5)
	r.GaugeFunc("lut.hint_hit_ratio", func() float64 { return 0.75 })

	h := r.HDR("pool.task_time")
	h.Observe(900 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(3 * time.Microsecond)

	hdr := r.HDR("service.job_time")
	hdr.Observe(2 * time.Millisecond)
	hdr.Observe(40 * time.Millisecond)

	req := r.CounterVec("http_requests_total", "route", "code")
	req.With("POST /v1/jobs", "2xx").Add(10)
	req.With("POST /v1/jobs", "4xx").Add(2)
	req.With("GET /v1/jobs/{id}", "2xx").Add(31)

	r.GaugeVec("http_in_flight_requests", "route").With("POST /v1/jobs").Add(1)

	lat := r.HDRVec("http_request_duration_seconds", "route")
	lat.With("POST /v1/jobs").Observe(1500 * time.Microsecond)
	lat.With("POST /v1/jobs").Observe(2500 * time.Microsecond)
	return r
}

// TestPromGolden pins the exact exposition bytes: format 0.0.4, sorted
// families, cumulative buckets, sanitized names.
func TestPromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildPromRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_metrics.prom")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
	// Twice in a row must render identical bytes (map-order independence).
	var buf2 bytes.Buffer
	if err := buildPromRegistry().WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two renderings of identical registry state differ")
	}
}

// TestPromRoundTrip: everything WritePrometheus emits must come back
// through ParsePrometheusText, with types and key series intact.
func TestPromRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := buildPromRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, types, err := ParsePrometheusText(&buf)
	if err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
	if types["http_requests_total"] != "counter" {
		t.Errorf("http_requests_total type %q", types["http_requests_total"])
	}
	if types["http_request_duration_seconds"] != "histogram" {
		t.Errorf("duration type %q", types["http_request_duration_seconds"])
	}
	if types["service_jobs_done"] != "counter" {
		t.Errorf("sanitized dotted counter type %q", types["service_jobs_done"])
	}
	find := func(name string, labels map[string]string) (float64, bool) {
		for _, s := range samples {
			if s.Name != name {
				continue
			}
			ok := true
			for k, v := range labels {
				if s.Labels[k] != v {
					ok = false
					break
				}
			}
			if ok {
				return s.Value, true
			}
		}
		return 0, false
	}
	if v, ok := find("http_requests_total", map[string]string{"route": "POST /v1/jobs", "code": "2xx"}); !ok || v != 10 {
		t.Errorf("http_requests_total{POST,2xx} = %v, %v", v, ok)
	}
	if v, ok := find("http_request_duration_seconds_count", map[string]string{"route": "POST /v1/jobs"}); !ok || v != 2 {
		t.Errorf("duration count = %v, %v", v, ok)
	}
	if v, ok := find("http_request_duration_seconds_bucket", map[string]string{"route": "POST /v1/jobs", "le": "+Inf"}); !ok || v != 2 {
		t.Errorf("duration +Inf bucket = %v, %v", v, ok)
	}
	if v, ok := find("service_job_time_count", nil); !ok || v != 2 {
		t.Errorf("service_job_time_count = %v, %v", v, ok)
	}
}

// Histogram buckets must be cumulative and monotonically
// non-decreasing in le order, ending at the +Inf count == _count.
func TestPromBucketsCumulative(t *testing.T) {
	var buf bytes.Buffer
	if err := buildPromRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, _, err := ParsePrometheusText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Group bucket samples per (family, non-le labels) in emission order;
	// emission order is ascending le by construction.
	type state struct {
		last float64
		inf  float64
	}
	groups := map[string]*state{}
	counts := map[string]float64{}
	for _, s := range samples {
		if strings.HasSuffix(s.Name, "_count") {
			key := strings.TrimSuffix(s.Name, "_count") + flatLabels(s.Labels, "le")
			counts[key] = s.Value
			continue
		}
		if !strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		key := strings.TrimSuffix(s.Name, "_bucket") + flatLabels(s.Labels, "le")
		g, ok := groups[key]
		if !ok {
			g = &state{}
			groups[key] = g
		}
		if s.Value < g.last {
			t.Errorf("%s: bucket count %g below previous %g (not cumulative)", key, s.Value, g.last)
		}
		g.last = s.Value
		if s.Labels["le"] == "+Inf" {
			g.inf = s.Value
		}
	}
	if len(groups) == 0 {
		t.Fatal("no histogram buckets found")
	}
	for key, g := range groups {
		if g.inf != counts[key] {
			t.Errorf("%s: +Inf bucket %g != _count %g", key, g.inf, counts[key])
		}
	}
}

func flatLabels(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sortStrings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString("|" + k + "=" + labels[k])
	}
	return b.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_value_metric\n",
		"name{unterminated=\"x\n} 1\n",
		"name{le=} 1\n",
		"2bad_name 1\n",
		"name{l=\"v\"} notanumber\n",
		"# TYPE x sideways\n",
	} {
		if _, _, err := ParsePrometheusText(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed %q without error", bad)
		}
	}
	// Comments, HELP, blank lines and timestamps are all legal.
	ok := "# HELP x something\n# TYPE x counter\nx 5 1700000000\n\nx_total{a=\"b c\",d=\"e\\\"f\"} 1\n"
	samples, _, err := ParsePrometheusText(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("legal input rejected: %v", err)
	}
	if len(samples) != 2 || samples[1].Labels["d"] != `e"f` {
		t.Errorf("samples %+v", samples)
	}
}
