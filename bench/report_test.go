package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func validReport() *Report {
	r := newReport("svc-cold", 1, 15, 0, false)
	r.ScheduleDigest = "sha256:00"
	r.Attempted, r.Failed = 3, 1
	r.Latency = summarize([]float64{10, 20})
	r.SetupUnits = []float64{0.5}
	r.RefMs = 40
	r.check("outputs", true, "ok")
	r.set("p50_ms", 10, "ms")
	r.finish()
	return r
}

// readReports loads a list written by writeReports.
func readReports(path string) ([]*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*Report
	err = json.Unmarshal(data, &rs)
	return rs, err
}

func TestReportRoundTrip(t *testing.T) {
	r := validReport()
	r.Classes = map[string]Summary{"query hit": summarize([]float64{1})}
	r.Layers = []LayerRow{{Layer: "service.admit", Share: "service", Source: "x", Ms: 1, Pct: 10}}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeReports(path, []*Report{r}); err != nil {
		t.Fatal(err)
	}
	got, err := readReports(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], r) {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", got[0], r)
	}
	if err := got[0].Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	for name, c := range map[string]struct {
		mutate func(*Report)
		want   string
	}{
		"samples":   {func(r *Report) { r.Failed = 0 }, "latency samples"},
		"monotone":  {func(r *Report) { r.Latency.Tail = r.Latency.P50 / 2 }, "not monotone"},
		"unit":      {func(r *Report) { r.set("x", 1, "") }, "no unit"},
		"attempted": {func(r *Report) { r.Attempted, r.Failed, r.Latency = 0, 0, Summary{} }, "attempted 0"},
		"checks":    {func(r *Report) { r.Checks = nil }, "no correctness checks"},
		"schedule":  {func(r *Report) { r.ScheduleDigest = "" }, "no schedule digest"},
		"reference": {func(r *Report) { r.RefMs = 0 }, "no reference kernel timing"},
	} {
		r := validReport()
		c.mutate(r)
		err := r.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want an error mentioning %q", name, err, c.want)
		}
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	r := validReport()
	if _, err := r.resultLine([]string{"p50_ms", "setup_s"}); err == nil {
		t.Error("resultLine accepted an unmeasured metric")
	}
	line, err := r.resultLine([]string{"p50_ms"})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(line, &doc); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	if len(keys) != 4 || doc["correct"] == nil || doc["attempted"] == nil || doc["failed"] == nil || doc["metrics"] == nil {
		t.Errorf("result keys %v, want correct, attempted, failed, metrics", keys)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the harness and the
// benchmark definition at the repository root in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(b.Workloads); !reflect.DeepEqual(got, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", got, workloadNames())
	}
	if got := names(b.EndToEnd); !reflect.DeepEqual(got, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", got, e2eMetrics)
	}
	if got := names(b.PerLayer); !reflect.DeepEqual(got, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", got, layerMetrics)
	}
}
