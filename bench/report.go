package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// SchemaReport identifies the report document one run writes with -out.
const SchemaReport = "stdcelltune-benchreport/1"

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Check is one correctness verdict on the program's outputs.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Host records where a report was measured.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
}

// LayerRow is one line of a traced run's layer table: the median
// operation's time in one layer, and that time's share of the median
// operation's latency. Share names the op.<share>_pct metric the row
// adds to.
type LayerRow struct {
	Layer  string  `json:"layer"`
	Share  string  `json:"share"`
	Source string  `json:"source"`
	Ms     float64 `json:"ms"`
	Pct    float64 `json:"pct"`
}

// Report is the full outcome of one workload run.
type Report struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	Procs    int    `json:"procs"` // GOMAXPROCS of the driven programs, 0 = all cores
	Host     Host   `json:"host"`

	// ScheduleDigest hashes the generated request list, so two runs can
	// be shown to have sent identical inputs.
	ScheduleDigest string `json:"schedule_digest"`
	// Attempted counts every operation started in the measured window;
	// Failed those that errored, were refused (429/503) or timed out.
	// Latency samples exist for exactly Attempted - Failed operations.
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Latency   Summary `json:"latency"`
	// Classes splits the latency by request class where a workload mixes
	// several (analyst, whatif).
	Classes map[string]Summary `json:"classes,omitempty"`
	// SetupUnits are the individual set-up times (s, wall) whose median
	// is wall.setup_s.
	SetupUnits []float64 `json:"setup_units_s"`
	// RefMs is the median time of the reference kernel during the run;
	// timings are reported scaled by refNominalMs / RefMs.
	RefMs float64 `json:"ref_ms"`
	// OutputDigests are per-operation output digests in request order,
	// compared against the pinned set for pinned seeds.
	OutputDigests []string `json:"output_digests,omitempty"`

	Correct bool              `json:"correct"`
	Checks  []Check           `json:"checks"`
	Metrics map[string]Metric `json:"metrics"`
	// LayerBasis names the operation the layer table splits, e.g.
	// "median job".
	LayerBasis string     `json:"layer_basis,omitempty"`
	Layers     []LayerRow `json:"layers,omitempty"`
}

func newReport(workload string, seed int64, seconds, procs int, traced bool) *Report {
	return &Report{
		Schema: SchemaReport, Workload: workload, Seed: seed, Seconds: seconds,
		Traced: traced, Procs: procs, Host: hostInfo(), Metrics: map[string]Metric{},
	}
}

func (r *Report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *Report) set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// finish derives Correct from the checks.
func (r *Report) finish() {
	r.Correct = len(r.Checks) > 0
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
}

// Validate checks the report's internal consistency: accounting that
// adds up, monotone percentiles, and a unit on every finite metric.
func (r *Report) Validate() error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if r.Schema != SchemaReport {
		bad("schema %q, want %q", r.Schema, SchemaReport)
	}
	if r.Attempted < 1 {
		bad("attempted %d, want >= 1", r.Attempted)
	}
	if r.Failed < 0 || r.Failed > r.Attempted {
		bad("failed %d outside [0, attempted %d]", r.Failed, r.Attempted)
	}
	if r.Latency.N != r.Attempted-r.Failed {
		bad("latency samples %d != attempted %d - failed %d", r.Latency.N, r.Attempted, r.Failed)
	}
	if l := r.Latency; l.N > 0 && !(l.P50 > 0 && l.P50 <= l.Tail && l.Tail <= l.Max) {
		bad("latency percentiles not monotone: p50 %g, tail %g, max %g", l.P50, l.Tail, l.Max)
	}
	if l := r.Latency; l.N > 0 && !(l.TailPct >= 50 && l.TailPct <= 100) {
		bad("tail percentile %g outside [50, 100]", l.TailPct)
	}
	if r.ScheduleDigest == "" {
		bad("no schedule digest")
	}
	if !(r.RefMs > 0) {
		bad("no reference kernel timing")
	}
	if len(r.Checks) == 0 {
		bad("no correctness checks")
	}
	for name, m := range r.Metrics {
		if m.Unit == "" {
			bad("metric %s has no unit", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			bad("metric %s is not finite", name)
		}
	}
	return errors.Join(errs...)
}

// writeReports stores reports as an indented JSON list.
func writeReports(path string, reports []*Report) error {
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultLine renders the one-line result the benchmark contract asks
// for: the correctness verdict, the accounting, and the named metrics.
func (r *Report) resultLine(names []string) ([]byte, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]Metric{}}
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = m
	}
	return json.Marshal(out)
}

// printTable writes the human-readable report: one row per metric, the
// checks, and the layer table of a traced run.
func (r *Report) printTable(w *os.File) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  traced %v  procs %d  (%s, nproc %d)\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Procs, r.Host.CPU, r.Host.NProc)
	l := r.Latency
	fmt.Fprintf(w, "  ops: attempted %d, failed %d; latency n=%d p50 %.3f ms, p%.1f %.3f ms, max %.3f ms\n",
		r.Attempted, r.Failed, l.N, l.P50, l.TailPct, l.Tail, l.Max)
	classes := make([]string, 0, len(r.Classes))
	for n := range r.Classes {
		classes = append(classes, n)
	}
	sort.Strings(classes)
	for _, n := range classes {
		c := r.Classes[n]
		fmt.Fprintf(w, "    class %-20s n=%d p50 %.3f ms, p%.1f %.3f ms, max %.3f ms\n", n, c.N, c.P50, c.TailPct, c.Tail, c.Max)
	}
	fmt.Fprintf(w, "  schedule %s\n", r.ScheduleDigest)
	fmt.Fprintf(w, "  reference kernel %.2f ms (nominal %.0f ms): timings below are wall x %.4f; wall.* are as measured\n",
		r.RefMs, refNominalMs, refNominalMs/r.RefMs)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-28s %s  %s\n", c.Name, verdict, c.Detail)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "  layer table (%s):\n", r.LayerBasis)
		for _, row := range r.Layers {
			fmt.Fprintf(w, "    %-28s %12.3f ms %7.2f%%  (%s)\n", row.Layer, row.Ms, row.Pct, row.Source)
		}
	}
}

func hostInfo() Host {
	h := Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
