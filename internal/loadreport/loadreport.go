// Package loadreport defines the versioned JSON document the stcload
// harness emits — stdcelltune-load/1 — and its validation. The schema
// is API surface the same way the job document is: `obscheck
// -loadreport` gates CI on it (make load-smoke), and reports are read
// back by humans and tools alike.
package loadreport

import (
	"encoding/json"
	"fmt"
	"os"
)

// Schema is the versioned identifier of the load-report document.
const Schema = "stdcelltune-load/1"

// LatencyStats summarizes one latency population (all requests, warm
// hits, cold misses) in milliseconds, quantiles from the HDR histogram
// (<=1/32 relative error).
type LatencyStats struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p99_9_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// monotone reports whether the quantiles are ordered; an inversion
// means the histogram or the merge is broken, so Validate fails on it.
func (s LatencyStats) monotone() bool {
	return s.P50MS <= s.P90MS && s.P90MS <= s.P99MS && s.P99MS <= s.P999MS
}

// Report is the stdcelltune-load/1 document: one load-generation run
// against a live stcd, with the mix, the error breakdown and the
// latency percentiles per cache-outcome class.
type Report struct {
	Schema string `json:"schema"`
	Target string `json:"target"` // base URL of the daemon under load (comma-joined for a fleet)
	// Targets lists the individual daemons of a fleet run (stcload
	// -targets). Requests round-robin across them and the latency blocks
	// below are fleet aggregates: per-target HDR snapshots merged
	// bucketwise before quantiling, so the percentiles describe the
	// combined population rather than an average of averages.
	Targets     []string         `json:"targets,omitempty"`
	PerTarget   map[string]int64 `json:"per_target_requests,omitempty"`
	Mode        string           `json:"mode"`          // "open" (fixed-RPS) or "closed" (fixed-concurrency)
	RPS         float64          `json:"rps,omitempty"` // open-loop target rate
	Concurrency int              `json:"concurrency,omitempty"`
	DurationSec float64          `json:"duration_sec"`
	ColdFrac    float64          `json:"cold_fraction"`

	Requests  int64            `json:"requests"`
	Succeeded int64            `json:"succeeded"`
	Failed    int64            `json:"failed"`
	Rejected  map[string]int64 `json:"rejected,omitempty"` // HTTP status -> count (429/503 backpressure)

	ThroughputRPS float64 `json:"throughput_rps"`

	// Overall covers every completed request; Warm and Cold split by the
	// observed cache outcome (hit vs miss/shared). In open-loop mode all
	// latencies are measured from the scheduled send time, so queueing
	// delay from a stalled generator is charged to the service
	// (coordinated-omission-safe).
	Overall LatencyStats `json:"overall"`
	Warm    LatencyStats `json:"warm"`
	Cold    LatencyStats `json:"cold"`
}

// Validate checks the structural contract CI relies on: right schema,
// non-trivial sample counts in both cache classes, accounting that adds
// up, and monotone percentiles.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("loadreport: schema %q, want %q", r.Schema, Schema)
	}
	if r.Mode != "open" && r.Mode != "closed" {
		return fmt.Errorf("loadreport: mode %q, want open or closed", r.Mode)
	}
	if r.Target == "" {
		return fmt.Errorf("loadreport: empty target")
	}
	for i, tgt := range r.Targets {
		if tgt == "" {
			return fmt.Errorf("loadreport: targets[%d] is empty", i)
		}
	}
	if len(r.PerTarget) > 0 {
		if len(r.Targets) == 0 {
			return fmt.Errorf("loadreport: per_target_requests without targets")
		}
		var perTarget int64
		for tgt, n := range r.PerTarget {
			if n < 0 {
				return fmt.Errorf("loadreport: negative per-target count %d for %s", n, tgt)
			}
			perTarget += n
		}
		if perTarget != r.Requests {
			return fmt.Errorf("loadreport: per-target requests sum %d != requests %d", perTarget, r.Requests)
		}
	}
	if r.DurationSec <= 0 {
		return fmt.Errorf("loadreport: duration_sec %g not positive", r.DurationSec)
	}
	if r.ColdFrac < 0 || r.ColdFrac > 1 {
		return fmt.Errorf("loadreport: cold_fraction %g outside [0,1]", r.ColdFrac)
	}
	if r.Requests <= 0 {
		return fmt.Errorf("loadreport: requests %d, want > 0", r.Requests)
	}
	var rejected int64
	for status, n := range r.Rejected {
		if n < 0 {
			return fmt.Errorf("loadreport: negative rejection count %d for status %s", n, status)
		}
		rejected += n
	}
	if r.Succeeded+r.Failed+rejected != r.Requests {
		return fmt.Errorf("loadreport: succeeded %d + failed %d + rejected %d != requests %d",
			r.Succeeded, r.Failed, rejected, r.Requests)
	}
	if r.Succeeded <= 0 {
		return fmt.Errorf("loadreport: no succeeded requests")
	}
	if r.ThroughputRPS <= 0 {
		return fmt.Errorf("loadreport: throughput_rps %g not positive", r.ThroughputRPS)
	}
	if r.Warm.Count <= 0 {
		return fmt.Errorf("loadreport: no warm (cache-hit) samples")
	}
	if r.Cold.Count <= 0 {
		return fmt.Errorf("loadreport: no cold (cache-miss) samples")
	}
	if r.Overall.Count != r.Warm.Count+r.Cold.Count {
		return fmt.Errorf("loadreport: overall count %d != warm %d + cold %d",
			r.Overall.Count, r.Warm.Count, r.Cold.Count)
	}
	for _, c := range []struct {
		name  string
		stats LatencyStats
	}{{"overall", r.Overall}, {"warm", r.Warm}, {"cold", r.Cold}} {
		if !c.stats.monotone() {
			return fmt.Errorf("loadreport: %s percentiles not monotone: %+v", c.name, c.stats)
		}
		if c.stats.MaxMS < c.stats.P999MS {
			return fmt.Errorf("loadreport: %s max %g below p99.9 %g", c.name, c.stats.MaxMS, c.stats.P999MS)
		}
	}
	return nil
}

// Read loads and validates a report file.
func Read(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("loadreport: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Write serializes the report (indented, trailing newline) to path.
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
