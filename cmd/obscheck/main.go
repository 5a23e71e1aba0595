// Command obscheck validates the machine-readable artifacts the
// experiments flow produces: the Chrome trace-event JSON (-trace), the
// run manifest (-manifest) and the benchmark JSON (-bench). It is the
// assertion half of `make obs-smoke` and `make bench-check`: the flow
// runs, then obscheck fails the build if an artifact does not parse,
// misses expected content, or violates its versioned schema. The
// daemon's documents (jobs, artifact indexes, journals, shard sets,
// load reports, /metrics) are checked by cmd/stcd's end-to-end test.
//
// Usage:
//
//	obscheck -trace /tmp/trace.json -manifest /tmp/trace.manifest.json [-bench /tmp/b.json]
//	obscheck -bench BENCH_PR7.json -allocratio 1.1   # fail allocs_per_op/bytes_per_op regressions vs baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"stdcelltune/internal/obs"
	"stdcelltune/internal/perfstat"
)

// chromeTrace mirrors the exported subset of the trace-event format the
// checks need.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("obscheck: ")
	tracePath := flag.String("trace", "", "Chrome trace-event JSON to validate")
	manifestPath := flag.String("manifest", "", "run-manifest JSON to validate")
	benchPath := flag.String("bench", "", "benchmark JSON (stdcelltune-bench/1) to validate (optional)")
	allocRatio := flag.Float64("allocratio", 0, "with -bench: fail any benchmark whose allocs_per_op or bytes_per_op exceeds this ratio times its recorded baseline (0 disables)")
	flag.Parse()

	failed := false
	fail := func(format string, args ...any) {
		log.Printf("FAIL: "+format, args...)
		failed = true
	}

	if *tracePath != "" {
		data, err := os.ReadFile(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		var tr chromeTrace
		if err := json.Unmarshal(data, &tr); err != nil {
			log.Fatalf("%s: not valid trace JSON: %v", *tracePath, err)
		}
		spans := 0
		cats := map[string]int{}
		names := map[string]int{}
		for _, e := range tr.TraceEvents {
			if e.Ph != "X" {
				continue
			}
			spans++
			cats[e.Cat]++
			names[e.Name]++
			if e.TS < 0 || e.Dur < 0 {
				fail("%s: span %q has negative ts/dur (%d/%d)", *tracePath, e.Name, e.TS, e.Dur)
			}
		}
		if spans == 0 {
			fail("%s: no complete spans", *tracePath)
		}
		// The flow phases every experiments run passes through, the
		// pool batches under them, and at least one per-method tuning
		// unit must all have left spans.
		for _, want := range []string{"characterize", "statlib-fold", "rtlgen", "synth", "stattime"} {
			if names[want] == 0 {
				fail("%s: missing flow-phase span %q", *tracePath, want)
			}
		}
		if cats["pool"] == 0 {
			fail("%s: no pool batch spans", *tracePath)
		}
		if cats["tune"] == 0 {
			tuned := false
			for n := range names {
				tuned = tuned || strings.HasPrefix(n, "tune ")
			}
			if !tuned {
				fail("%s: no per-method tuning-unit spans", *tracePath)
			}
		}
		fmt.Printf("obscheck: trace ok: %d spans, %d names, categories %v\n", spans, len(names), cats)
	}

	if *manifestPath != "" {
		m, err := obs.ReadManifest(*manifestPath)
		if err != nil {
			log.Fatalf("manifest invalid: %v", err)
		}
		if m.WallSeconds <= 0 {
			fail("%s: wall_seconds %g not positive", *manifestPath, m.WallSeconds)
		}
		if len(m.Experiments) == 0 {
			fail("%s: no experiments recorded", *manifestPath)
		}
		// The incremental-STA counters must have landed in the metrics
		// snapshot: any run with a synthesis phase performs at least one
		// full analysis, and the dirty-cone histogram must agree with the
		// incremental-update count.
		metricNum := func(name string) (float64, bool) {
			v, ok := m.Metrics[name].(float64)
			return v, ok
		}
		full, okFull := metricNum("sta.full_analyses")
		inc, okInc := metricNum("sta.incremental_updates")
		switch {
		case !okFull || !okInc:
			fail("%s: metrics missing sta.full_analyses / sta.incremental_updates", *manifestPath)
		case full < 1:
			fail("%s: sta.full_analyses = %g, want >= 1", *manifestPath, full)
		}
		if cone, ok := m.Metrics["sta.dirty_cone"].(map[string]any); !ok {
			fail("%s: metrics missing sta.dirty_cone histogram", *manifestPath)
		} else if cnt, _ := cone["count"].(float64); okInc && cnt != inc {
			fail("%s: sta.dirty_cone count %g != sta.incremental_updates %g", *manifestPath, cnt, inc)
		}
		if ratio, ok := metricNum("sta.incremental_ratio"); ok && (ratio < 0 || ratio > 1) {
			fail("%s: sta.incremental_ratio %g outside [0,1]", *manifestPath, ratio)
		}
		if len(m.SynthOutcomes) == 0 {
			fail("%s: no synth_outcomes recorded", *manifestPath)
		}
		for _, o := range m.SynthOutcomes {
			if o.Key == "" || o.Iterations < 1 || o.FullAnalyses < 1 {
				fail("%s: synth outcome %+v malformed (empty key, or no iterations/analyses)", *manifestPath, o)
			}
		}
		// Every outcome row either ran its synthesis problem or shared
		// one another key ran, so the flow's memo counters must add up
		// to the rows.
		runs, okRuns := metricNum("exp.synth_runs")
		shared, okShared := metricNum("exp.synth_shared")
		switch {
		case !okRuns || !okShared:
			fail("%s: metrics missing exp.synth_runs / exp.synth_shared", *manifestPath)
		case runs+shared != float64(len(m.SynthOutcomes)):
			fail("%s: exp.synth_runs %g + exp.synth_shared %g != %d synth_outcomes",
				*manifestPath, runs, shared, len(m.SynthOutcomes))
		}
		fmt.Printf("obscheck: manifest ok: %s, %d experiments, %d failed, %d synth units, %.1fs wall\n",
			m.GoVersion, len(m.Experiments), len(m.Failed), len(m.SynthOutcomes), m.WallSeconds)
	}

	if *benchPath != "" {
		bf, err := perfstat.ReadBenchFile(*benchPath)
		if err != nil {
			log.Fatalf("bench JSON invalid: %v", err)
		}
		if bf.Schema != perfstat.Schema {
			fail("%s: schema %q, want %q", *benchPath, bf.Schema, perfstat.Schema)
		}
		if len(bf.Phases) == 0 {
			fail("%s: no phase timings recorded", *benchPath)
		}
		if *allocRatio > 0 {
			// Allocation-regression gate: allocs/op and bytes/op are
			// deterministic enough that drifting past ratio x the recorded
			// seed baseline means a real discipline regression, not noise.
			// Bytes catch what counts miss: a return to string building
			// or token slices moves bytes far more than allocations.
			// Metrics without a baseline (or at zero) are exempt.
			gated, over := 0, 0
			for _, name := range bf.Names() {
				r := bf.Benchmarks[name]
				for _, m := range []struct {
					metric        string
					cur, baseline float64
				}{
					{"allocs_per_op", r.AllocsPerOp, r.BaselineAllocsPerOp},
					{"bytes_per_op", r.BytesPerOp, r.BaselineBytesPerOp},
				} {
					if m.baseline <= 0 || m.cur <= 0 {
						continue
					}
					gated++
					if limit := *allocRatio * m.baseline; m.cur > limit {
						over++
						fail("%s: %s %s %.0f exceeds %.2fx baseline %.0f (limit %.0f)",
							*benchPath, name, m.metric, m.cur, *allocRatio, m.baseline, limit)
					}
				}
			}
			if over == 0 {
				fmt.Printf("obscheck: alloc gate ok: %d allocs/bytes metrics of %d benchmarks within %.2fx of baseline\n",
					gated, len(bf.Benchmarks), *allocRatio)
			}
		}
		fmt.Printf("obscheck: bench JSON ok: %d benchmarks, %d phases\n", len(bf.Benchmarks), len(bf.Phases))
	}

	if *tracePath == "" && *manifestPath == "" && *benchPath == "" {
		log.Fatal("nothing to check: pass -trace, -manifest and/or -bench")
	}
	if failed {
		os.Exit(1)
	}
}
