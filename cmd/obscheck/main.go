// Command obscheck validates the machine-readable artifacts the flow
// produces: the Chrome trace-event JSON (-trace), the run manifest
// (-manifest), the benchmark JSON (-bench), the tuning daemon's API
// documents (-apijob, -apiartifacts), the daemon's durable job
// journal (-journal), a retained cluster shard set (-shard), the
// stcload latency report (-loadreport), a scraped Prometheus
// exposition (-metrics) and the API spec's route inventory (-apispec).
// It is the assertion half of `make obs-smoke`, `make serve-smoke`,
// `make crash-smoke`, `make load-smoke`, `make cluster-smoke` and
// `make query-smoke`: the smoke targets run the pipeline (batch or
// served), then obscheck fails the build if an artifact does not
// parse, misses expected content, or violates its versioned schema.
//
// -apispec parses the fenced ```routes blocks of docs/API.md and
// requires set equality, in both directions, with the route table the
// daemon compiles its mux from (service.Routes()) — the documented
// surface and the served surface cannot drift apart.
//
// -shard validates the stdcelltune-shard/2 document GET
// /v1/cluster/shards/{digest} returns: fixed assembly order (shard k at
// position k), exact contiguous tiling of [0, instances), every
// shard's instance count agreeing with the set's, one library and one
// common row width across the set, and each shard's row bytes holding
// exactly Hi-Lo rows of that width with a SHA-256 on record — the
// invariants that prove no shard was lost or double-counted, lease
// bounces and steals included.
//
// Usage:
//
//	obscheck -trace /tmp/trace.json -manifest /tmp/trace.manifest.json [-bench /tmp/b.json]
//	obscheck -bench BENCH_PR7.json -allocratio 1.1   # fail allocs_per_op/bytes_per_op regressions vs baseline
//	obscheck -apijob /tmp/job.json -apiartifacts /tmp/index.json
//	obscheck -journal /var/lib/stcd/jobs.wal
//	obscheck -shard /tmp/shards.json
//	obscheck -loadreport /tmp/load.json -metrics /tmp/metrics.prom
//	obscheck -apispec docs/API.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"stdcelltune/internal/loadreport"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/perfstat"
	"stdcelltune/internal/service"
	"stdcelltune/internal/service/journal"
	"stdcelltune/internal/service/shard"
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
	apiJobPath := flag.String("apijob", "", "stcd job document (stdcelltune-job/1) to validate")
	apiArtifactsPath := flag.String("apiartifacts", "", "stcd artifact index JSON to validate")
	journalPath := flag.String("journal", "", "stcd job journal (stdcelltune-journal/1) to validate")
	shardPath := flag.String("shard", "", "retained cluster shard set (stdcelltune-shard/2) to validate")
	loadPath := flag.String("loadreport", "", "stcload latency report (stdcelltune-load/1) to validate")
	metricsPath := flag.String("metrics", "", "Prometheus text exposition scrape to validate (expects stcd's RED series)")
	apiSpecPath := flag.String("apispec", "", "API spec markdown (docs/API.md) to cross-check against the daemon's served route table")
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
		fmt.Printf("obscheck: trace ok: %d spans, %d names, categories %v\n", spans, len(names), keys(cats))
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

	if *apiJobPath != "" {
		data, err := os.ReadFile(*apiJobPath)
		if err != nil {
			log.Fatal(err)
		}
		var j service.JobView
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&j); err != nil {
			log.Fatalf("%s: not a job document: %v", *apiJobPath, err)
		}
		if j.Schema != service.SchemaJob {
			fail("%s: schema %q, want %q", *apiJobPath, j.Schema, service.SchemaJob)
		}
		if j.ID == "" {
			fail("%s: empty job id", *apiJobPath)
		}
		if !strings.HasPrefix(j.Digest, "sha256:") || len(j.Digest) != len("sha256:")+64 {
			fail("%s: malformed spec digest %q", *apiJobPath, j.Digest)
		}
		if err := j.Spec.Validate(); err != nil {
			fail("%s: embedded spec invalid: %v", *apiJobPath, err)
		}
		if got := j.Spec.Digest(); got != j.Digest {
			fail("%s: digest %s does not match embedded spec (%s)", *apiJobPath, j.Digest, got)
		}
		if j.Status != service.StatusDone {
			fail("%s: status %q, want done", *apiJobPath, j.Status)
		}
		if j.Outcome != "hit" && j.Outcome != "miss" && j.Outcome != "shared" && j.Outcome != "peer" {
			fail("%s: cache outcome %q", *apiJobPath, j.Outcome)
		}
		have := map[string]bool{}
		for _, a := range j.Artifacts {
			have[a.Name] = true
			if len(a.SHA256) != 64 || a.Size <= 0 {
				fail("%s: artifact %s malformed (sha %q, size %d)", *apiJobPath, a.Name, a.SHA256, a.Size)
			}
		}
		for _, want := range []string{
			service.ArtifactSpec, service.ArtifactStatLib, service.ArtifactWindows,
			service.ArtifactTuning, service.ArtifactSynthesis, service.ArtifactVariation,
		} {
			if !have[want] {
				fail("%s: missing artifact %s", *apiJobPath, want)
			}
		}
		fmt.Printf("obscheck: job ok: %s %s outcome=%s, %d artifacts\n", j.ID, j.Status, j.Outcome, len(j.Artifacts))
	}

	if *apiArtifactsPath != "" {
		data, err := os.ReadFile(*apiArtifactsPath)
		if err != nil {
			log.Fatal(err)
		}
		var idx struct {
			Digest    string                 `json:"digest"`
			Artifacts []service.ArtifactView `json:"artifacts"`
		}
		if err := json.Unmarshal(data, &idx); err != nil {
			log.Fatalf("%s: not an artifact index: %v", *apiArtifactsPath, err)
		}
		if !strings.HasPrefix(idx.Digest, "sha256:") {
			fail("%s: malformed digest %q", *apiArtifactsPath, idx.Digest)
		}
		if len(idx.Artifacts) == 0 {
			fail("%s: empty artifact index", *apiArtifactsPath)
		}
		for _, a := range idx.Artifacts {
			if a.Name == "" || len(a.SHA256) != 64 || a.Size <= 0 {
				fail("%s: artifact %+v malformed", *apiArtifactsPath, a)
			}
		}
		fmt.Printf("obscheck: artifact index ok: %s, %d artifacts\n", idx.Digest, len(idx.Artifacts))
	}

	if *journalPath != "" {
		data, err := os.ReadFile(*journalPath)
		if err != nil {
			log.Fatal(err)
		}
		recs, valid, rerr := journal.Replay(data)
		if len(data) > 0 && valid == 0 {
			fail("%s: no valid records in a %d-byte journal: %v", *journalPath, len(data), rerr)
		} else if rerr != nil {
			// A torn tail is what crashes leave behind; recovery truncates
			// it. Report, but pass.
			log.Printf("warn: %s: torn tail after %d valid bytes (%d dangling): %v",
				*journalPath, valid, int64(len(data))-valid, rerr)
		}
		var lastSeq uint64
		seen := map[string]journal.State{}
		for i, r := range recs {
			if r.Schema != journal.Schema {
				fail("%s: record %d schema %q, want %q", *journalPath, i, r.Schema, journal.Schema)
			}
			if r.Seq <= lastSeq {
				fail("%s: record %d seq %d not strictly increasing (prev %d)", *journalPath, i, r.Seq, lastSeq)
			}
			lastSeq = r.Seq
			if !r.State.Valid() {
				fail("%s: record %d (%s) has unknown state %q", *journalPath, i, r.Job, r.State)
			}
			if r.Job == "" {
				fail("%s: record %d has no job id", *journalPath, i)
			}
			prev, ok := seen[r.Job]
			switch {
			case !ok && r.State != journal.StateAccepted:
				fail("%s: job %s first appears as %q, want accepted first", *journalPath, r.Job, r.State)
			case ok && prev.Terminal():
				fail("%s: job %s transitions %q -> %q after a terminal state", *journalPath, r.Job, prev, r.State)
			case r.State == journal.StateAccepted && len(r.Spec) == 0:
				fail("%s: job %s accepted without a spec", *journalPath, r.Job)
			}
			seen[r.Job] = r.State
		}
		terminal := 0
		for _, st := range seen {
			if st.Terminal() {
				terminal++
			}
		}
		fmt.Printf("obscheck: journal ok: %d records, %d jobs (%d terminal, %d pending), %d valid bytes\n",
			len(recs), len(seen), terminal, len(journal.Pending(recs)), valid)
	}

	if *shardPath != "" {
		data, err := os.ReadFile(*shardPath)
		if err != nil {
			log.Fatal(err)
		}
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.DisallowUnknownFields()
		var set shard.ShardSet
		if err := dec.Decode(&set); err != nil {
			log.Fatalf("%s: not a shard set: %v", *shardPath, err)
		}
		if set.Schema != shard.Schema {
			fail("%s: schema %q, want %q", *shardPath, set.Schema, shard.Schema)
		}
		if set.Instances <= 0 {
			fail("%s: instances %d not positive", *shardPath, set.Instances)
		}
		if len(set.Shards) == 0 {
			log.Fatalf("%s: empty shard set", *shardPath)
		}
		// The retained set must be in the fixed assembly order (index k at
		// position k), tile [0, Instances) exactly, agree with the
		// container and with its first shard on every global fact, and
		// account for exactly Hi-Lo rows per shard — what Assemble
		// enforces before a single row reaches the fold.
		first := set.Shards[0]
		next := 0
		for i, p := range set.Shards {
			switch {
			case p.Schema != shard.Schema:
				fail("%s: shard %d schema %q, want %q", *shardPath, i, p.Schema, shard.Schema)
			case p.Index != i:
				fail("%s: shard at position %d has index %d — retained order is the fixed assembly order", *shardPath, i, p.Index)
			case p.Shards != len(set.Shards):
				fail("%s: shard %d claims %d shards, set has %d", *shardPath, i, p.Shards, len(set.Shards))
			case p.N != set.Instances:
				fail("%s: shard %d has N=%d, set says %d", *shardPath, i, p.N, set.Instances)
			case p.Library != first.Library:
				fail("%s: shard %d is for library %q, shard 0 for %q", *shardPath, i, p.Library, first.Library)
			case p.Width <= 0 || p.Width != first.Width:
				fail("%s: shard %d rows are %d wide, shard 0's %d", *shardPath, i, p.Width, first.Width)
			case p.Lo != next || p.Hi <= p.Lo:
				fail("%s: shard %d range [%d,%d) does not continue the tiling at %d", *shardPath, i, p.Lo, p.Hi, next)
			case p.RowsBytes != (p.Hi-p.Lo)*p.Width*8:
				fail("%s: shard %d has %d row bytes, want %d rows of %d entries", *shardPath, i, p.RowsBytes, p.Hi-p.Lo, p.Width)
			case len(p.RowsSHA256) != 64 || strings.Trim(p.RowsSHA256, "0123456789abcdef") != "":
				fail("%s: shard %d row digest %q is not a SHA-256", *shardPath, i, p.RowsSHA256)
			}
			next = p.Hi
		}
		if next != set.Instances {
			fail("%s: shards end at %d, want %d", *shardPath, next, set.Instances)
		}
		fmt.Printf("obscheck: shard set ok: %s, %d instances in %d shards of %d-entry rows (%s)\n",
			set.Group, set.Instances, len(set.Shards), first.Width, first.Library)
	}

	if *loadPath != "" {
		rep, err := loadreport.Read(*loadPath)
		if err != nil {
			log.Fatalf("load report invalid: %v", err)
		}
		// Read already ran Validate (schema, non-zero warm and cold sample
		// counts, accounting, monotone percentiles); what's left is the
		// cross-population sanity CI cares about.
		if rep.Warm.P50MS > rep.Cold.P99MS {
			fail("%s: warm p50 %.2fms above cold p99 %.2fms — cache hits slower than misses?",
				*loadPath, rep.Warm.P50MS, rep.Cold.P99MS)
		}
		fmt.Printf("obscheck: load report ok: %s %d req @ %.1f rps, warm p50 %.1fms, cold p99 %.1fms\n",
			rep.Mode, rep.Requests, rep.ThroughputRPS, rep.Warm.P50MS, rep.Cold.P99MS)
	}

	if *metricsPath != "" {
		f, err := os.Open(*metricsPath)
		if err != nil {
			log.Fatal(err)
		}
		samples, types, perr := obs.ParsePrometheusText(f)
		f.Close()
		if perr != nil {
			log.Fatalf("%s: not Prometheus text format: %v", *metricsPath, perr)
		}
		if types["http_requests_total"] != "counter" {
			fail("%s: http_requests_total not declared a counter (types: %v)", *metricsPath, types)
		}
		if types["http_request_duration_seconds"] != "histogram" {
			fail("%s: http_request_duration_seconds not declared a histogram", *metricsPath)
		}
		routes := map[string]bool{}
		var infBuckets, inFlight int
		for _, s := range samples {
			if s.Name == "http_requests_total" {
				routes[s.Labels["route"]] = true
			}
			if s.Name == "http_request_duration_seconds_bucket" && s.Labels["le"] == "+Inf" {
				infBuckets++
			}
			if s.Name == "http_in_flight_requests" {
				inFlight++
			}
		}
		for _, want := range []string{"POST /v1/jobs", "GET /v1/jobs/{id}"} {
			if !routes[want] {
				fail("%s: no http_requests_total series for route %q (have %v)", *metricsPath, want, routes)
			}
		}
		if infBuckets == 0 {
			fail("%s: no +Inf latency buckets", *metricsPath)
		}
		if inFlight == 0 {
			fail("%s: no http_in_flight_requests series", *metricsPath)
		}
		// The artifact cache's residency series: the byte budget is only
		// observable through them, so losing one must fail the smoke.
		for _, want := range []struct{ name, typ string }{
			{"cache_resident_bytes", "gauge"}, {"cache_disk_reads", "counter"},
		} {
			if types[want.name] != want.typ || !hasSample(samples, want.name) {
				fail("%s: no %s %s series", *metricsPath, want.name, want.typ)
			}
		}
		fmt.Printf("obscheck: metrics ok: %d samples, %d routes, %d latency families\n",
			len(samples), len(routes), infBuckets)
	}

	if *apiSpecPath != "" {
		data, err := os.ReadFile(*apiSpecPath)
		if err != nil {
			log.Fatal(err)
		}
		// The spec declares its routes in fenced ```routes blocks, one
		// "METHOD /path" per line, " [cluster]"-suffixed for
		// coordinator-only routes. The check is set equality in both
		// directions against the daemon's compiled route table: a route
		// served but not documented fails, and a route documented but not
		// served fails. The spec cannot drift from the code.
		documented := map[string]bool{}
		inBlock := false
		for ln, line := range strings.Split(string(data), "\n") {
			trimmed := strings.TrimSpace(line)
			switch {
			case trimmed == "```routes":
				inBlock = true
			case trimmed == "```":
				inBlock = false
			case inBlock && trimmed != "":
				key := strings.TrimSuffix(trimmed, " [cluster]")
				if parts := strings.Fields(key); len(parts) != 2 || !strings.HasPrefix(parts[1], "/") {
					fail("%s:%d: malformed route line %q (want \"METHOD /path\")", *apiSpecPath, ln+1, trimmed)
					continue
				}
				if documented[trimmed] {
					fail("%s:%d: duplicate route %q", *apiSpecPath, ln+1, trimmed)
				}
				documented[trimmed] = true
			}
		}
		served := map[string]bool{}
		for _, rt := range service.Routes() {
			key := rt.Pattern
			if rt.Cluster {
				key += " [cluster]"
			}
			served[key] = true
			if !documented[key] {
				fail("%s: served route %q is not documented", *apiSpecPath, key)
			}
		}
		for key := range documented {
			if !served[key] {
				fail("%s: documented route %q is not served by the daemon", *apiSpecPath, key)
			}
		}
		if len(documented) == 0 {
			fail("%s: no ```routes blocks found", *apiSpecPath)
		}
		if !failed {
			fmt.Printf("obscheck: API spec ok: %d routes documented, %d served, in sync\n", len(documented), len(served))
		}
	}

	if *tracePath == "" && *manifestPath == "" && *benchPath == "" && *apiJobPath == "" && *apiArtifactsPath == "" && *journalPath == "" && *shardPath == "" && *loadPath == "" && *metricsPath == "" && *apiSpecPath == "" {
		log.Fatal("nothing to check: pass -trace, -manifest, -bench, -apijob, -apiartifacts, -journal, -shard, -loadreport, -metrics and/or -apispec")
	}
	if failed {
		os.Exit(1)
	}
}

func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// Small fixed sets; simple insertion sort keeps the output stable.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// hasSample reports whether the scrape has a sample of the named series.
func hasSample(samples []obs.PromSample, name string) bool {
	for _, s := range samples {
		if s.Name == name {
			return true
		}
	}
	return false
}
