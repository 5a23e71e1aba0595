package main

import "time"

// e2eMetrics are the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order. Each workload defines its own operation (a
// battery, a cold job, an analyst request, a what-if); README.md says
// what each metric means per workload.
var e2eMetrics = []string{"setup_s", "tail_ms", "ops_per_s", "peak_rss_mb"}

// layerMetrics are the per-layer metrics every traced run reports, in
// BENCHMARK.json order. The probe metrics time one call into a layer's
// public function in-process; the op.* shares split the workload's own
// operation by layer (0 where the workload bypasses the layer); the
// counts are per operation, read from the program's own surfaces. The
// reference kernel's time follows: comparing it between two sides of an
// A/B shows whether their calibration differed. p50_ms closes the list:
// the analyst's median request falls between its cache hits and its
// computed queries and moves too much from run to run to be gated, so it
// is recorded here, without a bound.
var layerMetrics = append(append(append(append([]string(nil), probeMetrics...), shareMetrics...), countMetrics...), "host.ref_kernel_ms", "p50_ms")

var probeMetrics = []string{
	"variation.instances_ms", "statlib.build_ms", "core.tune_ms", "synth.synthesize_ms",
	"sta.full_pass_ms", "sta.incremental_update_us", "stattime.analyze_ms",
	"cache.put_ms", "journal.append_sync_ms",
	"query.store_build_ms", "query.execute_ms", "query.substitute_ms",
}

var shareMetrics = []string{
	"op.characterize_pct", "op.synthesize_pct", "op.stattime_pct", "op.tune_pct",
	"op.service_pct", "op.query_pct", "op.unattributed_pct",
}

var countMetrics = []string{
	"sta.full_analyses_per_op", "sta.incremental_updates_per_op", "robust.pool_tasks_per_op",
	"journal.records_per_op", "cache.hit_ratio", "query.store_builds",
}

// setE2E fills the end-to-end metrics from the latencies (ms) of the
// completed operations, the load's wall time (first operation sent to
// last one answered), the set-up units and the program's peak resident
// set. Timings are scaled to the nominal host's speed by cal; the wall
// values stay in the report as wall.* metrics. Throughput excludes the
// calibration pauses from the load's wall time.
func setE2E(r *Report, lat []float64, load time.Duration, rssMB float64, cal *calibrator) {
	r.Latency = summarize(lat)
	loadS := (load - cal.paused).Seconds()
	k := cal.scale()
	r.RefMs = cal.refMs()
	r.set("host.ref_kernel_ms", r.RefMs, "ms")
	for _, t := range []struct {
		name, unit string
		wall       float64
	}{
		{"setup_s", "s", median(r.SetupUnits)},
		{"p50_ms", "ms", r.Latency.P50},
		{"tail_ms", "ms", r.Latency.Tail},
		{"ops_per_s", "1/s", float64(len(lat)) / loadS},
	} {
		v := t.wall * k
		if t.unit == "1/s" {
			v = t.wall / k
		}
		r.set(t.name, v, t.unit)
		r.set("wall."+t.name, t.wall, t.unit)
	}
	r.set("peak_rss_mb", rssMB, "MB")
}

// setShares records a traced run's layer table — of the operation named
// by basis — and the op.* shares each row adds to; layers a workload
// never enters report 0.
func setShares(r *Report, basis string, rows []LayerRow) {
	r.LayerBasis, r.Layers = basis, rows
	for _, n := range shareMetrics {
		r.set(n, 0, "%")
	}
	for _, row := range rows {
		name := "op." + row.Share + "_pct"
		r.set(name, r.Metrics[name].Value+row.Pct, "%")
	}
}

// setCounts records per-operation counter deltas between two /metrics
// scrapes (or the manifest of a battery). query.store_builds is 0 unless
// the analyst workload replaces it with its replay's count.
func setCounts(r *Report, before, after map[string]float64, ops int) {
	per := func(series string) float64 { return (after[series] - before[series]) / float64(ops) }
	r.set("sta.full_analyses_per_op", per("sta_full_analyses"), "count")
	r.set("sta.incremental_updates_per_op", per("sta_incremental_updates"), "count")
	r.set("robust.pool_tasks_per_op", per("robust_pool_tasks"), "count")
	r.set("journal.records_per_op", per("journal_records_appended"), "count")
	hits := after["service_cache_hits"] - before["service_cache_hits"]
	misses := after["service_cache_misses"] - before["service_cache_misses"]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	r.set("cache.hit_ratio", ratio, "ratio")
	r.set("query.store_builds", 0, "count")
}
