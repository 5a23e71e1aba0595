package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"strings"
	"time"

	"stdcelltune"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/service"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/stdcell"
)

// coldSampled is how many measured cold jobs an unpinned run recomputes
// in-process to check the served bytes.
const coldSampled = 2

// runSvcCold is the svc-cold workload: one closed-loop client submits
// headline jobs with fresh seeds, every one a cache miss. Set-up is the
// daemon boot plus warm-up jobs; the operation is one cold job, POST to
// terminal event.
func runSvcCold(ctx context.Context, e *env, c config, r *Report) error {
	warmups := make([]service.Spec, c.size.setupUnits)
	for k := range warmups {
		warmups[k] = c.size.jobSpec(c.seed, seedWarmup+k)
	}
	measured := func(i int) service.Spec { return c.size.jobSpec(c.seed, seedCold+i) }
	sched := append([]service.Spec(nil), warmups...)
	for i := 0; i < 256; i++ {
		sched = append(sched, measured(i))
	}
	r.ScheduleDigest = digestItems(sched)

	tl := newTraceLog()
	cal, err := e.startCalibrator(ctx)
	if err != nil {
		return err
	}
	defer cal.close()
	if err := cal.sample(); err != nil {
		return err
	}
	t0 := time.Now()
	d, err := e.startDaemon(ctx, 1)
	if err != nil {
		return err
	}
	defer d.Close()
	for k, spec := range warmups {
		run, err := d.runJob(ctx, spec)
		if err != nil {
			return fmt.Errorf("set-up job %d: %w", k, err)
		}
		if k == 0 { // the first unit includes the boot
			run.Posted = t0
		}
		r.SetupUnits = append(r.SetupUnits, run.Done.Sub(run.Posted).Seconds())
	}

	before, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	var lat []float64
	var runs []jobRun
	deadline := time.Now().Add(time.Duration(c.seconds) * time.Second)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if i > 0 {
			if err := cal.between(d.cmd.Process); err != nil {
				return err
			}
		}
		r.Attempted++
		run, err := d.runJob(ctx, measured(i))
		if err != nil {
			r.Failed++
			r.check(fmt.Sprintf("job-%d", i), false, "%v", err)
			if ctx.Err() != nil {
				break
			}
			continue
		}
		lat = append(lat, run.latencyMs())
		runs = append(runs, run)
		r.OutputDigests = append(r.OutputDigests, artifactDigest(run.View))
	}
	if len(runs) == 0 {
		return errors.New("no cold job completed")
	}
	after, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	if c.traced {
		setCounts(r, before, after, len(runs))
		if err := coldLayers(ctx, d, tl, r, runs); err != nil {
			return err
		}
	}
	verify := sample(rngFor("svc-cold/verify", c.seed), len(runs), coldSampled)
	served := make([]map[string][]byte, len(verify))
	for k, i := range verify {
		if served[k], err = d.artifacts(ctx, runs[i].View); err != nil {
			return err
		}
	}
	d.Close()
	if err := cal.sample(); err != nil {
		return err
	}
	setE2E(r, lat, runs[len(runs)-1].Done.Sub(runs[0].Posted), rss, cal)

	misses := 0
	for _, run := range runs {
		if run.View.Outcome == "miss" && len(run.View.Artifacts) == 7 {
			misses++
		}
	}
	r.check("cold-misses", misses == len(runs), "%d of %d jobs were cache misses with 7 artifacts", misses, len(runs))
	if err := checkPinned(r, c); err != nil {
		return err
	}
	if err := recomputeJobs(ctx, r, runs, verify, served); err != nil {
		return err
	}
	if !c.traced {
		return nil
	}
	if err := runProbes(ctx, e.scratch, c, r); err != nil {
		return err
	}
	return tl.write(c.trace)
}

// synthesisArtifacts are the artifacts of the pipeline's synthesis and
// statistical-timing stages; the others come from characterization and
// tuning.
var synthesisArtifacts = map[string]bool{
	service.ArtifactSynthesis: true, service.ArtifactNetlist: true, service.ArtifactVariation: true,
}

// recomputeJobs reruns the sampled jobs (runs[verify[k]], whose artifact
// bytes the daemon served as served[k]) in-process with service.Run. The
// served bytes must hash to the SHA-256 the job document declares, and
// the characterization and tuning artifacts must match the recomputed
// ones byte for byte. So must the synthesis artifacts, unless synthesis
// took another path: it is not a pure function of the spec for every
// seed (its legality repair picks a multi-output cell's output pin in
// map order), so two runs of one spec can end in different netlists.
// A served netlist that differs is checked on its own instead: timed and
// analysed again in-process, it must reproduce every figure of the
// served synthesis.json and variation.json.
func recomputeJobs(ctx context.Context, r *Report, runs []jobRun, verify []int, served []map[string][]byte) error {
	for k, i := range verify {
		view, got := runs[i].View, served[k]
		want, err := service.Run(ctx, view.Spec)
		if err != nil {
			return fmt.Errorf("recompute %s: %w", view.ID, err)
		}
		var bad []string
		if len(want) != len(view.Artifacts) {
			bad = append(bad, fmt.Sprintf("%d artifacts served, %d recomputed", len(view.Artifacts), len(want)))
		}
		resynthesized := false
		for _, a := range view.Artifacts {
			switch {
			case sha256Hex(got[a.Name]) != a.SHA256:
				bad = append(bad, a.Name+" does not hash to its declared SHA-256")
			case bytes.Equal(got[a.Name], want[a.Name]):
			case synthesisArtifacts[a.Name]:
				resynthesized = true
			default:
				bad = append(bad, a.Name+" differs")
			}
		}
		detail := fmt.Sprintf("in-process service.Run of seed %d reproduces the served artifacts", view.Spec.Seed)
		if resynthesized {
			mismatched, err := checkServedDesign(ctx, view.Spec, got)
			if err != nil {
				return fmt.Errorf("recompute %s: %w", view.ID, err)
			}
			bad = append(bad, mismatched...)
			detail = fmt.Sprintf("in-process service.Run of seed %d reproduces the characterization and tuning artifacts; "+
				"its synthesis took another path, and the served netlist, timed and analysed in-process, reproduces synthesis.json and variation.json", view.Spec.Seed)
		}
		if len(bad) > 0 {
			detail += ": " + strings.Join(bad, "; ")
		}
		r.check("recompute-"+view.ID, len(bad) == 0, "%s", detail)
	}
	return nil
}

// checkServedDesign times a served netlist under the spec's clock and
// analyses it statistically over a fresh characterization of the spec,
// in-process, and names every figure of the served synthesis.json and
// variation.json that the recomputation does not reproduce exactly.
func checkServedDesign(ctx context.Context, spec service.Spec, got map[string][]byte) ([]string, error) {
	spec = spec.Normalized()
	var sd struct {
		Area float64 `json:"area_um2"`
		WNS  float64 `json:"wns_ns"`
		TNS  float64 `json:"tns_ns"`
	}
	var vd struct {
		Mu       float64        `json:"design_mu_ns"`
		Sigma    float64        `json:"design_sigma_ns"`
		Worst    float64        `json:"worst_mu_plus_3sigma_ns"`
		Paths    int            `json:"paths"`
		MaxDepth int            `json:"max_depth"`
		Degraded map[string]int `json:"degraded_cells"`
	}
	if err := json.Unmarshal(got[service.ArtifactSynthesis], &sd); err != nil {
		return []string{fmt.Sprintf("%s: %v", service.ArtifactSynthesis, err)}, nil
	}
	if err := json.Unmarshal(got[service.ArtifactVariation], &vd); err != nil {
		return []string{fmt.Sprintf("%s: %v", service.ArtifactVariation, err)}, nil
	}
	cat := stdcell.NewCatalogue(stdcell.Typical) // every benchmark spec runs at the typical corner
	nl, err := netlist.ParseVerilog(string(got[service.ArtifactNetlist]), cat)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", service.ArtifactNetlist, err)}, nil
	}
	timing, err := sta.Analyze(nl, sta.DefaultConfig(spec.ClockNS))
	if err != nil {
		return nil, err
	}
	stat, err := stdcelltune.CharacterizeCtx(ctx, cat, stdcelltune.CharacterizeOptions{Instances: spec.Instances, Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	ds, err := stattime.Analyze(timing, stat, spec.Rho)
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, f := range []struct {
		name               string
		served, recomputed float64
	}{
		{"area_um2", sd.Area, nl.Area()},
		{"wns_ns", sd.WNS, timing.WNS()},
		{"tns_ns", sd.TNS, timing.TNS()},
		{"design_mu_ns", vd.Mu, ds.Design.Mu},
		{"design_sigma_ns", vd.Sigma, ds.Design.Sigma},
		{"worst_mu_plus_3sigma_ns", vd.Worst, ds.WorstMeanPlus3Sigma()},
		{"paths", float64(vd.Paths), float64(len(ds.Paths))},
		{"max_depth", float64(vd.MaxDepth), float64(ds.MaxDepth())},
	} {
		if f.served != f.recomputed {
			bad = append(bad, fmt.Sprintf("served %s %g, recomputed %g", f.name, f.served, f.recomputed))
		}
	}
	if !maps.Equal(vd.Degraded, ds.Degraded) {
		bad = append(bad, fmt.Sprintf("served degraded_cells %v, recomputed %v", vd.Degraded, ds.Degraded))
	}
	return bad, nil
}

// coldLayers splits each cold job's client latency over the layers it
// crossed, from the job document's timestamps and the job's own trace:
//
//	admit          POST sent -> job created (HTTP, validation, journal accept fsync)
//	queue_wait     created -> started
//	characterize, tune, synthesize, analyze-variation   the pipeline's stage spans
//	encode_persist the job span's self time (artifact encoding, cache persist)
//	terminal       finished -> terminal event seen (terminal journal fsync, event delivery)
//	unattributed   the rest of the client latency
//
// The table shows the median job; the run fails its accounting check
// when that job's unattributed time exceeds 5% of its latency.
func coldLayers(ctx context.Context, d *daemon, tl *traceLog, r *Report, runs []jobRun) error {
	var tables [][]LayerRow
	for _, run := range runs {
		v := run.View
		if v.Started == nil || v.Finished == nil {
			return fmt.Errorf("job %s has no start/finish times", v.ID)
		}
		data, err := d.get(ctx, "/v2/jobs/"+v.ID+"/trace")
		if err != nil {
			return err
		}
		spans, err := parseSpans(data)
		if err != nil {
			return fmt.Errorf("trace of %s: %w", v.ID, err)
		}
		tl.merge(spans, *v.Started)
		tl.add("cold job", "bench", 1, run.Posted, run.Done, map[string]any{"job": v.ID, "seed": v.Spec.Seed})

		stage := map[string]float64{}
		var svc []span
		for _, s := range spans {
			if s.Cat == "service" {
				svc = append(svc, s)
			}
		}
		self := selfTimes(svc)
		for k, s := range svc {
			if s.Name == "job" {
				stage["encode_persist"] += float64(self[k]) / 1000
			} else {
				stage[s.Name] += float64(s.Dur) / 1000
			}
		}
		lat := run.latencyMs()
		rows := []LayerRow{
			{Layer: "service.admit", Share: "service", Source: "client POST -> JobView.created", Ms: ms(v.Created.Sub(run.Posted))},
			{Layer: "service.queue_wait", Share: "service", Source: "JobView created -> started", Ms: ms(v.Started.Sub(v.Created))},
			{Layer: "service.characterize", Share: "characterize", Source: "job trace span", Ms: stage["characterize"]},
			{Layer: "service.tune", Share: "tune", Source: "job trace span", Ms: stage["tune"]},
			{Layer: "service.synthesize", Share: "synthesize", Source: "job trace span", Ms: stage["synthesize"]},
			{Layer: "service.analyze_variation", Share: "stattime", Source: "job trace span", Ms: stage["analyze-variation"]},
			{Layer: "service.encode_persist", Share: "service", Source: "job span self time", Ms: stage["encode_persist"]},
			{Layer: "service.terminal", Share: "service", Source: "JobView.finished -> done event seen", Ms: ms(run.Done.Sub(*v.Finished))},
		}
		sum := 0.0
		for _, row := range rows {
			sum += row.Ms
		}
		rows = append(rows, LayerRow{Layer: "service.unattributed", Share: "unattributed", Source: "client latency minus the layers above", Ms: lat - sum})
		for k := range rows {
			rows[k].Pct = 100 * rows[k].Ms / lat
		}
		tables = append(tables, rows)
	}
	lat := make([]float64, len(runs))
	for i, run := range runs {
		lat[i] = run.latencyMs()
	}
	med := medianIndex(lat)
	rows := tables[med]
	un := rows[len(rows)-1]
	r.check("trace-accounting", un.Pct <= 5 && un.Pct >= -5, "median job: layers + unattributed = %.3f ms client latency, unattributed %.2f%% (limit 5%%)", lat[med], un.Pct)
	setShares(r, "median job", rows)
	return nil
}
