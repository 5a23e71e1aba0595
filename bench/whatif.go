package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"stdcelltune/internal/query"
	"stdcelltune/internal/service"
)

// cellsQuery lists the library's cells with their footprint family.
const cellsQuery = `{"from":"cells","where":[{"col":"quarantined","op":"eq","value":false}],"select":["cell","family"]}`

// whatIfRun is one what-if request as the client saw it.
type whatIfRun struct {
	req        whatIfReq
	start, end time.Time
	body       []byte
	serverMs   float64 // traced runs: the query route's time for this request
}

// runWhatIf is the whatif workload: one closed-loop client evaluates
// what-ifs on one primed headline library, cycles of batched
// substitutions of cells the design uses followed by one widen. The
// operation is one what-if.
func runWhatIf(ctx context.Context, e *env, c config, r *Report) error {
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
	var target service.JobView
	var used map[string]int
	var family map[string]string
	for k := 0; k < c.size.setupUnits; k++ {
		// The libraries are the same for every run seed: a widen's cost
		// depends on the design far more than on its factor, so a seeded
		// library would make the seed, not the code, the largest source of
		// spread. The seed orders the what-ifs and draws the factors.
		run, err := d.runJob(ctx, c.size.jobSpec(0, seedWhatIfLib+k))
		if err != nil {
			return fmt.Errorf("set-up library %d: %w", k, err)
		}
		u, f, err := census(ctx, d, run.View.Digest)
		if err != nil {
			return fmt.Errorf("set-up library %d: %w", k, err)
		}
		start := run.Posted
		if k == 0 { // the first unit includes the boot
			start, target, used, family = t0, run.View, u, f
		}
		r.SetupUnits = append(r.SetupUnits, time.Since(start).Seconds())
	}
	cycles := whatIfCycles(c.seconds)
	reqs := whatIfSchedule(c.seed, substitutePairs(used, family), cycles)
	if len(reqs) != cycles*(substitutesPerCycle+1) {
		return fmt.Errorf("library %s offers too few substitution pairs for %d cycles", target.Digest, cycles)
	}
	r.ScheduleDigest = digestItems(reqs)

	before, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	var lat []float64
	var runs []whatIfRun
	for i, req := range reqs {
		if i > 0 {
			if err := cal.between(d.cmd.Process); err != nil {
				return err
			}
		}
		var m0 map[string]float64
		if c.traced {
			if m0, err = d.metrics(ctx); err != nil {
				return err
			}
		}
		r.Attempted++
		run := whatIfRun{req: req, start: time.Now()}
		q, err := d.query(ctx, target.Digest, req.doc())
		run.end, run.body = time.Now(), q.Body
		if err != nil {
			r.Failed++
			r.check(fmt.Sprintf("whatif-%d", i), false, "%s: %v", req.Op, err)
			continue
		}
		if c.traced {
			m1, err := d.metrics(ctx)
			if err != nil {
				return err
			}
			run.serverMs = 1000 * (m1[routeQuery] - m0[routeQuery])
			tl.add(req.Op, "bench", 1, run.start, run.end, map[string]any{"from": req.From, "to": req.To, "factor": req.Factor})
		}
		lat = append(lat, ms(run.end.Sub(run.start)))
		runs = append(runs, run)
		r.OutputDigests = append(r.OutputDigests, sha256Hex(compact(run.body)))
	}
	if len(runs) == 0 {
		return fmt.Errorf("no what-if completed")
	}
	after, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	sets, err := fetchLibraries(ctx, d, []service.JobView{target})
	if err != nil {
		return err
	}
	d.Close()
	if err := cal.sample(); err != nil {
		return err
	}
	rp, err := newReplica(sets)
	if err != nil {
		return err
	}
	defer rp.close(ctx)
	setE2E(r, lat, runs[len(runs)-1].end.Sub(runs[0].start), rss, cal)
	classes := map[string][]float64{}
	for _, run := range runs {
		classes[run.req.Op] = append(classes[run.req.Op], ms(run.end.Sub(run.start)))
	}
	r.Classes = summarizeClasses(classes)
	if err := checkWhatIfs(ctx, rp, r, c, target, used, runs); err != nil {
		return err
	}
	if err := checkPinned(r, c); err != nil {
		return err
	}
	if !c.traced {
		return nil
	}
	setCounts(r, before, after, len(runs))
	whatIfLayers(r, runs)
	if err := runProbes(ctx, e.scratch, c, r); err != nil {
		return err
	}
	return tl.write(c.trace)
}

// census reads a library's cell usage (instances per cell) and each
// cell's footprint family through the query API; the first query also
// builds the library's query store.
func census(ctx context.Context, d *daemon, dig string) (used map[string]int, family map[string]string, err error) {
	var res query.Result
	q, err := d.query(ctx, dig, []byte(primeQuery))
	if err == nil {
		err = json.Unmarshal(q.Body, &res)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("census: %w", err)
	}
	used = map[string]int{}
	for _, row := range res.Rows {
		cell, _ := row[0].(string)
		n, _ := row[1].(float64)
		used[cell] = int(n)
	}
	res = query.Result{}
	q, err = d.query(ctx, dig, []byte(cellsQuery))
	if err == nil {
		err = json.Unmarshal(q.Body, &res)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("census: %w", err)
	}
	family = map[string]string{}
	for _, row := range res.Rows {
		cell, _ := row[0].(string)
		fam, _ := row[1].(string)
		family[cell] = fam
	}
	return used, family, nil
}

// checkWhatIfs checks every served what-if for internal consistency —
// one baseline for the library, result minus baseline equals the delta,
// a substitution changes exactly the instances of its source cell — and
// recomputes all substitutions and one sampled widen on rp.
func checkWhatIfs(ctx context.Context, rp *replica, r *Report, c config, target service.JobView, used map[string]int, runs []whatIfRun) error {
	var base *query.Metrics
	bad := 0
	for _, run := range runs {
		var wr query.WhatIfResult
		if err := json.Unmarshal(run.body, &wr); err != nil {
			bad++
			continue
		}
		if base == nil {
			base = &wr.Baseline
		}
		ok := wr.Baseline == *base && wr.Delta == sub(wr.Result, wr.Baseline) && wr.Op == run.req.Op
		switch wr.Op {
		case "substitute":
			ok = ok && wr.Changed == used[run.req.From] && wr.FullAnalyses >= 1 && wr.FullAnalyses <= 2
		case "widen":
			ok = ok && wr.FullAnalyses == 1 && wr.Delta.AreaUM2 <= 0
		}
		if !ok {
			bad++
		}
	}
	r.check("whatif-consistent", bad == 0, "%d of %d what-ifs share one baseline, report result - baseline as delta, and change what they name", len(runs)-bad, len(runs))

	var widens []int
	same, total := 0, 0
	for i, run := range runs {
		if run.req.Op == "widen" {
			widens = append(widens, i)
			continue
		}
		ok, err := sameWhatIf(ctx, rp, target.Digest, run)
		if err != nil {
			return err
		}
		total++
		if ok {
			same++
		}
	}
	for _, i := range sample(rngFor("whatif/verify", c.seed), len(widens), 1) {
		ok, err := sameWhatIf(ctx, rp, target.Digest, runs[widens[i]])
		if err != nil {
			return err
		}
		total++
		if ok {
			same++
		}
	}
	r.check("recompute-whatifs", same == total && total > 0, "%d of %d what-ifs (every substitute, one sampled widen) match an in-process replica", same, total)
	return nil
}

func sameWhatIf(ctx context.Context, rp *replica, dig string, run whatIfRun) (bool, error) {
	want, err := rp.body(ctx, dig, run.req.doc())
	if err != nil {
		return false, fmt.Errorf("recompute %s: %w", run.req.Op, err)
	}
	return bytes.Equal(want, compact(run.body)), nil
}

func sub(a, b query.Metrics) query.Metrics {
	return query.Metrics{
		AreaUM2: a.AreaUM2 - b.AreaUM2, WNSNS: a.WNSNS - b.WNSNS, TNSNS: a.TNSNS - b.TNSNS,
		MuNS: a.MuNS - b.MuNS, SigmaNS: a.SigmaNS - b.SigmaNS, MuPlus3SigmaNS: a.MuPlus3SigmaNS - b.MuPlus3SigmaNS,
	}
}

// whatIfLayers splits the median what-if's client latency into the
// query route's server time (a /metrics delta around that one request)
// and the rest. The run fails its accounting check when the rest
// exceeds 5% of the latency.
func whatIfLayers(r *Report, runs []whatIfRun) {
	lat := make([]float64, len(runs))
	for i, run := range runs {
		lat[i] = ms(run.end.Sub(run.start))
	}
	med := runs[medianIndex(lat)]
	m := ms(med.end.Sub(med.start))
	rows := []LayerRow{
		{Layer: "query.whatif (server)", Share: "query", Source: "/metrics query route duration around the request", Ms: med.serverMs},
		{Layer: "unattributed", Share: "unattributed", Source: "client latency minus server route time (HTTP, loopback, client)", Ms: m - med.serverMs},
	}
	for k := range rows {
		rows[k].Pct = 100 * rows[k].Ms / m
	}
	un := rows[len(rows)-1].Pct
	r.check("trace-accounting", un <= 5 && un >= -5, "median what-if (%s): layers + unattributed = %.3f ms client latency, unattributed %.2f%% (limit 5%%)", med.req.Op, m, un)
	setShares(r, "median what-if", rows)
}
