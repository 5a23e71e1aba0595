package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"stdcelltune/internal/query"
	"stdcelltune/internal/service"
	"stdcelltune/internal/service/cache"
)

const (
	// analystClients is the analyst's closed-loop client count: one per
	// CPU of the host the benchmark was sized on.
	analystClients = 2
	// analystSampled is how many distinct queries a run recomputes
	// in-process to check the served bodies.
	analystSampled = 16
	// primeQuery builds a library's query store during set-up.
	primeQuery = `{"from":"instances","group_by":["cell"],"aggregate":[{"op":"count"}]}`
)

// Series names of the daemon's per-route request durations.
const (
	routeQuery     = `http_request_duration_seconds_sum{route="POST /v2/libraries/{digest}/query"}`
	routeJobPost   = `http_request_duration_seconds_sum{route="POST /v2/jobs"}`
	routeJobEvents = `http_request_duration_seconds_sum{route="GET /v2/jobs/{id}/events"}`
)

// analystResult is one analyst request as its client saw it.
type analystResult struct {
	req        analystReq
	client     int
	start, end time.Time
	q          queryRun
	job        jobRun
	err        error
}

// runAnalyst is the analyst workload: analystClients closed-loop clients
// take their requests, in turn, from one seeded sequence over a working
// set of headline libraries primed during set-up — table queries, about
// half repeating an earlier one, and warm resubmits of a library's
// spec. The operation is one request.
func runAnalyst(ctx context.Context, e *env, c config, r *Report) error {
	n := analystLibs
	specs := make([]service.Spec, n)
	for l := range specs {
		specs[l] = c.size.jobSpec(c.seed, seedAnalystLib+l)
	}
	r.ScheduleDigest = digestItems([]any{specs, analystPrefix(c.seed, n, 4096)})

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
	d, err := e.startDaemon(ctx, analystClients)
	if err != nil {
		return err
	}
	defer d.Close()
	libs := make([]service.JobView, n)
	for l, spec := range specs {
		run, err := d.runJob(ctx, spec)
		if err != nil {
			return fmt.Errorf("set-up library %d: %w", l, err)
		}
		if _, err := d.query(ctx, run.View.Digest, []byte(primeQuery)); err != nil {
			return fmt.Errorf("set-up library %d: %w", l, err)
		}
		start := run.Posted
		if l == 0 { // the first unit includes the boot
			start = t0
		}
		r.SetupUnits = append(r.SetupUnits, time.Since(start).Seconds())
		libs[l] = run.View
	}

	before, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	results, err := driveAnalyst(ctx, d, cal, c, specs, libs)
	if err != nil {
		return err
	}
	after, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	sets, err := fetchLibraries(ctx, d, libs)
	if err != nil {
		return err
	}
	d.Close()
	if err := cal.sample(); err != nil {
		return err
	}

	var lat []float64
	var first, last time.Time
	failures := map[string]int{}
	classes := map[string][]float64{}
	for _, res := range results {
		r.Attempted++
		if res.err != nil {
			r.Failed++
			failures[res.err.Error()]++
			continue
		}
		l := ms(res.end.Sub(res.start))
		lat = append(lat, l)
		if first.IsZero() || res.start.Before(first) {
			first = res.start
		}
		if res.end.After(last) {
			last = res.end
		}
		class := "warm resubmit"
		if res.req.Query != "" {
			class = "query " + res.q.Cache
		}
		classes[class] = append(classes[class], l)
		if c.traced {
			tl.add(requestName(res.req), "bench", res.client, res.start, res.end, map[string]any{"lib": res.req.Lib})
		}
	}
	for msg, k := range failures {
		r.check("request-error", false, "%d requests: %s", k, msg)
	}
	if len(lat) == 0 {
		return errors.New("no analyst request completed")
	}
	setE2E(r, lat, last.Sub(first), rss, cal)
	r.Classes = summarizeClasses(classes)
	checkAnalystOutputs(r, results, libs)
	if err := recomputeQueries(ctx, sets, r, c, results, libs); err != nil {
		return err
	}
	if !c.traced {
		return nil
	}
	setCounts(r, before, after, len(lat))
	analystLayers(r, results, before, after)
	builds, err := replayStoreBuilds(ctx, sets, c, libs)
	if err != nil {
		return err
	}
	r.set("query.store_builds", float64(builds), "count")
	if err := runProbes(ctx, e.scratch, c, r); err != nil {
		return err
	}
	return tl.write(c.trace)
}

// driveAnalyst runs the measured window: each client takes the next
// request of the shared sequence, sends it, and waits for the answer
// before taking another. Once per calibrationGap the calibrator holds
// the gate: it waits for the requests in flight, samples with the daemon
// stopped, and lets the clients go on. Results are in sequence order.
func driveAnalyst(ctx context.Context, d *daemon, cal *calibrator, c config, specs []service.Spec, libs []service.JobView) ([]analystResult, error) {
	sched := newAnalystSched(c.seed, len(libs))
	var mu sync.Mutex // guards sched and results
	var results []analystResult
	var gate sync.RWMutex // clients hold it shared for a request, the calibrator exclusively
	deadline := time.Now().Add(time.Duration(c.seconds) * time.Second)

	stop := make(chan struct{})
	calErr := make(chan error, 1)
	go func() {
		tick := time.NewTicker(calibrationGap)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				calErr <- nil
				return
			case <-tick.C:
				if !time.Now().Before(deadline) {
					continue // the clients are finishing their last requests
				}
				gate.Lock()
				err := cal.between(d.cmd.Process)
				gate.Unlock()
				if err != nil {
					calErr <- err
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for k := 1; k <= analystClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				mu.Lock()
				i := len(results)
				res := analystResult{req: sched.next(), client: k}
				results = append(results, res)
				mu.Unlock()
				gate.RLock()
				res.start = time.Now()
				if res.req.Query == "" {
					res.job, res.err = d.runJob(ctx, specs[res.req.Lib])
				} else {
					res.q, res.err = d.query(ctx, libs[res.req.Lib].Digest, []byte(res.req.Query))
				}
				res.end = time.Now()
				gate.RUnlock()
				mu.Lock()
				results[i] = res
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	return results, <-calErr
}

func requestName(req analystReq) string {
	if req.Query == "" {
		return "warm resubmit"
	}
	return "query"
}

// checkAnalystOutputs checks what needs no recomputation: every repeat
// of a query is answered with the bytes of its first answer, and every
// warm resubmit is a cache hit on the primed artifact set.
func checkAnalystOutputs(r *Report, results []analystResult, libs []service.JobView) {
	first := map[string]string{}
	repeats, differ, hits, warm := 0, 0, 0, 0
	for _, res := range results {
		if res.err != nil {
			continue
		}
		if res.req.Query == "" {
			warm++
			if res.job.View.Outcome == "hit" && artifactDigest(res.job.View) == artifactDigest(libs[res.req.Lib]) {
				hits++
			}
			continue
		}
		key := fmt.Sprintf("%d %s", res.req.Lib, res.req.Query)
		sum := sha256Hex(res.q.Body)
		if prev, ok := first[key]; ok {
			repeats++
			if prev != sum {
				differ++
			}
		} else {
			first[key] = sum
		}
	}
	r.check("repeat-identical", differ == 0, "%d of %d repeated queries answered byte-identically", repeats-differ, repeats)
	r.check("warm-hits", hits == warm, "%d of %d warm resubmits were cache hits on the primed artifacts", hits, warm)
}

// fetchLibraries copies the libraries' artifact sets out of the daemon,
// keyed by digest.
func fetchLibraries(ctx context.Context, d *daemon, libs []service.JobView) (map[string]map[string][]byte, error) {
	sets := map[string]map[string][]byte{}
	for _, v := range libs {
		blobs, err := d.artifacts(ctx, v)
		if err != nil {
			return nil, err
		}
		sets[v.Digest] = blobs
	}
	return sets, nil
}

// replica is an in-process manager over copies of the daemon's
// libraries: the reference the served query bodies are compared with.
type replica struct {
	m *service.Manager
}

func newReplica(sets map[string]map[string][]byte) (*replica, error) {
	store, err := cache.New("")
	if err != nil {
		return nil, err
	}
	for dig, blobs := range sets {
		if _, err := store.Put(dig, blobs); err != nil {
			return nil, err
		}
	}
	return &replica{m: service.NewManager(store, service.ManagerOptions{})}, nil
}

// close stops the replica's job worker; no job ever ran on it, so the
// drain cannot time out.
func (rp *replica) close(ctx context.Context) { _ = rp.m.Drain(ctx) }

// body renders a query's answer exactly as the daemon encodes it,
// without the whitespace of its indentation.
func (rp *replica) body(ctx context.Context, dig string, doc []byte) ([]byte, error) {
	res, _, err := rp.m.ExecuteQuery(ctx, dig, doc)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

func compact(body []byte) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, body); err != nil {
		return body
	}
	return b.Bytes()
}

// recomputeQueries answers sampled distinct queries in-process and
// compares them with the served bodies.
func recomputeQueries(ctx context.Context, sets map[string]map[string][]byte, r *Report, c config, results []analystResult, libs []service.JobView) error {
	var distinct []analystResult
	seen := map[string]bool{}
	for _, res := range results {
		key := fmt.Sprintf("%d %s", res.req.Lib, res.req.Query)
		if res.err == nil && res.req.Query != "" && !seen[key] {
			seen[key] = true
			distinct = append(distinct, res)
		}
	}
	rp, err := newReplica(sets)
	if err != nil {
		return err
	}
	defer rp.close(ctx)
	rng := rngFor("analyst/verify", c.seed)
	same, total := 0, 0
	for _, i := range sample(rng, len(distinct), analystSampled) {
		res := distinct[i]
		want, err := rp.body(ctx, libs[res.req.Lib].Digest, []byte(res.req.Query))
		if err != nil {
			return fmt.Errorf("recompute query: %w", err)
		}
		total++
		if bytes.Equal(want, compact(res.q.Body)) {
			same++
		}
	}
	r.check("recompute-queries", same == total && total > 0, "%d of %d sampled distinct queries match an in-process replica", same, total)
	return nil
}

// analystLayers splits the mean request over the server's route time
// (from /metrics deltas around the whole window) and the rest.
func analystLayers(r *Report, results []analystResult, before, after map[string]float64) {
	total, n := 0.0, 0
	for _, res := range results {
		if res.err == nil {
			total += ms(res.end.Sub(res.start))
			n++
		}
	}
	delta := func(series string) float64 { return 1000 * (after[series] - before[series]) }
	q := delta(routeQuery)
	jobs := delta(routeJobPost) + delta(routeJobEvents)
	rows := []LayerRow{
		{Layer: "query (server)", Share: "query", Source: "/metrics query route duration", Ms: q / float64(n)},
		{Layer: "service (server)", Share: "service", Source: "/metrics job POST + events route durations", Ms: jobs / float64(n)},
		{Layer: "unattributed", Share: "unattributed", Source: "client latency minus server route time (HTTP, loopback, client)", Ms: (total - q - jobs) / float64(n)},
	}
	for k := range rows {
		rows[k].Pct = 100 * rows[k].Ms * float64(n) / total
	}
	setShares(r, "mean request", rows)
}

// replayStoreBuilds replays the schedule's first queries in order
// against an in-process replica and counts query-store builds: the
// store-cache policy's cost on this request sequence, exact and
// repeatable.
func replayStoreBuilds(ctx context.Context, sets map[string]map[string][]byte, c config, libs []service.JobView) (int, error) {
	rp, err := newReplica(sets)
	if err != nil {
		return 0, err
	}
	defer rp.close(ctx)
	last := map[string]*query.Store{}
	builds := 0
	for _, req := range analystPrefix(c.seed, len(libs), c.size.replay) {
		if req.Query == "" {
			continue
		}
		dig := libs[req.Lib].Digest
		q, err := query.Parse([]byte(req.Query))
		if err != nil {
			return 0, err
		}
		resultDig, err := q.Digest(dig)
		if err != nil {
			return 0, err
		}
		if _, cached := rp.m.Store().Peek(resultDig); !cached {
			st, err := rp.m.QueryStore(dig)
			if err != nil {
				return 0, err
			}
			if st != last[dig] {
				builds++
				last[dig] = st
			}
		}
		if _, _, err := rp.m.ExecuteQuery(ctx, dig, []byte(req.Query)); err != nil {
			return 0, err
		}
	}
	return builds, nil
}
