// Command stcload is the latency-percentile load harness for the stcd
// tuning daemon. It replays a warm/cold spec mix against a live daemon
// and reports throughput, the error/backpressure breakdown (429/503),
// and p50/p90/p99/p99.9 latency from HDR histograms as a versioned
// stdcelltune-load/1 JSON document (see internal/loadreport; cmd/stcd's
// end-to-end test runs it against a live daemon).
//
// Two generation modes:
//
//   - open loop (-rps > 0): requests fire on a fixed schedule
//     regardless of how fast earlier ones complete, and every latency
//     is measured from the request's *scheduled* tick — a stalled
//     server is charged the queueing delay it caused instead of
//     silently slowing the generator (coordinated-omission-safe).
//   - closed loop (-rps 0): -conc workers each run one request at a
//     time back-to-back; latency is measured from the actual send.
//
// The mix: a fraction -coldfrac of requests carry a unique seed (a
// fresh spec digest, so a genuine cache miss through the full
// pipeline); the rest repeat one fixed spec that is primed before the
// run, so they are content-addressed cache hits. Requests are
// classified warm/cold by the *observed* cache outcome, not the
// intent.
//
// With -targets=<url,url,...> the harness drives a fleet: requests
// round-robin across the daemons (request index picks the target, so
// the spread is exact), each target gets its own collector, and the
// report's percentiles come from merging the per-target HDR snapshots
// bucketwise — fleet-aggregate quantiles of the combined population,
// not an average of per-node percentiles. The report then carries
// `targets` and `per_target_requests`.
//
// Usage:
//
//	stcload -target http://127.0.0.1:8372 -rps 5 -duration 10s -coldfrac 0.3 -out report.json
//	stcload -targets http://10.0.0.1:8372,http://10.0.0.2:8372 -conc 8 -duration 10s
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stdcelltune/internal/loadreport"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stcload:", err)
		os.Exit(1)
	}
}

// collector aggregates request outcomes for one target daemon. A fleet
// run keeps one collector per target and merges their HDR snapshots at
// the end — quantiles come from the merged buckets, never from
// averaging per-target percentiles.
type collector struct {
	mu        sync.Mutex
	requests  int64
	succeeded int64
	failed    int64
	rejected  map[string]int64
	overall   obs.HDRHistogram
	warm      obs.HDRHistogram
	cold      obs.HDRHistogram
}

func (c *collector) success(lat time.Duration, outcome string) {
	c.overall.Observe(lat)
	if outcome == "hit" {
		c.warm.Observe(lat)
	} else {
		c.cold.Observe(lat)
	}
	c.mu.Lock()
	c.succeeded++
	c.mu.Unlock()
}

func (c *collector) reject(status int) {
	c.mu.Lock()
	if c.rejected == nil {
		c.rejected = make(map[string]int64)
	}
	c.rejected[strconv.Itoa(status)]++
	c.mu.Unlock()
}

func (c *collector) failure() {
	c.mu.Lock()
	c.failed++
	c.mu.Unlock()
}

func run() error {
	target := flag.String("target", "", "base URL of the stcd daemon")
	targets := flag.String("targets", "", "comma-separated daemon base URLs; requests round-robin across the fleet")
	rps := flag.Float64("rps", 0, "open-loop request rate, req/sec (0 = closed loop)")
	conc := flag.Int("conc", 4, "closed-loop worker count (ignored in open-loop mode)")
	duration := flag.Duration("duration", 10*time.Second, "generation window")
	coldFrac := flag.Float64("coldfrac", 0.3, "fraction of requests with a unique (cache-miss) spec")
	design := flag.String("design", "mcu-small", "spec design under load")
	instances := flag.Int("instances", 2, "spec instance count")
	seedBase := flag.Int64("seedbase", 10000, "first seed for cold (unique-digest) specs")
	jobTimeout := flag.Duration("jobtimeout", 120*time.Second, "per-job completion timeout")
	pollEvery := flag.Duration("poll", 20*time.Millisecond, "job status poll interval")
	prime := flag.Bool("prime", true, "run the warm spec to completion once before generating load")
	out := flag.String("out", "", "write the stdcelltune-load/1 report here (default stdout)")
	flag.Parse()

	var bases []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			bases = append(bases, strings.TrimSuffix(t, "/"))
		}
	}
	if len(bases) == 0 && *target != "" {
		bases = []string{strings.TrimSuffix(*target, "/")}
	}
	if len(bases) == 0 {
		return fmt.Errorf("-target or -targets is required")
	}
	if *coldFrac < 0 || *coldFrac > 1 {
		return fmt.Errorf("-coldfrac %g outside [0,1]", *coldFrac)
	}
	client := &http.Client{Timeout: 30 * time.Second}

	warmSpec := service.Spec{
		Design: *design, Instances: *instances, Seed: 1,
		Method: "sigma-ceiling", Bound: 0.02, ClockNS: 6,
	}
	coldSpec := func(i int64) service.Spec {
		s := warmSpec
		s.Seed = *seedBase + i // unique digest -> genuine miss
		return s
	}

	if *prime {
		// Every target is primed so warm requests are hits fleet-wide
		// (peer-cache fills make later primes fast when the tier is on).
		for _, base := range bases {
			t0 := time.Now()
			outcome, status, err := runJob(client, base, warmSpec, "stcload-prime", *jobTimeout, *pollEvery)
			if err != nil || status != 0 {
				return fmt.Errorf("prime run against %s failed (status %d): %v", base, status, err)
			}
			fmt.Fprintf(os.Stderr, "stcload: primed %s in %s (outcome %s)\n",
				base, time.Since(t0).Round(time.Millisecond), outcome)
		}
	}

	cols := make([]*collector, len(bases))
	for i := range cols {
		cols[i] = &collector{}
	}
	var launched atomic.Int64
	// isCold spreads the cold fraction deterministically over the request
	// index so the mix is exact regardless of scheduling races.
	coldEvery := int64(0)
	if *coldFrac > 0 {
		coldEvery = int64(1 / *coldFrac)
	}
	isCold := func(i int64) bool { return coldEvery > 0 && i%coldEvery == 0 }

	fire := func(i int64, sched time.Time) {
		spec := warmSpec
		if isCold(i) {
			spec = coldSpec(i)
		}
		// Round-robin over the fleet: request index picks the target, so
		// the spread is exact and independent of completion timing.
		base := bases[i%int64(len(bases))]
		col := cols[i%int64(len(bases))]
		col.mu.Lock()
		col.requests++
		col.mu.Unlock()
		outcome, status, err := runJob(client, base, spec, fmt.Sprintf("stcload-%d", i), *jobTimeout, *pollEvery)
		switch {
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			col.reject(status)
		case err != nil || status != 0:
			col.failure()
		default:
			col.success(time.Since(sched), outcome)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	mode := "closed"
	if *rps > 0 {
		mode = "open"
		interval := time.Duration(float64(time.Second) / *rps)
		for i := int64(0); ; i++ {
			sched := start.Add(time.Duration(i) * interval)
			if sched.Sub(start) >= *duration {
				break
			}
			// Sleep to the schedule, never past it because of slow
			// responses: each request runs on its own goroutine.
			if d := time.Until(sched); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			launched.Add(1)
			go func(i int64, sched time.Time) {
				defer wg.Done()
				fire(i, sched)
			}(i, sched)
		}
	} else {
		deadline := start.Add(*duration)
		for w := 0; w < *conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					now := time.Now()
					if !now.Before(deadline) {
						return
					}
					i := launched.Add(1) - 1
					fire(i, now)
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Fleet aggregation: bucketwise-merge the per-target HDR snapshots,
	// then quantile the merged population.
	var overall, warm, cold obs.HDRSnapshot
	var succeeded, failed int64
	rejected := make(map[string]int64)
	perTarget := make(map[string]int64, len(bases))
	for i, col := range cols {
		col.mu.Lock()
		succeeded += col.succeeded
		failed += col.failed
		for status, n := range col.rejected {
			rejected[status] += n
		}
		perTarget[bases[i]] = col.requests
		col.mu.Unlock()
		overall.Merge(col.overall.Snapshot())
		warm.Merge(col.warm.Snapshot())
		cold.Merge(col.cold.Snapshot())
	}
	if len(rejected) == 0 {
		rejected = nil
	}
	rep := &loadreport.Report{
		Schema: loadreport.Schema, Target: strings.Join(bases, ","), Mode: mode,
		Targets: bases, PerTarget: perTarget,
		RPS: *rps, Concurrency: *conc,
		DurationSec: elapsed.Seconds(), ColdFrac: *coldFrac,
		Requests:  launched.Load(),
		Succeeded: succeeded, Failed: failed, Rejected: rejected,
		ThroughputRPS: float64(succeeded) / elapsed.Seconds(),
		Overall:       stats(overall),
		Warm:          stats(warm),
		Cold:          stats(cold),
	}

	if err := rep.Validate(); err != nil {
		return fmt.Errorf("generated report invalid: %w", err)
	}
	fmt.Fprintf(os.Stderr,
		"stcload: %s %d req in %s: %d ok (%d warm / %d cold), %d failed, %v rejected; p50 %.1fms p99 %.1fms\n",
		mode, rep.Requests, elapsed.Round(time.Millisecond), rep.Succeeded,
		rep.Warm.Count, rep.Cold.Count, rep.Failed, rep.Rejected,
		rep.Overall.P50MS, rep.Overall.P99MS)
	if *out == "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Println(string(data))
		return nil
	}
	return rep.Write(*out)
}

// stats converts a (possibly merged) HDR snapshot into the report's
// latency block.
func stats(snap obs.HDRSnapshot) loadreport.LatencyStats {
	s := snap.Summary()
	mean := 0.0
	if s.Count > 0 {
		mean = s.SumMS / float64(s.Count)
	}
	return loadreport.LatencyStats{
		Count: s.Count, MeanMS: mean,
		P50MS: s.P50MS, P90MS: s.P90MS, P99MS: s.P99MS, P999MS: s.P999MS, MaxMS: s.MaxMS,
	}
}

// runJob submits one spec and polls it to a terminal state.
// Returns the cache outcome on success; a non-zero status when the
// daemon answered the submission with anything but 202 (the caller
// classifies 429/503 as backpressure); an error on transport failures,
// job failure or timeout.
func runJob(client *http.Client, base string, spec service.Spec, reqID string, timeout, poll time.Duration) (outcome string, status int, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	req, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := client.Do(req)
	if err != nil {
		return "", 0, err
	}
	var doc struct {
		ID      string `json:"id"`
		Status  string `json:"status"`
		Outcome string `json:"cache_outcome"`
		Error   string `json:"error"`
	}
	decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&doc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode, nil
	}
	if decErr != nil {
		return "", 0, decErr
	}

	deadline := time.Now().Add(timeout)
	for {
		switch doc.Status {
		case string(service.StatusDone):
			return doc.Outcome, 0, nil
		case string(service.StatusFailed), string(service.StatusCancelled):
			return doc.Outcome, 0, fmt.Errorf("job %s %s: %s", doc.ID, doc.Status, doc.Error)
		}
		if time.Now().After(deadline) {
			return "", 0, fmt.Errorf("job %s not terminal after %s", doc.ID, timeout)
		}
		time.Sleep(poll)
		getResp, err := client.Get(base + "/v1/jobs/" + doc.ID)
		if err != nil {
			return "", 0, err
		}
		decErr := json.NewDecoder(io.LimitReader(getResp.Body, 1<<20)).Decode(&doc)
		getResp.Body.Close()
		if decErr != nil {
			return "", 0, decErr
		}
	}
}
