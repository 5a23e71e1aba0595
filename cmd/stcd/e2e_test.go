package main

// End-to-end tests of the daemon as an operator runs it: TestMain builds
// stcd and stcload once, and every scenario starts real processes on
// ephemeral ports, drives them over HTTP and signals them, in its own
// temporary directory. `go test -short` skips them.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"stdcelltune/internal/digest"
	"stdcelltune/internal/loadreport"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/perfstat"
	"stdcelltune/internal/query"
	"stdcelltune/internal/service"
	"stdcelltune/internal/service/journal"
	"stdcelltune/internal/service/shard"
)

const (
	pollEvery   = 50 * time.Millisecond
	jobTimeout  = 5 * time.Minute
	exitTimeout = 2 * time.Minute

	// smokeSpec is the scaled-down pipeline request most scenarios run.
	smokeSpec = `{"design":"mcu-small","instances":3,"seed":1,"method":"sigma-ceiling","bound":0.02,"clock_ns":6}`
)

// bin holds the paths of the binaries TestMain builds.
var bin struct{ stcd, stcload string }

// client bounds every request, so a hung daemon fails its test.
var client = &http.Client{Timeout: time.Minute}

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(runTests(m))
}

func runTests(m *testing.M) int {
	if testing.Short() {
		return m.Run()
	}
	dir, err := os.MkdirTemp("", "stcd-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	bin.stcd, bin.stcload = filepath.Join(dir, "stcd"), filepath.Join(dir, "stcload")
	for out, pkg := range map[string]string{bin.stcd: ".", bin.stcload: "../stcload"} {
		if b, err := exec.Command("go", "build", "-o", out, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build %s: %v\n%s", pkg, err, b)
			return 1
		}
	}
	return m.Run()
}

// node is one stcd process under test.
type node struct {
	t    testing.TB
	name string
	base string // http://host:port; empty for a worker
	log  string // path of the process's combined output
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
}

// start runs stcd with args, its output going to dir/name.log. The
// process is killed when the test ends, and if the test failed the
// tail of its log is printed.
func start(t testing.TB, dir, name string, args ...string) *node {
	t.Helper()
	if bin.stcd == "" {
		t.Skip("end-to-end: skipped in -short mode")
	}
	n := &node{t: t, name: name, log: filepath.Join(dir, name+".log"), done: make(chan struct{})}
	f, err := os.Create(n.log)
	if err != nil {
		t.Fatal(err)
	}
	n.cmd = exec.Command(bin.stcd, args...)
	n.cmd.Stdout, n.cmd.Stderr = f, f
	if err := n.cmd.Start(); err != nil {
		f.Close()
		t.Fatal(err)
	}
	go func() {
		n.cmd.Wait()
		f.Close()
		close(n.done)
	}()
	t.Cleanup(func() {
		if t.Failed() {
			lines := strings.Split(strings.TrimRight(n.logText(), "\n"), "\n")
			t.Logf("%s: last lines of its log:\n\t%s", name, strings.Join(lines[max(0, len(lines)-15):], "\n\t"))
		}
	})
	t.Cleanup(n.kill)
	return n
}

// daemon starts stcd on an ephemeral port and waits for the address it
// binds, failing if the process exits first.
func daemon(t testing.TB, dir, name string, args ...string) *node {
	t.Helper()
	addrFile := filepath.Join(dir, name+".addr")
	n := start(t, dir, name, append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrFile}, args...)...)
	deadline := time.Now().Add(exitTimeout)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			n.base = "http://" + strings.TrimSpace(string(b))
			return n
		}
		select {
		case <-n.done:
			t.Fatalf("%s exited (%s) before listening", name, n.cmd.ProcessState)
		case <-time.After(pollEvery):
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s did not write %s", name, addrFile)
		}
	}
}

// worker starts a cluster worker that joins coord.
func worker(t testing.TB, dir, name string, coord *node, simCharLatency string) *node {
	t.Helper()
	return start(t, dir, name, "-worker", "-join", coord.base, "-name", name, "-simcharlatency", simCharLatency)
}

func (n *node) logText() string {
	b, _ := os.ReadFile(n.log)
	return string(b)
}

// wait blocks until the process exits and returns its exit code.
func (n *node) wait() int {
	n.t.Helper()
	select {
	case <-n.done:
	case <-time.After(exitTimeout):
		n.t.Fatalf("%s did not exit", n.name)
	}
	return n.cmd.ProcessState.ExitCode()
}

// stop sends SIGTERM and returns the exit code and the log.
func (n *node) stop() (int, string) {
	n.t.Helper()
	n.cmd.Process.Signal(syscall.SIGTERM)
	return n.wait(), n.logText()
}

// kill sends SIGKILL and waits for the process to go.
func (n *node) kill() {
	n.cmd.Process.Kill()
	<-n.done
}

// drain stops n with SIGTERM and fails unless it exits 0 after a clean
// drain.
func (n *node) drain() {
	n.t.Helper()
	if code, log := n.stop(); code != 0 || !strings.Contains(log, "drained cleanly") {
		n.t.Fatalf("%s: SIGTERM gave exit %d, want 0 with a \"drained cleanly\" log line", n.name, code)
	}
}

// do sends one request and returns the response and its body.
func (n *node) do(method, path, body string) (*http.Response, []byte) {
	n.t.Helper()
	req, err := http.NewRequest(method, n.base+path, strings.NewReader(body))
	if err != nil {
		n.t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		n.t.Fatalf("%s %s on %s: %v", method, path, n.name, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		n.t.Fatalf("%s %s on %s: %v", method, path, n.name, err)
	}
	return resp, b
}

// get returns the body of path, failing unless it answers 200.
func (n *node) get(path string) []byte {
	n.t.Helper()
	resp, b := n.do("GET", path, "")
	if resp.StatusCode != http.StatusOK {
		n.t.Fatalf("GET %s on %s: %s: %s", path, n.name, resp.Status, b)
	}
	return b
}

// getJSON decodes the body of path into v, rejecting unknown fields.
func (n *node) getJSON(path string, v any) {
	n.t.Helper()
	dec := json.NewDecoder(bytes.NewReader(n.get(path)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		n.t.Fatalf("GET %s on %s: %v", path, n.name, err)
	}
}

// submit posts spec to /{api}/jobs and returns the job id.
func (n *node) submit(api, spec string) string {
	n.t.Helper()
	resp, b := n.do("POST", "/"+api+"/jobs", spec)
	var v service.JobView
	if err := json.Unmarshal(b, &v); resp.StatusCode != http.StatusAccepted || err != nil || v.ID == "" {
		n.t.Fatalf("POST /%s/jobs on %s: %s: %s", api, n.name, resp.Status, b)
	}
	return v.ID
}

// await polls a job until it is terminal and fails unless it is done.
func (n *node) await(api, id string) service.JobView {
	n.t.Helper()
	deadline := time.Now().Add(jobTimeout)
	for {
		var v service.JobView
		n.getJSON("/"+api+"/jobs/"+id, &v)
		switch v.Status {
		case service.StatusDone:
			return v
		case service.StatusFailed, service.StatusCancelled:
			n.t.Fatalf("job %s on %s ended %s: %s", id, n.name, v.Status, v.Error)
		}
		if time.Now().After(deadline) {
			n.t.Fatalf("job %s on %s not done after %s", id, n.name, jobTimeout)
		}
		time.Sleep(pollEvery)
	}
}

// hashes returns the name -> SHA-256 map of the artifact index of
// digest dig, failing unless the index is well-formed.
func (n *node) hashes(dig string) map[string]string {
	n.t.Helper()
	var idx struct {
		Digest    string                 `json:"digest"`
		Artifacts []service.ArtifactView `json:"artifacts"`
	}
	n.getJSON("/v1/artifacts/"+dig, &idx)
	if idx.Digest != dig || len(idx.Artifacts) == 0 {
		n.t.Fatalf("artifact index of %s on %s: digest %q, %d artifacts", dig, n.name, idx.Digest, len(idx.Artifacts))
	}
	out := make(map[string]string, len(idx.Artifacts))
	for _, a := range idx.Artifacts {
		if a.Name == "" || len(a.SHA256) != 64 || a.Size <= 0 {
			n.t.Fatalf("artifact index of %s on %s: malformed entry %+v", dig, n.name, a)
		}
		out[a.Name] = a.SHA256
	}
	return out
}

// clusterStats returns GET /v1/cluster.
func (n *node) clusterStats() shard.Stats {
	n.t.Helper()
	var st shard.Stats
	n.getJSON("/v1/cluster", &st)
	return st
}

// awaitCluster polls GET /v1/cluster until ok holds.
func (n *node) awaitCluster(what string, ok func(shard.Stats) bool) {
	n.t.Helper()
	deadline := time.Now().Add(exitTimeout)
	for st := n.clusterStats(); !ok(st); st = n.clusterStats() {
		if time.Now().After(deadline) {
			n.t.Fatalf("%s: %s never happened: %+v", n.name, what, st)
		}
		time.Sleep(pollEvery)
	}
}

// shardSet fetches the retained shard set of digest dig and fails
// unless it holds its invariants.
func (n *node) shardSet(dig string) {
	n.t.Helper()
	var set shard.ShardSet
	n.getJSON("/v1/cluster/shards/"+dig, &set)
	if err := set.Validate(); err != nil {
		n.t.Fatalf("%s: retained shard set of %s: %v", n.name, dig, err)
	}
}

// checkJob fails unless v is a well-formed finished stdcelltune-job/1
// document: the schema, an id, a valid spec whose digest is the job's,
// a known cache outcome and every pipeline artifact with a size and a
// SHA-256.
func checkJob(t testing.TB, v service.JobView) {
	t.Helper()
	if v.Schema != service.SchemaJob || v.ID == "" {
		t.Fatalf("job document: schema %q, id %q", v.Schema, v.ID)
	}
	if err := v.Spec.Validate(); err != nil {
		t.Fatalf("job %s: embedded spec invalid: %v", v.ID, err)
	}
	if got := v.Spec.Digest(); got != v.Digest {
		t.Fatalf("job %s: digest %s, embedded spec's %s", v.ID, v.Digest, got)
	}
	switch v.Outcome {
	case "hit", "miss", "shared", "peer":
	default:
		t.Fatalf("job %s: cache outcome %q", v.ID, v.Outcome)
	}
	have := map[string]bool{}
	for _, a := range v.Artifacts {
		if len(a.SHA256) != 64 || a.Size <= 0 {
			t.Fatalf("job %s: artifact %+v malformed", v.ID, a)
		}
		have[a.Name] = true
	}
	for _, want := range []string{
		service.ArtifactSpec, service.ArtifactStatLib, service.ArtifactWindows,
		service.ArtifactTuning, service.ArtifactSynthesis, service.ArtifactVariation,
	} {
		if !have[want] {
			t.Fatalf("job %s: no %s artifact", v.ID, want)
		}
	}
}

// checkJournal fails unless the journal at path holds a valid record
// and its records keep journal.Validate's invariants. A torn tail,
// what a crash leaves, is allowed: recovery truncates it.
func checkJournal(t testing.TB, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid, _ := journal.Replay(data)
	if valid == 0 {
		t.Fatalf("%s: no valid record in %d bytes", path, len(data))
	}
	if err := journal.Validate(recs); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// hasLine reports whether text has a line starting with prefix.
func hasLine(text, prefix string) bool {
	return strings.HasPrefix(text, prefix) || strings.Contains(text, "\n"+prefix)
}

// TestEndToEnd runs each scenario against real processes, in parallel.
func TestEndToEnd(t *testing.T) {
	for _, sc := range []struct {
		name string
		run  func(*testing.T, string)
	}{
		{"serve", testServe},
		{"crash", testCrash},
		{"query", testQuery},
		{"load", testLoad},
		{"cluster", testCluster},
	} {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			sc.run(t, t.TempDir())
		})
	}
}

// testServe: a cold job is a miss and the same spec again is a hit with
// the same digest and artifacts; the served bytes hash to the index;
// SIGTERM drains cleanly.
func testServe(t *testing.T, dir string) {
	n := daemon(t, dir, "stcd", "-cachedir", filepath.Join(dir, "cache"))
	n.get("/healthz")
	cold := n.await("v1", n.submit("v1", smokeSpec))
	warm := n.await("v1", n.submit("v1", smokeSpec))
	checkJob(t, cold)
	checkJob(t, warm)
	if cold.Outcome != "miss" || warm.Outcome != "hit" {
		t.Fatalf("cache outcomes cold %q, warm %q; want miss, hit", cold.Outcome, warm.Outcome)
	}
	if warm.Digest != cold.Digest || !slices.Equal(warm.Artifacts, cold.Artifacts) {
		t.Fatalf("warm job %s %v diverged from cold %s %v", warm.Digest, warm.Artifacts, cold.Digest, cold.Artifacts)
	}
	want := n.hashes(cold.Digest)[service.ArtifactWindows]
	if got := digest.Bytes(n.get("/v1/artifacts/" + cold.Digest + "/" + service.ArtifactWindows)); got != want {
		t.Fatalf("served windows.json hashes to %s, index says %q", got, want)
	}
	n.drain()
}

// testCrash: a daemon dies (exit 137) mid-way through journaling a
// job's terminal record; a daemon over the same directories recovers
// the job under its id as a cache hit with the reference run's bytes,
// enforces its rate limit, and drains cleanly leaving a valid journal
// and a manifest that counts the recovery.
func testCrash(t *testing.T, dir string) {
	ref := daemon(t, dir, "ref", "-cachedir", filepath.Join(dir, "refcache"), "-statedir", filepath.Join(dir, "refstate"))
	refJob := ref.await("v1", ref.submit("v1", smokeSpec))
	refHashes := ref.hashes(refJob.Digest)
	ref.drain()

	cache, state := filepath.Join(dir, "cache"), filepath.Join(dir, "state")
	wal := filepath.Join(state, journal.FileName)
	crash := daemon(t, dir, "crash", "-cachedir", cache, "-statedir", state,
		"-chaos", "journal.done.write=torn", "-chaosseed", "7")
	id := crash.submit("v1", smokeSpec)
	if code := crash.wait(); code != 137 {
		t.Fatalf("chaos-armed daemon exited %d, want 137", code)
	}
	checkJournal(t, wal)

	rec := daemon(t, dir, "rec", "-cachedir", cache, "-statedir", state, "-maxrps", "1", "-burst", "1")
	if !strings.Contains(rec.logText(), "recovered jobs re-enqueued") {
		t.Fatal("recovery daemon re-enqueued nothing")
	}
	var health map[string]any
	rec.getJSON("/healthz", &health)
	if health["recovered"] != 1.0 {
		t.Fatalf("healthz recovered = %v, want 1", health["recovered"])
	}
	got := rec.await("v1", id)
	if got.Outcome != "hit" || got.Digest != refJob.Digest {
		t.Fatalf("recovered job: outcome %q digest %s, want hit %s", got.Outcome, got.Digest, refJob.Digest)
	}
	if h := rec.hashes(got.Digest); !maps.Equal(h, refHashes) {
		t.Fatalf("recovered artifacts %v diverge from the reference run's %v", h, refHashes)
	}

	// The second submission inside the 1 rps budget is refused.
	rateSpec := strings.Replace(smokeSpec, `"seed":1`, `"seed":2`, 1)
	rec.submit("v1", rateSpec)
	resp, body := rec.do("POST", "/v1/jobs", rateSpec)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over-rate submission: %s, Retry-After %q: %s", resp.Status, resp.Header.Get("Retry-After"), body)
	}

	rec.drain()
	checkJournal(t, wal)
	m, err := obs.ReadManifest(filepath.Join(state, "stcd.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Service == nil || m.Service.JobsRecovered != 1 || !m.Service.DrainClean {
		t.Fatalf("manifest service outcome %+v, want jobs_recovered 1 and a clean drain", m.Service)
	}
}

// testQuery: the api/2 library surface and query layer of one finished
// job: listing, a group query that goes miss -> hit with the same bytes
// (also for a normalized variant), two substitute what-ifs with one full
// analysis each, the first building the store's what-if session and the
// second reusing it, the store metrics and the error envelope.
func testQuery(t *testing.T, dir string) {
	n := daemon(t, dir, "stcd", "-cachedir", filepath.Join(dir, "cache"))
	dig := n.await("v2", n.submit("v2", smokeSpec)).Digest
	if !bytes.Contains(n.get("/v2/libraries"), []byte(dig)) {
		t.Fatalf("library %s not listed under /v2/libraries", dig)
	}
	if !bytes.Contains(n.get("/v2/libraries/"+dig), []byte(`"netlist.v"`)) {
		t.Fatal("artifact index lacks netlist.v")
	}

	q := func(doc, wantCache string) []byte {
		t.Helper()
		resp, b := n.do("POST", "/v2/libraries/"+dig+"/query", doc)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Query-Cache") != wantCache {
			t.Fatalf("query %s: %s, X-Query-Cache %q, want 200 %s: %s", doc, resp.Status, resp.Header.Get("X-Query-Cache"), wantCache, b)
		}
		return b
	}
	group := `{"schema":"stdcelltune-query/1","from":"instances","group_by":["family"],"aggregate":[{"op":"count"},{"op":"sum","col":"area_um2"}]}`
	cold := q(group, "miss")
	if !bytes.Contains(cold, []byte(`"stdcelltune-query-result/1"`)) {
		t.Fatalf("query result lacks its schema: %s", cold)
	}
	if warm := q(group, "hit"); !bytes.Equal(warm, cold) {
		t.Fatal("warm query body differs from cold")
	}
	// Key order, whitespace and operator case normalize away before the
	// cache key.
	variant := `{
  "aggregate": [ {"op":"COUNT"}, {"col":"area_um2","op":"Sum"} ],
  "group_by":  ["family"],
  "from": "instances",
  "schema": "stdcelltune-query/1"
}`
	if b := q(variant, "hit"); !bytes.Equal(b, cold) {
		t.Fatal("normalized variant served different bytes")
	}

	var w query.WhatIfResult
	if err := json.Unmarshal(q(`{"schema":"stdcelltune-query/1","what_if":{"op":"substitute","from":"OR2_1","to":"OR2_2"}}`, "miss"), &w); err != nil {
		t.Fatal(err)
	}
	if w.FullAnalyses != 1 || !(w.Delta.AreaUM2 > 0) {
		t.Fatalf("substitute OR2_1 -> OR2_2: full_analyses %d, area delta %g; want 1 and positive", w.FullAnalyses, w.Delta.AreaUM2)
	}
	// The second what-if runs on the session the first one parked, and
	// still reports the baseline's one full analysis.
	w = query.WhatIfResult{}
	if err := json.Unmarshal(q(`{"schema":"stdcelltune-query/1","what_if":{"op":"substitute","from":"OR2_2","to":"OR2_1"}}`, "miss"), &w); err != nil {
		t.Fatal(err)
	}
	if w.FullAnalyses != 1 {
		t.Fatalf("substitute OR2_2 -> OR2_1: full_analyses %d, want 1", w.FullAnalyses)
	}

	// Every query ran on the one store the cold query built, which the
	// store cache still holds: nothing was evicted, and its bytes are
	// resident. The first what-if built the store's session and the
	// second reused it.
	prom := n.get("/metrics")
	for _, line := range []string{"query_store_builds 1\n", "query_store_build_count 1\n", "query_store_evictions 0\n",
		"query_whatif_sessions_built 1\n", "query_whatif_session_reuses 1\n"} {
		if !hasLine(string(prom), line) {
			t.Fatalf("/metrics lacks %q", line)
		}
	}
	samples, types, err := obs.ParsePrometheusText(bytes.NewReader(prom))
	if err != nil {
		t.Fatalf("/metrics is not Prometheus text: %v", err)
	}
	if types["query_store_evictions"] != "counter" || types["query_store_resident_bytes"] != "gauge" {
		t.Fatalf("/metrics declares query_store_evictions %q and query_store_resident_bytes %q, want counter and gauge",
			types["query_store_evictions"], types["query_store_resident_bytes"])
	}
	resident := 0.0
	for _, s := range samples {
		if s.Name == "query_store_resident_bytes" {
			resident = s.Value
		}
	}
	if !(resident > 0) {
		t.Fatalf("query_store_resident_bytes %g with one store cached, want > 0", resident)
	}

	type errorBody struct {
		Code      string `json:"code"`
		RequestID string `json:"request_id"`
	}
	envelope := func(method, path, body string) (int, errorBody) {
		t.Helper()
		resp, b := n.do(method, path, body)
		var env struct {
			Error errorBody `json:"error"`
		}
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatalf("%s %s: not an error envelope: %s", method, path, b)
		}
		return resp.StatusCode, env.Error
	}
	if code, e := envelope("POST", "/v2/libraries/sha256:nope/query", group); code != http.StatusNotFound || e.Code != "not_found" {
		t.Fatalf("query on an absent library: %d %q, want 404 not_found", code, e.Code)
	}
	if _, e := envelope("POST", "/v2/libraries/"+dig+"/query", `{"schema":"stdcelltune-query/1","from":"nonsense"}`); e.Code != "bad_query" {
		t.Fatalf("bad query: code %q, want bad_query", e.Code)
	}
	if _, e := envelope("GET", "/v2/jobs/nope", ""); e.RequestID == "" {
		t.Fatal("v2 404 envelope lacks request_id")
	}
	n.drain()
}

// testLoad: an open-loop warm/cold mix from stcload yields a valid load
// report with hits faster than misses, and /metrics carries the
// per-route RED series and the cache residency series.
func testLoad(t *testing.T, dir string) {
	n := daemon(t, dir, "stcd", "-workers", "2")
	out := filepath.Join(dir, "load.json")
	if b, err := exec.Command(bin.stcload, "-target", n.base, "-rps", "4", "-duration", "5s",
		"-coldfrac", "0.3", "-out", out).CombinedOutput(); err != nil {
		t.Fatalf("stcload: %v\n%s", err, b)
	}
	rep, err := loadreport.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Warm.P50MS > rep.Cold.P99MS {
		t.Fatalf("warm p50 %.2fms above cold p99 %.2fms", rep.Warm.P50MS, rep.Cold.P99MS)
	}

	samples, types, err := obs.ParsePrometheusText(bytes.NewReader(n.get("/metrics")))
	if err != nil {
		t.Fatalf("/metrics is not Prometheus text: %v", err)
	}
	for name, typ := range map[string]string{
		"http_requests_total": "counter", "http_request_duration_seconds": "histogram",
		"cache_resident_bytes": "gauge", "cache_disk_reads": "counter",
	} {
		if types[name] != typ {
			t.Errorf("/metrics declares %s as %q, want %s", name, types[name], typ)
		}
	}
	seen := map[string]bool{}
	for _, s := range samples {
		switch {
		case s.Name == "http_requests_total":
			seen[s.Labels["route"]] = true
		case s.Name == "http_request_duration_seconds_bucket" && s.Labels["le"] == "+Inf":
			seen["+Inf"] = true
		default:
			seen[s.Name] = true
		}
	}
	for _, want := range []string{"POST /v1/jobs", "GET /v1/jobs/{id}", "+Inf", "http_in_flight_requests", "cache_resident_bytes", "cache_disk_reads"} {
		if !seen[want] {
			t.Errorf("/metrics has no %q series", want)
		}
	}
	n.drain()
}

// testCluster: one digest names one byte string whoever computes it. A
// coordinator with two workers computes a sharded reference; a
// coordinator whose only worker is SIGKILLed holding a lease recovers
// by lease expiry and stealing; a node with the second coordinator as
// its peer fills its cache from it; and a plain node computes the spec
// alone. All four artifact sets hash the same.
func testCluster(t *testing.T, dir string) {
	const spec = `{"design":"mcu-small","instances":32,"seed":7,"method":"sigma-ceiling","bound":0.02,"clock_ns":6}`
	coordinator := func(name string, args ...string) *node {
		t.Helper()
		return daemon(t, dir, name, append([]string{"-cachedir", filepath.Join(dir, name+".cache"), "-log", "debug"}, args...)...)
	}
	cluster := []string{"-cluster", "-shardsize", "4", "-leasetimeout", "2s"}

	// Phase 1: the reference fleet run.
	n1 := coordinator("n1", cluster...)
	w11, w12 := worker(t, dir, "w11", n1, "10ms"), worker(t, dir, "w12", n1, "10ms")
	n1.awaitCluster("two workers registered", func(st shard.Stats) bool { return st.Workers >= 2 })
	job1 := n1.await("v1", n1.submit("v1", spec))
	checkJob(t, job1)
	if job1.Outcome != "miss" {
		t.Fatalf("phase 1 outcome %q, want miss", job1.Outcome)
	}
	dig, ref := job1.Digest, n1.hashes(job1.Digest)
	if st := n1.clusterStats(); st.Enqueued == 0 || st.Enqueued != st.Completed || st.QueueDepth != 0 {
		t.Fatalf("phase 1 queue did not balance: %+v", st)
	}
	n1.shardSet(dig)
	var health map[string]any
	if n1.getJSON("/healthz", &health); health["cluster"] == nil {
		t.Fatal("coordinator healthz has no cluster section")
	}
	for _, p := range []*node{w11, w12, n1} {
		p.kill()
	}

	// Phase 2: the only worker dies holding a lease; a second joins
	// only then, so its first lease of that shard is a steal.
	n2 := coordinator("n2", cluster...)
	victim := worker(t, dir, "w21", n2, "100ms")
	n2.awaitCluster("the victim registered", func(st shard.Stats) bool { return st.Workers >= 1 })
	id2 := n2.submit("v1", spec)
	n2.awaitCluster("the victim leased a shard", func(st shard.Stats) bool { return st.Leased >= 1 })
	victim.kill()
	worker(t, dir, "w22", n2, "10ms")
	job2 := n2.await("v1", id2)
	checkJob(t, job2)
	if h := n2.hashes(job2.Digest); job2.Digest != dig || !maps.Equal(h, ref) {
		t.Fatalf("after the worker kill: digest %s hashes %v, want %s %v", job2.Digest, h, dig, ref)
	}
	if st := n2.clusterStats(); st.LeaseExpiries < 1 || st.Steals < 1 {
		t.Fatalf("no recovery recorded after the kill: %+v", st)
	}
	n2.shardSet(dig)
	if prom := string(n2.get("/metrics")); !hasLine(prom, "shard_lease_expiries") || !hasLine(prom, "shard_steals") {
		t.Fatal("/metrics lacks the shard_lease_expiries and shard_steals series")
	}

	// Phase 3: the peer tier fills a fresh node from n2.
	n3 := coordinator("n3", "-peers", n2.base)
	job3 := n3.await("v1", n3.submit("v1", spec))
	checkJob(t, job3)
	if h := n3.hashes(job3.Digest); job3.Outcome != "peer" || job3.Digest != dig || !maps.Equal(h, ref) {
		t.Fatalf("peer fill: outcome %q digest %s hashes %v, want peer %s %v", job3.Outcome, job3.Digest, h, dig, ref)
	}
	if !hasLine(string(n3.get("/metrics")), "cache_peer_hits") {
		t.Fatal("/metrics lacks the cache_peer_hits series")
	}

	// Phase 4: a plain node computes the spec itself.
	n4 := coordinator("n4")
	job4 := n4.await("v1", n4.submit("v1", spec))
	if h := n4.hashes(job4.Digest); job4.Outcome != "miss" || job4.Digest != dig || !maps.Equal(h, ref) {
		t.Fatalf("single node: outcome %q digest %s hashes %v, want miss %s %v", job4.Outcome, job4.Digest, h, dig, ref)
	}
}

// The cluster scaling curve behind BENCH_PR9.json. One characterize of
// benchN instances runs on a single node, then on a coordinator with 1,
// 2 and 4 workers, all on localhost, with benchSimLatency of simulated
// external-characterizer wait per generated sample row (timing only,
// never bytes). The waits overlap across worker processes as remote
// simulator calls overlap across machines, so the curve measures what
// sharding buys on a host of any size. Run it with
//
//	go test ./cmd/stcd -run '^$' -bench ClusterCharacterize -benchtime 1x
const (
	benchN          = 200
	benchSimLatency = "400ms"
	benchShardSize  = "50"
	benchMinSpeedup = 1.8
	benchOut        = "../../BENCH_PR9.json"
)

// BenchmarkClusterCharacterize records each case's "characterize" span
// from the job trace, writes benchOut, and fails if two workers are not
// benchMinSpeedup times faster than the single node.
func BenchmarkClusterCharacterize(b *testing.B) {
	spec := fmt.Sprintf(`{"design":"mcu-small","instances":%d,"seed":11,"method":"sigma-ceiling","bound":0.02,"clock_ns":6}`, benchN)
	ns := map[int]int64{} // workers (0 = single node) -> characterize ns
	for _, workers := range []int{0, 1, 2, 4} {
		name := fmt.Sprintf("w%d", workers)
		if workers == 0 {
			name = "single"
		}
		b.Run(name, func(b *testing.B) {
			for range b.N {
				ns[workers] = characterizeNS(b, workers, spec)
			}
			b.ReportMetric(float64(ns[workers]), "characterize-ns")
		})
	}
	if len(ns) < 4 {
		return // a -bench pattern selected only some cases
	}
	procs := os.Getenv("GOMAXPROCS")
	if procs == "" {
		procs = fmt.Sprint(runtime.NumCPU())
	}
	bf := perfstat.NewBenchFile()
	bf.Note = fmt.Sprintf("Sharded cluster characterization scaling: one mcu-small characterize of N=%d Monte-Carlo instances "+
		"with %s of simulated external-characterizer latency per generated sample row (-simcharlatency, slept at pool width "+
		"on the single node and on every worker alike), shard size %s, coordinator and workers all on localhost. Host: %d CPUs, "+
		"daemons at GOMAXPROCS=%s. The benchmark is latency-bound on purpose: the sleeps stand in for the external simulator "+
		"wait that dominates real characterization and overlap across worker processes as remote machines would; CPU-bound "+
		"scaling is not measured. Durations are the 'characterize' span from GET /v1/jobs/{id}/trace "+
		"(BenchmarkClusterCharacterize in cmd/stcd).", benchN, benchSimLatency, benchShardSize, runtime.NumCPU(), procs)
	bf.Phases = []perfstat.Phase{{Name: "characterize_single_node", Count: 1, WallNS: ns[0]}}
	for _, w := range []int{1, 2, 4} {
		bf.Benchmarks[fmt.Sprintf("ClusterCharacterizeN%dW%d", benchN, w)] = perfstat.BenchResult{
			NsPerOp:         float64(ns[w]),
			BaselineNsPerOp: float64(ns[0]),
			Speedup:         math.Round(100*float64(ns[0])/float64(ns[w])) / 100,
		}
		bf.Phases = append(bf.Phases, perfstat.Phase{Name: fmt.Sprintf("characterize_cluster_%dw", w), Count: 1, WallNS: ns[w]})
	}
	if err := bf.Write(benchOut); err != nil {
		b.Fatal(err)
	}
	sp2 := float64(ns[0]) / float64(ns[2])
	b.Logf("speedup vs single node: 1w %.2fx, 2w %.2fx, 4w %.2fx; wrote %s",
		float64(ns[0])/float64(ns[1]), sp2, float64(ns[0])/float64(ns[4]), benchOut)
	if sp2 < benchMinSpeedup {
		b.Fatalf("2-worker speedup %.2fx below %.1fx", sp2, benchMinSpeedup)
	}
}

// characterizeNS runs one cold job on a fresh daemon (a coordinator
// with that many workers, or a single node for 0) and returns the
// summed duration of its trace's "characterize" spans.
func characterizeNS(b *testing.B, workers int, spec string) int64 {
	dir := b.TempDir()
	args := []string{"-cachedir", filepath.Join(dir, "cache"), "-simcharlatency", benchSimLatency}
	if workers > 0 {
		// Workers renew their leases while they compute; the long TTL
		// only keeps a stalled renewal from costing a steal mid-run.
		args = append(args, "-cluster", "-shardsize", benchShardSize, "-leasetimeout", "2m")
	}
	n := daemon(b, dir, "stcd", args...)
	if workers > 0 {
		for k := 1; k <= workers; k++ {
			worker(b, dir, fmt.Sprintf("w%d", k), n, benchSimLatency)
		}
		n.awaitCluster("workers registered", func(st shard.Stats) bool { return st.Workers >= workers })
	}
	id := n.submit("v1", spec)
	n.await("v1", id)
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"` // microseconds
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(n.get("/v1/jobs/"+id+"/trace"), &tr); err != nil {
		b.Fatal(err)
	}
	var us int64
	spans := 0
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" && e.Name == "characterize" {
			us += e.Dur
			spans++
		}
	}
	if spans == 0 {
		b.Fatal("job trace has no characterize span")
	}
	return us * 1000
}
