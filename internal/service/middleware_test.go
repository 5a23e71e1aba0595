package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stdcelltune/internal/obs"
	"stdcelltune/internal/service/cache"
)

func TestValidRequestID(t *testing.T) {
	for id, want := range map[string]bool{
		"abc-123.DEF_x":         true,
		"a":                     true,
		"":                      false,
		"has space":             false,
		"inject\nlog":           false,
		`q"uote`:                false,
		strings.Repeat("x", 64): true,
		strings.Repeat("x", 65): false,
	} {
		if got := validRequestID(id); got != want {
			t.Errorf("validRequestID(%q) = %v, want %v", id, got, want)
		}
	}
	if a, b := newRequestID(), newRequestID(); a == b || !validRequestID(a) {
		t.Errorf("minted ids %q, %q: want distinct and valid", a, b)
	}
}

// TestRequestIDCorrelation is the acceptance test of the correlation
// chain: one client-supplied X-Request-ID must surface on (1) the HTTP
// response header, (2) the job document, (3) the structured accept log
// line and (4) the root span of the job's Chrome trace.
func TestRequestIDCorrelation(t *testing.T) {
	var logBuf bytes.Buffer
	old := obs.Log()
	obs.SetLog(slog.New(slog.NewTextHandler(&logBuf, nil)))
	defer obs.SetLog(old)

	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{
		Trace: true,
		Run:   func(_ context.Context, s Spec) (map[string][]byte, error) { return fakeBlobs(s), nil },
	})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	const reqID = "corr-test-4711"
	body, _ := json.Marshal(Spec{Design: "mcu-small", Instances: 3})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Errorf("response header X-Request-ID = %q, want %q", got, reqID)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.RequestID != reqID {
		t.Errorf("job document request_id = %q, want %q", v.RequestID, reqID)
	}

	j, ok := m.Job(v.ID)
	if !ok {
		t.Fatalf("job %s not registered", v.ID)
	}
	waitDone(t, j)

	if !strings.Contains(logBuf.String(), "request_id="+reqID) {
		t.Errorf("accept log line lacks request_id=%s:\n%s", reqID, logBuf.String())
	}

	trace := getBytes(t, ts.URL+"/v1/jobs/"+v.ID+"/trace")
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace endpoint not Chrome trace JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "job" {
			found = true
			if ev.Args["request_id"] != reqID {
				t.Errorf("root span request_id = %v, want %q", ev.Args["request_id"], reqID)
			}
		}
	}
	if !found {
		t.Errorf("no root job span in trace: %s", trace)
	}

	// A malformed client id is replaced by a minted one, not echoed.
	req2, _ := http.NewRequest("GET", ts.URL+"/v1/jobs", nil)
	req2.Header.Set("X-Request-ID", "evil header value")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got == "" || strings.Contains(got, "evil") {
		t.Errorf("malformed id echoed back: %q", got)
	}
}

// TestRouteLabelCardinality: the RED metric families must label by the
// static route pattern, never by request data — a burst of distinct job
// ids must not grow any family, and no id may leak into the exposition.
func TestRouteLabelCardinality(t *testing.T) {
	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{
		Run: func(_ context.Context, s Spec) (map[string][]byte, error) { return fakeBlobs(s), nil },
	})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	rng := rand.New(rand.NewSource(99))
	randomID := func() string { return fmt.Sprintf("job-%d-%d", rng.Int63(), rng.Int63()) }

	// Prime every label combination this test can produce, then measure.
	// The id-bearing v2 routes ride along: {id}, {digest} and {name} must
	// label by pattern exactly like the v1 originals.
	hit := func(id string) {
		for _, probe := range []struct{ method, path string }{
			{"GET", "/v1/jobs/" + id},
			{"GET", "/v2/jobs/" + id},
			{"GET", "/v2/libraries/sha256:" + id},
			{"GET", "/v2/libraries/sha256:" + id + "/artifacts/" + id},
			{"POST", "/v2/libraries/sha256:" + id + "/query"},
		} {
			req, err := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	ids := []string{randomID()}
	hit(ids[0])
	reqBefore, flightBefore, latBefore := httpRequests.Len(), httpInFlight.Len(), httpLatency.Len()

	for i := 0; i < 100; i++ {
		id := randomID()
		ids = append(ids, id)
		hit(id)
	}
	if n := httpRequests.Len(); n != reqBefore {
		t.Errorf("http_requests_total grew %d -> %d series under random job ids", reqBefore, n)
	}
	if n := httpInFlight.Len(); n != flightBefore {
		t.Errorf("http_in_flight_requests grew %d -> %d series", flightBefore, n)
	}
	if n := httpLatency.Len(); n != latBefore {
		t.Errorf("http_request_duration_seconds grew %d -> %d series", latBefore, n)
	}

	exposition := string(getBytes(t, ts.URL+"/metrics"))
	for _, id := range ids {
		if strings.Contains(exposition, id) {
			t.Fatalf("raw job id %q leaked into /metrics", id)
		}
	}
	if !strings.Contains(exposition, `http_requests_total{route="GET /v1/jobs/{id}",code="4xx"}`) {
		t.Errorf("pattern-labeled 404 series missing from exposition")
	}
	for _, route := range []string{
		"GET /v2/jobs/{id}",
		"GET /v2/libraries/{digest}",
		"GET /v2/libraries/{digest}/artifacts/{name}",
		"POST /v2/libraries/{digest}/query",
	} {
		if !strings.Contains(exposition, fmt.Sprintf(`http_requests_total{route=%q,code="4xx"}`, route)) {
			t.Errorf("pattern-labeled series for %s missing from exposition", route)
		}
	}
}

// TestMetricsEndpoint: GET /metrics must be parseable format 0.0.4 and
// carry the per-route RED series after traffic.
func TestMetricsEndpoint(t *testing.T) {
	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{
		Run: func(_ context.Context, s Spec) (map[string][]byte, error) { return fakeBlobs(s), nil },
	})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	v := postJob(t, ts, Spec{Design: "mcu-small", Instances: 2, Seed: 7})
	j, _ := m.Job(v.ID)
	waitDone(t, j)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q lacks exposition version", ct)
	}
	samples, types, err := obs.ParsePrometheusText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if types["http_requests_total"] != "counter" || types["http_request_duration_seconds"] != "histogram" {
		t.Errorf("missing TYPE lines: %v", types)
	}
	var posts float64
	var infBucket bool
	for _, s := range samples {
		if s.Name == "http_requests_total" && s.Labels["route"] == "POST /v1/jobs" && s.Labels["code"] == "2xx" {
			posts += s.Value
		}
		if s.Name == "http_request_duration_seconds_bucket" && s.Labels["le"] == "+Inf" {
			infBucket = true
		}
	}
	if posts < 1 {
		t.Errorf("no POST /v1/jobs 2xx samples in exposition")
	}
	if !infBucket {
		t.Errorf("no +Inf duration bucket in exposition")
	}
}

// TestSSEKeepAlive: an idle event stream must carry ": ping" comment
// frames, and a consumer that sat through them still receives the
// terminal done event.
func TestSSEKeepAlive(t *testing.T) {
	oldKA := sseKeepAlive
	sseKeepAlive = 20 * time.Millisecond
	defer func() { sseKeepAlive = oldKA }()

	release := make(chan struct{})
	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{
		Run: func(ctx context.Context, s Spec) (map[string][]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return fakeBlobs(s), nil
		},
	})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	v := postJob(t, ts, Spec{Design: "mcu-small", Instances: 3})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type result struct {
		pings   int
		gotDone bool
	}
	resCh := make(chan result, 1)
	go func() {
		var res result
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, ": ping") {
				res.pings++
				if res.pings == 3 && res.gotDone == false {
					close(release) // job was idle through 3 keep-alives; let it finish
				}
			}
			if line == "event: done" {
				res.gotDone = true
				break
			}
		}
		resCh <- res
	}()

	select {
	case res := <-resCh:
		if res.pings < 3 {
			t.Errorf("saw %d keep-alive pings, want >= 3", res.pings)
		}
		if !res.gotDone {
			t.Error("stream ended without a done event")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream did not deliver pings + done in time")
	}
}

// TestRetryAfterClamped: sub-second admission hints must surface as
// Retry-After >= 1 (whole seconds, RFC 9110), never 0.
func TestRetryAfterClamped(t *testing.T) {
	for _, tc := range []struct {
		after time.Duration
		want  string
	}{
		{0, "1"},
		{5 * time.Millisecond, "1"},
		{time.Second, "1"},
		{2500 * time.Millisecond, "3"},
	} {
		rr := httptest.NewRecorder()
		writeError(rr, withRetryAfter(ErrRateLimited, tc.after))
		if rr.Code != http.StatusTooManyRequests {
			t.Errorf("after=%s: status %d, want 429", tc.after, rr.Code)
		}
		if got := rr.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("after=%s: Retry-After %q, want %q", tc.after, got, tc.want)
		}
	}
}
