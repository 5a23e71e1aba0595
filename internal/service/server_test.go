package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stdcelltune/internal/obs"
	"stdcelltune/internal/service/cache"
)

// smallSpec is the scaled-down request the round-trip tests use: the
// full pipeline, real, but minutes become milliseconds.
var smallSpec = Spec{
	Design: "mcu-small", Instances: 3, Seed: 1,
	Method: "sigma-ceiling", Bound: 0.02, ClockNS: 6,
}

func postJob(t *testing.T, ts *httptest.Server, spec Spec) JobView {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/jobs: %d %s", resp.StatusCode, data)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// awaitJob waits for the job's Done channel — readiness is an event,
// not a poll — then fetches the terminal document once over HTTP.
func awaitJob(t *testing.T, ts *httptest.Server, m *Manager, id string) JobView {
	t.Helper()
	j, ok := m.Job(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second): // backstop only; never paces the test
		t.Fatalf("job %s did not finish", id)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, data)
	}
	return data
}

// TestServerRoundTrip is the acceptance test of the tentpole: a cold
// HTTP job computes the real pipeline; its artifacts are byte-identical
// to a direct library call; a warm identical job is served from the
// cache — hit counter up, zero new robust-pool tasks — with the same
// bytes again.
func TestServerRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline over HTTP")
	}
	// The reference result, straight through the facade, no daemon.
	direct, err := Run(context.Background(), smallSpec)
	if err != nil {
		t.Fatal(err)
	}

	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{Trace: true})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	cold := postJob(t, ts, smallSpec)
	if cold.Status != StatusQueued && cold.Status != StatusRunning {
		t.Fatalf("fresh job status %s", cold.Status)
	}
	done := awaitJob(t, ts, m, cold.ID)
	if done.Status != StatusDone {
		t.Fatalf("cold job failed: %s (%d)", done.Error, done.HTTPCode)
	}
	if done.Outcome != "miss" {
		t.Fatalf("cold outcome %q, want miss", done.Outcome)
	}
	if len(done.Artifacts) != len(direct) {
		t.Fatalf("job lists %d artifacts, direct run produced %d", len(done.Artifacts), len(direct))
	}

	// Byte identity, cold path vs direct library call, every artifact.
	for name, want := range direct {
		got := getBytes(t, ts.URL+"/v1/artifacts/"+done.Digest+"/"+name)
		if !bytes.Equal(got, want) {
			t.Errorf("artifact %s over HTTP differs from direct library call (%d vs %d bytes)", name, len(got), len(want))
		}
	}

	// Warm path: same spec again. No pipeline work may happen — the
	// stage counters are the witness that nothing recomputed.
	charRuns, synthRuns := characterizeRuns.Value(), synthesizeRuns.Value()
	hits := obs.Default().Counter("service.cache_hits").Value()
	warm := awaitJob(t, ts, m, postJob(t, ts, smallSpec).ID)
	if warm.Status != StatusDone || warm.Outcome != "hit" {
		t.Fatalf("warm job: status %s outcome %q, want done/hit", warm.Status, warm.Outcome)
	}
	if got := characterizeRuns.Value(); got != charRuns {
		t.Errorf("warm request ran characterize %d times, want 0", got-charRuns)
	}
	if got := synthesizeRuns.Value(); got != synthRuns {
		t.Errorf("warm request ran synthesize %d times, want 0", got-synthRuns)
	}
	if got := obs.Default().Counter("service.cache_hits").Value(); got != hits+1 {
		t.Errorf("cache-hit counter %d -> %d, want +1", hits, got)
	}
	for name, want := range direct {
		got := getBytes(t, ts.URL+"/v1/artifacts/"+warm.Digest+"/"+name)
		if !bytes.Equal(got, want) {
			t.Errorf("warm artifact %s differs from cold/direct bytes", name)
		}
	}

	// The artifact index lists the entry under its digest.
	var index struct {
		Digest    string         `json:"digest"`
		Artifacts []ArtifactView `json:"artifacts"`
	}
	if err := json.Unmarshal(getBytes(t, ts.URL+"/v1/artifacts/"+done.Digest), &index); err != nil {
		t.Fatal(err)
	}
	if index.Digest != smallSpec.Digest() || len(index.Artifacts) != len(direct) {
		t.Fatalf("artifact index: %+v", index)
	}
}

// TestServerEventsSSE: the events endpoint streams the job's pipeline
// spans and terminates with a done event carrying the job document.
func TestServerEventsSSE(t *testing.T) {
	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{
		Trace: true,
		Run: func(ctx context.Context, s Spec) (map[string][]byte, error) {
			tr := obs.TracerFrom(ctx)
			for _, stage := range []string{"characterize", "tune", "synthesize"} {
				tr.Start(stage, "service").End()
			}
			return map[string][]byte{"result.json": []byte("{}\n")}, nil
		},
	})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	v := postJob(t, ts, Spec{})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var spanNames []string
	var gotDone bool
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() && !gotDone {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "span":
				var ev obs.SpanEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("span event not JSON: %v in %q", err, data)
				}
				spanNames = append(spanNames, ev.Name)
			case "done":
				var final JobView
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("done event not a job view: %v", err)
				}
				if final.Status != StatusDone {
					t.Fatalf("done event status %s", final.Status)
				}
				gotDone = true
			}
		}
	}
	if !gotDone {
		t.Fatal("no done event before stream end")
	}
	// The manager's root "job" span ends last, after the pipeline spans.
	want := []string{"characterize", "tune", "synthesize", "job"}
	if fmt.Sprint(spanNames) != fmt.Sprint(want) {
		t.Fatalf("span events %v, want %v", spanNames, want)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{
		Run: func(_ context.Context, s Spec) (map[string][]byte, error) {
			return map[string][]byte{"r": []byte("x")}, nil
		},
	})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	for _, body := range []string{
		`{"corner":"nominal"}`,     // invalid enum
		`{"clock_ns":"fast"}`,      // type mismatch
		`{"unknown_field":1}`,      // schema violation
		`{"schema":"other-api/9"}`, // wrong schema version
		`not json`,                 // unparsable
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorDoc
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Status != http.StatusBadRequest {
			t.Errorf("body %q: status %d/%d, want 400", body, resp.StatusCode, e.Status)
		}
	}
	for _, url := range []string{"/v1/jobs/nope", "/v1/artifacts/sha256:nope", "/v1/artifacts/sha256:nope/x"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", url, resp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{Run: func(_ context.Context, s Spec) (map[string][]byte, error) {
		return map[string][]byte{"r": []byte("x")}, nil
	}})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()
	var h struct {
		OK      bool     `json:"ok"`
		Schema  string   `json:"schema"`
		Methods []string `json:"methods"`
	}
	if err := json.Unmarshal(getBytes(t, ts.URL+"/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Schema != SchemaSpec || len(h.Methods) != 5 {
		t.Fatalf("healthz %+v", h)
	}
}
