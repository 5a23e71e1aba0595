package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"stdcelltune/internal/query"
	"stdcelltune/internal/service/cache"
	"stdcelltune/internal/sta"
)

// v2Env is the envelope shape every failing /v2 route must return.
type v2Env struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"request_id"`
	} `json:"error"`
}

func doReq(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestV2ErrorEnvelope: every failing api/2 route answers with the one
// envelope — {"error": {code, message, request_id}} — with the code
// slug matching the failure class and the request id matching the
// response header's.
func TestV2ErrorEnvelope(t *testing.T) {
	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{
		Run: func(_ context.Context, s Spec) (map[string][]byte, error) { return fakeBlobs(s), nil },
	})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	cases := []struct {
		method, path string
		body         []byte
		status       int
		code         string
	}{
		{"GET", "/v2/jobs/nope", nil, 404, "not_found"},
		{"DELETE", "/v2/jobs/nope", nil, 404, "not_found"},
		{"GET", "/v2/jobs/nope/events", nil, 404, "not_found"},
		{"GET", "/v2/jobs/nope/trace", nil, 404, "not_found"},
		{"GET", "/v2/libraries/sha256:nope", nil, 404, "not_found"},
		{"GET", "/v2/libraries/sha256:nope/artifacts/x", nil, 404, "not_found"},
		{"POST", "/v2/libraries/sha256:nope/query", []byte(`{"schema":"stdcelltune-query/1","from":"cells"}`), 404, "not_found"},
		{"POST", "/v2/jobs", []byte(`{"unknown_field":1}`), 400, "bad_spec"},
		{"POST", "/v2/jobs", []byte(`not json`), 400, "bad_spec"},
		{"GET", "/v2/jobs?limit=banana", nil, 400, "bad_query"},
		{"GET", "/v2/jobs?cursor=bogus", nil, 400, "bad_query"},
	}
	for _, tc := range cases {
		resp, data := doReq(t, tc.method, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.method, tc.path, resp.StatusCode, tc.status, data)
			continue
		}
		var env v2Env
		if err := json.Unmarshal(data, &env); err != nil {
			t.Errorf("%s %s: body not an error envelope: %v in %s", tc.method, tc.path, err, data)
			continue
		}
		if env.Error.Code != tc.code {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, env.Error.Code, tc.code)
		}
		if env.Error.Message == "" {
			t.Errorf("%s %s: empty message", tc.method, tc.path)
		}
		if hdr := resp.Header.Get("X-Request-ID"); env.Error.RequestID != hdr || hdr == "" {
			t.Errorf("%s %s: envelope request_id %q != header %q", tc.method, tc.path, env.Error.RequestID, hdr)
		}
	}
}

// TestV2JobLifecycle: submit, fetch, cancel through the v2 prefix.
func TestV2JobLifecycle(t *testing.T) {
	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{
		Run: func(_ context.Context, s Spec) (map[string][]byte, error) { return fakeBlobs(s), nil },
	})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	body, _ := json.Marshal(Spec{Design: "mcu-small", Instances: 3, Seed: 1})
	resp, data := doReq(t, "POST", ts.URL+"/v2/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/jobs: %d %s", resp.StatusCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	j, ok := m.Job(v.ID)
	if !ok {
		t.Fatalf("job %s not registered", v.ID)
	}
	waitDone(t, j)

	resp, data = doReq(t, "GET", ts.URL+"/v2/jobs/"+v.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/jobs/{id}: %d", resp.StatusCode)
	}
	var got JobView
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || got.ID != v.ID {
		t.Fatalf("job view %+v", got)
	}
	if resp, _ := doReq(t, "DELETE", ts.URL+"/v2/jobs/"+v.ID, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE /v2/jobs/{id}: %d", resp.StatusCode)
	}
}

// TestV2JobsPagination: the jobs list pages by opaque cursor in accept
// order; walking pages yields every job exactly once; the terminal page
// has no next_cursor.
func TestV2JobsPagination(t *testing.T) {
	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{
		Run: func(_ context.Context, s Spec) (map[string][]byte, error) { return fakeBlobs(s), nil },
	})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	var want []string
	for i := 0; i < 7; i++ {
		j, err := m.Submit(Spec{Design: "mcu-small", Instances: 2, Seed: int64(i + 1)}, "")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, j.ID)
		waitDone(t, j)
	}

	var got []string
	cursor := ""
	pages := 0
	for {
		url := ts.URL + "/v2/jobs?limit=3"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, data := doReq(t, "GET", url, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v2/jobs: %d %s", resp.StatusCode, data)
		}
		var page struct {
			Jobs       []JobView `json:"jobs"`
			NextCursor string    `json:"next_cursor"`
		}
		if err := json.Unmarshal(data, &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Jobs) > 3 {
			t.Fatalf("page of %d jobs, limit was 3", len(page.Jobs))
		}
		for _, v := range page.Jobs {
			got = append(got, v.ID)
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if pages > 10 {
			t.Fatal("cursor never terminated")
		}
	}
	if pages != 3 {
		t.Errorf("walked %d pages of limit 3 over 7 jobs, want 3", pages)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("paged ids %v != accept order %v", got, want)
	}
}

// queryLib runs the real pipeline once over HTTP and returns the
// library digest — the fixture for the query-endpoint tests.
func queryLib(t *testing.T, ts *httptest.Server, m *Manager, spec Spec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, data := doReq(t, "POST", ts.URL+"/v2/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/jobs: %d %s", resp.StatusCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	j, ok := m.Job(v.ID)
	if !ok {
		t.Fatalf("job %s not registered", v.ID)
	}
	select {
	case <-j.Done():
	case <-t.Context().Done():
		t.Fatal("test deadline while running pipeline")
	}
	done := j.View()
	if done.Status != StatusDone {
		t.Fatalf("pipeline job failed: %s", done.Error)
	}
	return done.Digest
}

func postQuery(t *testing.T, ts *httptest.Server, dig, doc string) (*http.Response, []byte) {
	t.Helper()
	return doReq(t, "POST", ts.URL+"/v2/libraries/"+dig+"/query", []byte(doc))
}

// TestV2QueryEndToEnd is the acceptance test of the tentpole over HTTP:
// a real pipeline run becomes a queryable library; table queries,
// pagination, and what-if substitution all answer through
// POST /v2/libraries/{digest}/query; results are cached by
// (library, normalized query) with byte-identical warm hits; and the
// what-if runs incrementally — zero re-synthesis, one full STA pass.
func TestV2QueryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline over HTTP")
	}
	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	dig := queryLib(t, ts, m, smallSpec)

	// The library lists under /v2/libraries and serves an artifact index.
	var libs struct {
		Libraries []string `json:"libraries"`
	}
	if err := json.Unmarshal(getBytes(t, ts.URL+"/v2/libraries"), &libs); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(libs.Libraries) != fmt.Sprintf("[%s]", dig) {
		t.Fatalf("libraries %v, want [%s]", libs.Libraries, dig)
	}
	var index struct {
		Digest    string         `json:"digest"`
		Artifacts []ArtifactView `json:"artifacts"`
	}
	if err := json.Unmarshal(getBytes(t, ts.URL+"/v2/libraries/"+dig), &index); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, a := range index.Artifacts {
		names[a.Name] = true
	}
	if !names[ArtifactNetlist] || !names[ArtifactSpec] || !names[ArtifactStatLib] {
		t.Fatalf("artifact index lacks query-layer inputs: %+v", index.Artifacts)
	}

	// Cold table query: group instances by family.
	const groupQ = `{"schema":"stdcelltune-query/1","from":"instances","group_by":["family"],"aggregate":[{"op":"count"},{"op":"sum","col":"area_um2"}]}`
	resp, cold := postQuery(t, ts, dig, groupQ)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold query: %d %s", resp.StatusCode, cold)
	}
	if oc := resp.Header.Get("X-Query-Cache"); oc != "miss" {
		t.Fatalf("cold query X-Query-Cache %q, want miss", oc)
	}
	var res struct {
		Schema    string      `json:"schema"`
		Library   string      `json:"library"`
		Columns   []query.Col `json:"columns"`
		Rows      [][]any     `json:"rows"`
		TotalRows int         `json:"total_rows"`
	}
	if err := json.Unmarshal(cold, &res); err != nil {
		t.Fatal(err)
	}
	if res.Schema != query.SchemaResult || res.Library != dig || len(res.Rows) == 0 {
		t.Fatalf("query result %s", cold)
	}

	// Satellite: warm hit is byte-identical and reported as a hit.
	resp, warm := postQuery(t, ts, dig, groupQ)
	if oc := resp.Header.Get("X-Query-Cache"); oc != "hit" {
		t.Fatalf("warm query X-Query-Cache %q, want hit", oc)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm query bytes differ from cold:\n%s\nvs\n%s", cold, warm)
	}

	// Satellite: a semantically identical document — different key
	// order, whitespace, operator case — normalizes to the same cache
	// key and hits.
	variant := `{
		"aggregate": [ {"op":"COUNT"}, {"col":"area_um2","op":"Sum"} ],
		"group_by":  [ "family" ],
		"from": "instances",
		"schema": "stdcelltune-query/1"
	}`
	resp, varBody := postQuery(t, ts, dig, variant)
	if oc := resp.Header.Get("X-Query-Cache"); oc != "hit" {
		t.Fatalf("variant query X-Query-Cache %q, want hit", oc)
	}
	if !bytes.Equal(cold, varBody) {
		t.Fatal("normalized variant served different bytes")
	}

	// Pagination slices the cached result at serve time: pages
	// concatenate to the full row set, and limit/cursor never change the
	// cache key (every page is a hit).
	full := res.Rows
	var paged [][]any
	cursor := ""
	for {
		doc := fmt.Sprintf(`{"schema":"stdcelltune-query/1","from":"instances","group_by":["family"],"aggregate":[{"op":"count"},{"op":"sum","col":"area_um2"}],"limit":1,"cursor":%q}`, cursor)
		resp, data := postQuery(t, ts, dig, doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("paged query: %d %s", resp.StatusCode, data)
		}
		if oc := resp.Header.Get("X-Query-Cache"); oc != "hit" {
			t.Fatalf("paged query X-Query-Cache %q, want hit (pagination must not perturb the cache key)", oc)
		}
		var page struct {
			Rows       [][]any `json:"rows"`
			TotalRows  int     `json:"total_rows"`
			NextCursor string  `json:"next_cursor"`
		}
		if err := json.Unmarshal(data, &page); err != nil {
			t.Fatal(err)
		}
		if page.TotalRows != len(full) {
			t.Fatalf("page total_rows %d, want %d", page.TotalRows, len(full))
		}
		paged = append(paged, page.Rows...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if fmt.Sprint(paged) != fmt.Sprint(full) {
		t.Fatalf("paged rows %v != full rows %v", paged, full)
	}

	// What-if substitution over HTTP: answered by incremental
	// reanalysis — exactly one full STA pass for the baseline, zero
	// pipeline re-runs (the stage counters are the witness that no
	// re-characterization or re-synthesis happened; the what-if's own
	// statistical timing may use the worker pool at any core count).
	charBefore, synthBefore := characterizeRuns.Value(), synthesizeRuns.Value()
	resp, wi := postQuery(t, ts, dig, `{"schema":"stdcelltune-query/1","what_if":{"op":"substitute","from":"OR2_1","to":"OR2_2"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("what-if: %d %s", resp.StatusCode, wi)
	}
	var wr query.WhatIfResult
	if err := json.Unmarshal(wi, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Schema != query.SchemaWhatIf || wr.Op != "substitute" {
		t.Fatalf("what-if result %s", wi)
	}
	if wr.FullAnalyses != 1 {
		t.Errorf("what-if ran %d full analyses, want exactly 1 (baseline)", wr.FullAnalyses)
	}
	if got := characterizeRuns.Value(); got != charBefore {
		t.Errorf("what-if ran characterize %d times, want 0", got-charBefore)
	}
	if got := synthesizeRuns.Value(); got != synthBefore {
		t.Errorf("what-if ran synthesize %d times, want 0", got-synthBefore)
	}

	// Warm what-if: served from cache without touching the engine at all.
	fullBefore := sta.FullAnalyses()
	resp, wi2 := postQuery(t, ts, dig, `{"schema":"stdcelltune-query/1","what_if":{"op":"substitute","from":"OR2_1","to":"OR2_2"}}`)
	if oc := resp.Header.Get("X-Query-Cache"); oc != "hit" {
		t.Fatalf("warm what-if X-Query-Cache %q, want hit", oc)
	}
	if !bytes.Equal(wi, wi2) {
		t.Fatal("warm what-if bytes differ")
	}
	if got := sta.FullAnalyses(); got != fullBefore {
		t.Errorf("warm what-if ran %d full STA analyses, want 0", got-fullBefore)
	}

	// Bad query documents are rejected with the envelope, not cached.
	resp, data := postQuery(t, ts, dig, `{"schema":"stdcelltune-query/1","from":"nonsense"}`)
	var env v2Env
	json.Unmarshal(data, &env)
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_query" {
		t.Errorf("bad table: %d code %q, want 400 bad_query", resp.StatusCode, env.Error.Code)
	}

	// Satellite: a different library digest misses — the cache key binds
	// the result to the exact library it was computed from.
	spec2 := smallSpec
	spec2.Seed = 2
	dig2 := queryLib(t, ts, m, spec2)
	if dig2 == dig {
		t.Fatal("fixture: different seed produced the same digest")
	}
	resp, other := postQuery(t, ts, dig2, groupQ)
	if oc := resp.Header.Get("X-Query-Cache"); oc != "miss" {
		t.Fatalf("same query against mutated library: X-Query-Cache %q, want miss", oc)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query against second library: %d %s", resp.StatusCode, other)
	}
}

// TestV2QueryNotQueryable: a cache entry without the pipeline's
// artifact set (here: a fake run) exists but cannot back a query store
// — the query route answers 409 with the not_queryable code rather
// than 500.
func TestV2QueryNotQueryable(t *testing.T) {
	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{
		Run: func(_ context.Context, s Spec) (map[string][]byte, error) { return fakeBlobs(s), nil },
	})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	spec := Spec{Design: "mcu-small", Instances: 2, Seed: 5}
	j, err := m.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	resp, data := doReq(t, "POST", ts.URL+"/v2/libraries/"+j.Digest+"/query",
		[]byte(`{"schema":"stdcelltune-query/1","from":"cells"}`))
	var env v2Env
	json.Unmarshal(data, &env)
	if resp.StatusCode != http.StatusConflict || env.Error.Code != "not_queryable" {
		t.Fatalf("query on non-library entry: %d code %q, want 409 not_queryable (%s)", resp.StatusCode, env.Error.Code, data)
	}

	// And it does not appear in the libraries listing.
	var libs struct {
		Libraries []string `json:"libraries"`
	}
	if err := json.Unmarshal(getBytes(t, ts.URL+"/v2/libraries"), &libs); err != nil {
		t.Fatal(err)
	}
	for _, d := range libs.Libraries {
		if d == j.Digest {
			t.Errorf("non-library entry %s listed under /v2/libraries", d)
		}
	}
}

// TestRoutesCoverHandler: the exported route table and the mounted
// handler agree — every declared non-cluster route answers something
// other than the mux's bare 404, and cluster routes stay unmounted on
// a single-node manager.
func TestRoutesCoverHandler(t *testing.T) {
	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{
		Run: func(_ context.Context, s Spec) (map[string][]byte, error) { return fakeBlobs(s), nil },
	})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	for _, rt := range Routes() {
		parts := strings.SplitN(rt.Pattern, " ", 2)
		method, path := parts[0], parts[1]
		path = strings.NewReplacer("{id}", "probe", "{digest}", "sha256:probe", "{name}", "probe").Replace(path)
		resp, _ := doReq(t, method, ts.URL+path, []byte(`{}`))
		if rt.Cluster {
			// Cluster routes must 404 via the mux (plain text), since the
			// manager has no coordinator.
			if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusNotFound || strings.Contains(ct, "json") {
				t.Errorf("%s: cluster route mounted on single-node manager (status %d, ct %q)", rt.Pattern, resp.StatusCode, ct)
			}
			continue
		}
		// Mounted routes always answer JSON, SSE, or Prometheus text —
		// never the mux's bare "404 page not found" text/plain fallback.
		if resp.StatusCode == http.StatusNotFound {
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
				t.Errorf("%s: not mounted (bare mux 404, ct %q)", rt.Pattern, ct)
			}
		}
	}
}

// specRoutes parses the fenced ```routes blocks of an API spec: one
// "METHOD /path" per line, " [cluster]"-suffixed for coordinator-only
// routes. A malformed or repeated line is an error.
func specRoutes(spec string) (map[string]bool, error) {
	routes := map[string]bool{}
	inBlock := false
	for ln, line := range strings.Split(spec, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "```routes":
			inBlock = true
		case trimmed == "```":
			inBlock = false
		case inBlock && trimmed != "":
			parts := strings.Fields(strings.TrimSuffix(trimmed, " [cluster]"))
			if len(parts) != 2 || !strings.HasPrefix(parts[1], "/") {
				return nil, fmt.Errorf("line %d: malformed route %q (want \"METHOD /path\")", ln+1, trimmed)
			}
			if routes[trimmed] {
				return nil, fmt.Errorf("line %d: duplicate route %q", ln+1, trimmed)
			}
			routes[trimmed] = true
		}
	}
	return routes, nil
}

// TestAPISpecMatchesRoutes: docs/API.md is the normative API spec. Its
// routes blocks and the table the daemon compiles its mux from are the
// same set: a route served but not documented fails, and so does one
// documented but not served.
func TestAPISpecMatchesRoutes(t *testing.T) {
	data, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	documented, err := specRoutes(string(data))
	if err != nil {
		t.Fatalf("docs/API.md: %v", err)
	}
	if len(documented) == 0 {
		t.Fatal("docs/API.md has no routes blocks")
	}
	served := map[string]bool{}
	for _, rt := range Routes() {
		key := rt.Pattern
		if rt.Cluster {
			key += " [cluster]"
		}
		served[key] = true
		if !documented[key] {
			t.Errorf("served route %q is not documented in docs/API.md", key)
		}
	}
	for key := range documented {
		if !served[key] {
			t.Errorf("docs/API.md documents %q, which the daemon does not serve", key)
		}
	}
	for _, bad := range []string{
		"```routes\nGET\n```",
		"```routes\nGET /v2/jobs extra\n```",
		"```routes\nGET v2/jobs\n```",
		"```routes\nGET /v2/jobs\nGET /v2/jobs\n```",
	} {
		if _, err := specRoutes(bad); err == nil {
			t.Errorf("specRoutes accepted %q", bad)
		}
	}
}
