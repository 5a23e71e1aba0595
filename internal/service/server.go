package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"stdcelltune"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/query"
	"stdcelltune/internal/service/shard"
)

// SchemaAPI2 is the stdcelltune-api/2 surface identifier: one error
// envelope, one pagination scheme, one digest-addressed naming
// convention across jobs, libraries, queries and cluster nodes.
const SchemaAPI2 = "stdcelltune-api/2"

// StatusClientClosedRequest is the nginx-convention status for a
// request abandoned by cancellation; net/http has no constant for it.
const StatusClientClosedRequest = 499

// ErrNotFound marks a missing resource (job, library, artifact); the
// HTTP layer maps it to 404.
var ErrNotFound = errors.New("not found")

// HTTPStatus maps a pipeline or service error to an HTTP status via
// errors.Is over the typed sentinels. This single function is the whole
// error contract of the API: the facade promises the sentinels survive
// wrapping, and the daemon promises these mappings.
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrBadSpec), errors.Is(err, query.ErrBadQuery):
		return http.StatusBadRequest // 400
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound // 404
	case errors.Is(err, ErrRateLimited), errors.Is(err, ErrTenantQuota):
		return http.StatusTooManyRequests // 429, Retry-After when the error carries one
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull), errors.Is(err, ErrCircuitOpen):
		return http.StatusServiceUnavailable // 503
	case errors.Is(err, stdcelltune.ErrWindowInfeasible), errors.Is(err, ErrNotQueryable), errors.Is(err, query.ErrNoDesign):
		return http.StatusConflict // 409: the request is well-formed but contradicts the resource's state
	case errors.Is(err, stdcelltune.ErrQuarantined):
		return http.StatusUnprocessableEntity // 422: inputs degenerate beyond the quarantine limit
	case errors.Is(err, stdcelltune.ErrCancelled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return StatusClientClosedRequest // 499
	default:
		return http.StatusInternalServerError // 500
	}
}

// ErrorCode maps an error to its stdcelltune-api/2 machine-readable
// code slug — the stable contract clients switch on (messages are for
// humans and may change).
func ErrorCode(err error) string {
	switch {
	case errors.Is(err, ErrBadSpec):
		return "bad_spec"
	case errors.Is(err, query.ErrBadQuery):
		return "bad_query"
	case errors.Is(err, ErrNotFound):
		return "not_found"
	case errors.Is(err, ErrRateLimited):
		return "rate_limited"
	case errors.Is(err, ErrTenantQuota):
		return "tenant_quota"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrCircuitOpen):
		return "circuit_open"
	case errors.Is(err, ErrNotQueryable), errors.Is(err, query.ErrNoDesign):
		return "not_queryable"
	case errors.Is(err, stdcelltune.ErrWindowInfeasible):
		return "window_infeasible"
	case errors.Is(err, stdcelltune.ErrQuarantined):
		return "quarantined"
	case errors.Is(err, stdcelltune.ErrCancelled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	default:
		return "internal"
	}
}

// errorDoc is the api/1 JSON error body, preserved byte-for-byte under
// the /v1 compatibility shims.
type errorDoc struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// errorEnvelope is the api/2 error body: every /v2 route that fails
// returns exactly this shape.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// maxQueryBody bounds a query document read; a filter/aggregate
// document is hundreds of bytes, so 1 MiB is generous headroom, not a
// real limit.
const maxQueryBody = 1 << 20

// Pagination bounds of the api/2 list endpoints.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// RouteInfo describes one served route: the mux pattern (which doubles
// as the RED-metric label) and whether it only mounts on cluster
// coordinators.
type RouteInfo struct {
	Pattern string
	Cluster bool
}

// route is one route-table entry: the pattern, its mount condition,
// and the handler builder.
type route struct {
	pattern string
	cluster bool
	build   func(*Manager) http.HandlerFunc
}

// Routes returns the full route table of the daemon as served by
// Handler — the machine-readable API surface. TestAPISpecMatchesRoutes
// cross-checks docs/API.md against exactly this list, so the spec can
// never silently drift from the code.
func Routes() []RouteInfo {
	table := routeTable()
	out := make([]RouteInfo, len(table))
	for i, rt := range table {
		out[i] = RouteInfo{Pattern: rt.pattern, Cluster: rt.cluster}
	}
	return out
}

// Handler builds the daemon's HTTP surface over a manager from the
// declarative route table:
//
// stdcelltune-api/2 (the primary surface — error envelope
// {"error": {"code", "message", "request_id"}}, cursor pagination via
// ?limit=&cursor=, digest-addressed libraries):
//
//	POST   /v2/jobs                  submit a Spec, 202 + job document
//	GET    /v2/jobs                  list jobs (paginated)
//	GET    /v2/jobs/{id}             job document
//	DELETE /v2/jobs/{id}             cancel, 202 + job document
//	GET    /v2/jobs/{id}/events      SSE stream of pipeline span events
//	GET    /v2/jobs/{id}/trace       Chrome trace-event JSON
//	GET    /v2/libraries             list cached library digests
//	GET    /v2/libraries/{digest}    artifact index of one library
//	GET    /v2/libraries/{digest}/artifacts/{name}  artifact bytes
//	POST   /v2/libraries/{digest}/query             run a query document
//
// stdcelltune-api/1 (deprecated, kept as byte-identical compatibility
// shims; see docs/API.md):
//
//	POST   /v1/jobs                 GET /v1/jobs
//	GET    /v1/jobs/{id}            DELETE /v1/jobs/{id}
//	GET    /v1/jobs/{id}/events     GET /v1/jobs/{id}/trace
//	GET    /v1/artifacts            GET /v1/artifacts/{digest}
//	GET    /v1/artifacts/{digest}/{name}
//
// When the manager carries a cluster coordinator, the shard protocol
// mounts alongside (absent on single-node daemons):
//
//	POST   /v1/cluster/nodes            worker registration
//	POST   /v1/cluster/lease            lease a shard task (204 = no work), or renew one (409 = stale lease)
//	POST   /v1/cluster/complete         report a shard result (409 = stale lease)
//	GET    /v1/cluster                  coordinator statistics
//	GET    /v1/cluster/shards/{digest}  retained shard set of a finished job
//
// Unversioned: GET /healthz (liveness + queue snapshot) and
// GET /metrics (Prometheus text exposition, format 0.0.4).
//
// Every route is wrapped by the instrument middleware: the mux pattern
// doubles as the RED-metric route label, and each request carries an
// accepted-or-minted X-Request-ID.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	cluster := m.Cluster() != nil
	for _, rt := range routeTable() {
		if rt.cluster && !cluster {
			continue
		}
		mux.HandleFunc(rt.pattern, instrument(rt.pattern, rt.build(m)))
	}
	return mux
}

// routeTable declares every route of the daemon. Order is
// documentation order; the mux matches by pattern specificity, not
// position.
func routeTable() []route {
	return []route{
		// --- stdcelltune-api/2 ---------------------------------------
		{pattern: "POST /v2/jobs", build: handleV2SubmitJob},
		{pattern: "GET /v2/jobs", build: handleV2ListJobs},
		{pattern: "GET /v2/jobs/{id}", build: handleV2GetJob},
		{pattern: "DELETE /v2/jobs/{id}", build: handleV2CancelJob},
		{pattern: "GET /v2/jobs/{id}/events", build: handleV2JobEvents},
		{pattern: "GET /v2/jobs/{id}/trace", build: handleV2JobTrace},
		{pattern: "GET /v2/libraries", build: handleV2ListLibraries},
		{pattern: "GET /v2/libraries/{digest}", build: handleV2GetLibrary},
		{pattern: "GET /v2/libraries/{digest}/artifacts/{name}", build: handleV2GetArtifact},
		{pattern: "POST /v2/libraries/{digest}/query", build: handleV2Query},

		// --- stdcelltune-api/1 compatibility shims -------------------
		{pattern: "POST /v1/jobs", build: handleV1SubmitJob},
		{pattern: "GET /v1/jobs", build: handleV1ListJobs},
		{pattern: "GET /v1/jobs/{id}", build: handleV1GetJob},
		{pattern: "DELETE /v1/jobs/{id}", build: handleV1CancelJob},
		{pattern: "GET /v1/jobs/{id}/events", build: handleV1JobEvents},
		{pattern: "GET /v1/jobs/{id}/trace", build: handleV1JobTrace},
		{pattern: "GET /v1/artifacts", build: handleV1ListArtifacts},
		{pattern: "GET /v1/artifacts/{digest}", build: handleV1GetArtifactSet},
		{pattern: "GET /v1/artifacts/{digest}/{name}", build: handleV1GetArtifact},

		// --- cluster shard protocol (coordinator-only) ---------------
		{pattern: "POST /v1/cluster/nodes", cluster: true, build: handleClusterRegister},
		{pattern: "POST /v1/cluster/lease", cluster: true, build: handleClusterLease},
		{pattern: "POST /v1/cluster/complete", cluster: true, build: handleClusterComplete},
		{pattern: "GET /v1/cluster", cluster: true, build: handleClusterStats},
		{pattern: "GET /v1/cluster/shards/{digest}", cluster: true, build: handleClusterShards},

		// --- unversioned ---------------------------------------------
		{pattern: "GET /healthz", build: handleHealthz},
		{pattern: "GET /metrics", build: handleMetrics},
	}
}

// --- api/2 handlers --------------------------------------------------

func handleV2SubmitJob(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeErrorV2(w, r, fmt.Errorf("%w: %v", ErrBadSpec, err))
			return
		}
		j, err := m.SubmitTagged(spec, r.Header.Get("X-API-Key"), RequestIDFrom(r.Context()))
		if err != nil {
			writeErrorV2(w, r, err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.View())
	}
}

// pageParams parses the api/2 ?limit=&cursor= pair. A missing limit
// defaults to defaultPageLimit; 0 and anything above maxPageLimit
// clamp to maxPageLimit.
func pageParams(r *http.Request) (int, string, error) {
	limit := defaultPageLimit
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return 0, "", fmt.Errorf("%w: bad limit %q", query.ErrBadQuery, s)
		}
		limit = n
	}
	if limit == 0 || limit > maxPageLimit {
		limit = maxPageLimit
	}
	return limit, r.URL.Query().Get("cursor"), nil
}

func handleV2ListJobs(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		limit, cursor, err := pageParams(r)
		if err != nil {
			writeErrorV2(w, r, err)
			return
		}
		jobs, next, err := m.JobsPage(limit, cursor)
		if err != nil {
			writeErrorV2(w, r, err)
			return
		}
		views := make([]JobView, len(jobs))
		for i, j := range jobs {
			views[i] = j.View()
		}
		writeJSON(w, http.StatusOK, struct {
			Jobs       []JobView `json:"jobs"`
			NextCursor string    `json:"next_cursor,omitempty"`
		}{views, next})
	}
}

func handleV2GetJob(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeErrorV2(w, r, fmt.Errorf("%w: no such job", ErrNotFound))
			return
		}
		writeJSON(w, http.StatusOK, j.View())
	}
}

func handleV2CancelJob(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeErrorV2(w, r, fmt.Errorf("%w: no such job", ErrNotFound))
			return
		}
		j.Cancel()
		writeJSON(w, http.StatusAccepted, j.View())
	}
}

func handleV2JobEvents(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeErrorV2(w, r, fmt.Errorf("%w: no such job", ErrNotFound))
			return
		}
		serveEvents(w, r, j)
	}
}

func handleV2JobTrace(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeErrorV2(w, r, fmt.Errorf("%w: no such job", ErrNotFound))
			return
		}
		tr := j.Tracer()
		if tr == nil {
			writeErrorV2(w, r, fmt.Errorf("%w: no trace for job (tracing disabled or job not started)", ErrNotFound))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		tr.WriteChromeTrace(w)
	}
}

func handleV2ListLibraries(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Libraries []string `json:"libraries"`
		}{m.Libraries()})
	}
}

func handleV2GetLibrary(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, ok := m.Store().Peek(r.PathValue("digest"))
		if !ok || e.Artifact(ArtifactSpec) == nil {
			writeErrorV2(w, r, fmt.Errorf("%w: no such library", ErrNotFound))
			return
		}
		views := make([]ArtifactView, len(e.Artifacts))
		for i, a := range e.Artifacts {
			views[i] = ArtifactView{Name: a.Name, SHA256: a.SHA256, Size: a.Size}
		}
		writeJSON(w, http.StatusOK, struct {
			Digest    string         `json:"digest"`
			Artifacts []ArtifactView `json:"artifacts"`
		}{e.Digest, views})
	}
}

func handleV2GetArtifact(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, ok := m.Store().Peek(r.PathValue("digest"))
		if !ok || e.Artifact(ArtifactSpec) == nil {
			writeErrorV2(w, r, fmt.Errorf("%w: no such library", ErrNotFound))
			return
		}
		a := e.Artifact(r.PathValue("name"))
		if a == nil {
			writeErrorV2(w, r, fmt.Errorf("%w: no such artifact", ErrNotFound))
			return
		}
		data, err := a.Bytes()
		if err != nil { // lost from disk: the entry is gone, answer as a miss
			writeErrorV2(w, r, fmt.Errorf("%w: no such library", ErrNotFound))
			return
		}
		serveArtifact(w, a.Name, a.SHA256, data)
	}
}

func handleV2Query(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBody+1))
		if err != nil {
			writeErrorV2(w, r, fmt.Errorf("%w: read body: %v", query.ErrBadQuery, err))
			return
		}
		if len(raw) > maxQueryBody {
			writeErrorV2(w, r, fmt.Errorf("%w: query document exceeds %d bytes", query.ErrBadQuery, maxQueryBody))
			return
		}
		doc, outcome, err := m.ExecuteQuery(r.Context(), r.PathValue("digest"), raw)
		if err != nil {
			writeErrorV2(w, r, err)
			return
		}
		// The cache verdict rides in a header so the body stays
		// byte-identical cold vs warm — the cache-correctness invariant
		// the tests pin.
		w.Header().Set("X-Query-Cache", outcome)
		writeJSON(w, http.StatusOK, doc)
	}
}

// --- api/1 compatibility shims ---------------------------------------
//
// The handler bodies below are the original api/1 implementations,
// unchanged: the shims' contract is byte-identical responses, pinned by
// the golden tests in server_v1_golden_test.go.

func handleV1SubmitJob(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, fmt.Errorf("%w: %v", ErrBadSpec, err))
			return
		}
		j, err := m.SubmitTagged(spec, r.Header.Get("X-API-Key"), RequestIDFrom(r.Context()))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.View())
	}
}

func handleV1ListJobs(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		jobs := m.Jobs()
		views := make([]JobView, len(jobs))
		for i, j := range jobs {
			views[i] = j.View()
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
	}
}

func handleV1GetJob(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorDoc{Error: "no such job", Status: http.StatusNotFound})
			return
		}
		writeJSON(w, http.StatusOK, j.View())
	}
}

func handleV1CancelJob(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorDoc{Error: "no such job", Status: http.StatusNotFound})
			return
		}
		j.Cancel()
		writeJSON(w, http.StatusAccepted, j.View())
	}
}

func handleV1JobEvents(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorDoc{Error: "no such job", Status: http.StatusNotFound})
			return
		}
		serveEvents(w, r, j)
	}
}

func handleV1JobTrace(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorDoc{Error: "no such job", Status: http.StatusNotFound})
			return
		}
		tr := j.Tracer()
		if tr == nil {
			writeJSON(w, http.StatusNotFound, errorDoc{Error: "no trace for job (tracing disabled or job not started)", Status: http.StatusNotFound})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		tr.WriteChromeTrace(w)
	}
}

func handleV1ListArtifacts(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"digests": m.Digests()})
	}
}

func handleV1GetArtifactSet(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, ok := m.Store().Lookup(r.PathValue("digest"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorDoc{Error: "no such artifact set", Status: http.StatusNotFound})
			return
		}
		views := make([]ArtifactView, len(e.Artifacts))
		for i, a := range e.Artifacts {
			views[i] = ArtifactView{Name: a.Name, SHA256: a.SHA256, Size: a.Size}
		}
		writeJSON(w, http.StatusOK, map[string]any{"digest": e.Digest, "artifacts": views})
	}
}

func handleV1GetArtifact(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, ok := m.Store().Lookup(r.PathValue("digest"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorDoc{Error: "no such artifact set", Status: http.StatusNotFound})
			return
		}
		a := e.Artifact(r.PathValue("name"))
		if a == nil {
			writeJSON(w, http.StatusNotFound, errorDoc{Error: "no such artifact", Status: http.StatusNotFound})
			return
		}
		data, err := a.Bytes()
		if err != nil { // lost from disk: the entry is gone, answer as a miss
			writeJSON(w, http.StatusNotFound, errorDoc{Error: "no such artifact set", Status: http.StatusNotFound})
			return
		}
		serveArtifact(w, a.Name, a.SHA256, data)
	}
}

// serveArtifact writes artifact bytes with the content-type and
// integrity header both API versions share.
func serveArtifact(w http.ResponseWriter, name, sha string, data []byte) {
	if strings.HasSuffix(name, ".json") {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Header().Set("X-Content-SHA256", sha)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// --- cluster shard protocol ------------------------------------------
//
// The worker protocol stays on /v1: workers and coordinators deploy in
// lockstep inside one fleet, and the wire shapes (shard.* request and
// response structs) are versioned by the shard schema, not the HTTP
// prefix.

func handleClusterRegister(m *Manager) http.HandlerFunc {
	c := m.Cluster()
	return func(w http.ResponseWriter, r *http.Request) {
		var req shard.RegisterRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil || req.Name == "" {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: "register needs a node name", Status: http.StatusBadRequest})
			return
		}
		writeJSON(w, http.StatusOK, c.Register(req.Name, req.PeerAddr))
	}
}

func handleClusterLease(m *Manager) http.HandlerFunc {
	c := m.Cluster()
	return func(w http.ResponseWriter, r *http.Request) {
		var req shard.LeaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: "bad lease request", Status: http.StatusBadRequest})
			return
		}
		var (
			lease shard.Lease
			ok    bool
			err   error
		)
		if req.Task != "" {
			// A renewal of a lease the worker is still computing.
			lease, err = c.Renew(req.Node, req.Task, req.Token)
			ok = err == nil
		} else {
			lease, ok, err = c.Lease(req.Node)
		}
		switch {
		case errors.Is(err, shard.ErrStaleLease):
			writeJSON(w, http.StatusConflict, errorDoc{Error: err.Error(), Status: http.StatusConflict})
		case errors.Is(err, shard.ErrUnknownNode):
			writeJSON(w, http.StatusNotFound, errorDoc{Error: err.Error(), Status: http.StatusNotFound})
		case err != nil:
			writeError(w, err)
		case !ok:
			w.WriteHeader(http.StatusNoContent) // no work right now; poll again
		default:
			writeJSON(w, http.StatusOK, lease)
		}
	}
}

func handleClusterComplete(m *Manager) http.HandlerFunc {
	c := m.Cluster()
	return func(w http.ResponseWriter, r *http.Request) {
		var req shard.CompleteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: "bad complete request", Status: http.StatusBadRequest})
			return
		}
		err := c.Complete(req.Node, req.Task, req.Token, req.Result, req.Error)
		switch {
		case errors.Is(err, shard.ErrStaleLease):
			// The fencing token lost: another worker holds (or already
			// finished) this shard. 409 tells the zombie to drop it.
			writeJSON(w, http.StatusConflict, errorDoc{Error: err.Error(), Status: http.StatusConflict})
		case errors.Is(err, shard.ErrUnknownNode):
			writeJSON(w, http.StatusNotFound, errorDoc{Error: err.Error(), Status: http.StatusNotFound})
		case err != nil:
			writeError(w, err)
		default:
			writeJSON(w, http.StatusOK, shard.CompleteResponse{OK: true})
		}
	}
}

func handleClusterStats(m *Manager) http.HandlerFunc {
	c := m.Cluster()
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Stats())
	}
}

func handleClusterShards(m *Manager) http.HandlerFunc {
	c := m.Cluster()
	return func(w http.ResponseWriter, r *http.Request) {
		set, ok := c.ShardSet(r.PathValue("digest"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorDoc{Error: "no retained shard set for digest", Status: http.StatusNotFound})
			return
		}
		writeJSON(w, http.StatusOK, set)
	}
}

// --- unversioned ------------------------------------------------------

func handleHealthz(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		doc := map[string]any{
			"ok":           true,
			"schema":       SchemaSpec,
			"jobs":         len(m.Jobs()),
			"cached":       m.Store().Len(),
			"methods":      MethodSlugs(),
			"recovered":    m.Recovered(),
			"breaker_open": m.BreakerOpen(),
			"draining":     m.Draining(),
		}
		if c := m.Cluster(); c != nil {
			st := c.Stats()
			doc["cluster"] = map[string]any{
				"workers":        st.Workers,
				"queue_depth":    st.QueueDepth,
				"steals":         st.Steals,
				"lease_expiries": st.LeaseExpiries,
			}
		}
		if p := m.Peers(); p != nil {
			doc["peers"] = p.Peers()
		}
		writeJSON(w, http.StatusOK, doc)
	}
}

func handleMetrics(m *Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default().WritePrometheus(w)
	}
}

// sseKeepAlive is the interval between SSE comment frames (": ping")
// sent while a stream is idle, so proxies and clients with read
// timeouts keep long-quiet streams open. Package-level so tests can
// shrink it.
var sseKeepAlive = 15 * time.Second

// serveEvents streams a job's span events as Server-Sent Events:
// replayed history first, then live events, then one "done" event
// carrying the terminal job document.
func serveEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorDoc{Error: "streaming unsupported", Status: http.StatusNotImplemented})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// The stream opens with its correlation id as a comment frame, so a
	// captured SSE transcript ties back to the request without headers.
	if id := RequestIDFrom(r.Context()); id != "" {
		fmt.Fprintf(w, ": request-id=%s\n\n", id)
		fl.Flush()
	}

	replay, ch, unsub := j.Subscribe()
	defer unsub()
	send := func(event string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	for _, ev := range replay {
		send("span", ev)
	}
	keepalive := time.NewTicker(sseKeepAlive)
	defer keepalive.Stop()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				send("done", j.View())
				return
			}
			send("span", ev)
		case <-keepalive.C:
			// Comment frame per the SSE spec: ignored by clients, but
			// enough traffic to defeat idle timeouts.
			fmt.Fprint(w, ": ping\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// jsonBuf is a response body buffer with its indenting encoder.
// writeJSON encodes a whole body before writing it, so the response
// carries a Content-Length, and pools the pair so that costs no
// allocation per response.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufs = sync.Pool{New: func() any {
	b := new(jsonBuf)
	b.enc = json.NewEncoder(&b.buf)
	b.enc.SetIndent("", "  ")
	return b
}}

// maxPooledJSON bounds the buffer a pooled jsonBuf may keep, so one
// large response does not pin its size in every pool slot.
const maxPooledJSON = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	b := jsonBufs.Get().(*jsonBuf)
	b.buf.Reset()
	b.enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(b.buf.Len()))
	w.WriteHeader(status)
	w.Write(b.buf.Bytes())
	if b.buf.Cap() <= maxPooledJSON {
		jsonBufs.Put(b)
	}
}

// setRetryAfter adds the Retry-After header when the error carries a
// hint. Whole seconds per RFC 9110; round up so "retry after 10ms"
// doesn't become "retry immediately", and clamp to at least one second
// — a zero hint invites an instant retry storm.
func setRetryAfter(w http.ResponseWriter, err error) {
	if after, ok := RetryAfter(err); ok {
		secs := int(after / time.Second)
		if after%time.Second != 0 {
			secs++
		}
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
}

// writeError renders the api/1 error body.
func writeError(w http.ResponseWriter, err error) {
	status := HTTPStatus(err)
	setRetryAfter(w, err)
	writeJSON(w, status, errorDoc{Error: err.Error(), Status: status})
}

// writeErrorV2 renders the api/2 error envelope, correlating the
// failure with the request id the instrument middleware accepted or
// minted.
func writeErrorV2(w http.ResponseWriter, r *http.Request, err error) {
	status := HTTPStatus(err)
	setRetryAfter(w, err)
	writeJSON(w, status, errorEnvelope{Error: errorBody{
		Code:      ErrorCode(err),
		Message:   err.Error(),
		RequestID: RequestIDFrom(r.Context()),
	}})
}
