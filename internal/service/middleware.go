package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"time"

	"stdcelltune/internal/obs"
)

// Serving-tier RED metrics, in the process-default registry so both the
// daemon's GET /metrics and the -debugaddr server expose them. Label
// values are drawn from the static route patterns registered in Handler
// plus the five status classes — bounded cardinality by construction
// (never raw request data such as job ids; the cardinality regression
// test pins this).
var (
	httpRequests = obs.Default().CounterVec("http_requests_total", "route", "code")
	httpInFlight = obs.Default().GaugeVec("http_in_flight_requests", "route")
	httpLatency  = obs.Default().HDRVec("http_request_duration_seconds", "route")
)

// requestIDHeader is the correlation header: accepted from the client
// when well-formed, minted otherwise, and always echoed on the
// response. The same id reaches the job document, the slog accept line
// and the job's trace spans.
const requestIDHeader = "X-Request-ID"

type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDFrom returns the request id accepted or minted by the
// instrument middleware, "" outside an instrumented handler.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// validRequestID accepts client-supplied ids in a conservative charset
// so a hostile header can't smuggle newlines into logs or label values.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// newRequestID mints a 16-hex-char random id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; correlation degrades
		// to a fixed marker rather than taking the request down.
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the response status for the request counter's
// code label. Flush is forwarded so SSE streaming keeps working through
// the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// statusClass buckets a status code into "2xx".."5xx" for the code
// label (a bounded set, unlike raw codes × routes).
func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// instrument wraps a handler with the serving-tier observability
// contract: request-id acceptance/minting and echo, RED metrics under
// the given route label (the static mux pattern — "GET /v1/jobs/{id}",
// never an actual id), in-flight tracking and latency recording.
func instrument(route string, next http.HandlerFunc) http.HandlerFunc {
	inFlight := httpInFlight.With(route)
	latency := httpLatency.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if !validRequestID(id) {
			id = newRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey, id))

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		inFlight.Add(1)
		start := time.Now()
		defer func() {
			inFlight.Add(-1)
			latency.Observe(time.Since(start))
			httpRequests.With(route, statusClass(sw.status)).Add(1)
		}()
		next(sw, r)
		// Push the buffered response onto the wire inside the timer, so
		// the route's latency covers writing it, not just building it.
		sw.Flush()
	}
}
