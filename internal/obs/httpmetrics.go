package obs

import (
	"net/http"
	"time"
)

// HTTP metric names. Route labels come from the InstrumentHandler route
// function — a bounded set of route templates, never raw paths, so the
// label space cannot explode on crafted URLs.
const (
	MetricHTTPRequests  = "reveal_http_requests_total"           // {route="..."}
	MetricHTTPResponses = "reveal_http_responses_total"          // {code="2xx|3xx|4xx|5xx"}
	MetricHTTPLatency   = "reveal_http_request_duration_seconds" // {route="..."}
	MetricHTTPInflight  = "reveal_http_inflight_requests"
)

// maxHTTPRoutes caps the route label cardinality; the route function
// already normalizes to templates, so this is a belt-and-braces bound.
const maxHTTPRoutes = 64

// statusRecorder captures the response status code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// httpMetrics is the pre-registered metric family used by the middleware;
// built once per recorder wrapping, so the per-request path is map reads
// and atomic adds only.
type httpMetrics struct {
	requests *CounterVec   // by route
	byCode   *CounterVec   // by status class ("2xx", "4xx", …)
	latency  *HistogramVec // by route
	inflight *Gauge
}

func newHTTPMetrics(reg *Registry) *httpMetrics {
	if reg == nil {
		return nil
	}
	return &httpMetrics{
		requests: reg.CounterVec(MetricHTTPRequests, "route", maxHTTPRoutes),
		byCode:   reg.CounterVec(MetricHTTPResponses, "code", 8),
		latency:  reg.HistogramVec(MetricHTTPLatency, "route", maxHTTPRoutes),
		inflight: reg.Gauge(MetricHTTPInflight),
	}
}

func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// InstrumentHandler wraps h with the service-grade HTTP middleware:
//
//   - Trace identity: an incoming X-Reveal-Trace-Id header is validated and
//     adopted (else a fresh ID is minted), placed on the request context for
//     the handler chain to propagate, and echoed on the response so clients
//     can correlate.
//   - Labeled metrics: per-route request counters and latency histograms,
//     per-status-class counters, and an inflight gauge, all on rec's
//     registry and therefore on the existing /metrics exposition.
//
// route maps a request to its bounded route template (e.g.
// "/api/v1/campaigns/{id}"); nil uses the URL path verbatim (only safe for
// fixed-path muxes like the observability endpoints).
func InstrumentHandler(rec *Recorder, route func(*http.Request) string, h http.Handler) http.Handler {
	m := newHTTPMetrics(rec.Registry())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc := TraceContext{TraceID: r.Header.Get(TraceHeader)}
		if !ValidTraceID(tc.TraceID) {
			tc.TraceID = NewTraceID()
		}
		w.Header().Set(TraceHeader, tc.TraceID)
		r = r.WithContext(WithTraceContext(r.Context(), tc))

		rt := r.URL.Path
		if route != nil {
			rt = route(r)
		}
		start := time.Now()
		if m != nil {
			m.inflight.Add(1)
		}
		sw := &statusRecorder{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		if m != nil {
			m.inflight.Add(-1)
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			m.requests.With(rt).Inc()
			m.byCode.With(statusClass(sw.status)).Inc()
			m.latency.With(rt).Observe(time.Since(start).Seconds())
		}
	})
}
