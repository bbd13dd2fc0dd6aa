package obs

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// MetricsServer is the opt-in live view of a running campaign:
//
//	/metrics      Prometheus text exposition of the registry
//	/progress     JSON per-stage progress (runs, items, quantiles, active)
//	/healthz      liveness probe: {"status":"ok","uptime_seconds":...}
//	/readyz       readiness probe: 200 while serving, 503 while draining
//	/events       service event journal (long-poll, ?since=SEQ&wait=DUR)
//	/debug/pprof  the standard Go profiling endpoints
//
// ServeConfig.API additionally mounts an application handler under /api/
// on the same listener (used by reveald) without displacing the built-in
// endpoints above.
type MetricsServer struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// ServeConfig holds ServeMetricsCfg's optional, service-grade settings;
// the zero value serves the observability endpoints alone.
type ServeConfig struct {
	// API, when non-nil, is mounted under /api/. The handler sees
	// unstripped paths (it should route /api/... itself); the
	// observability endpoints stay owned by the metrics mux, so mounting an
	// API cannot clobber the liveness probe.
	API http.Handler
	// APIRoute maps an API request to its bounded route template for the
	// per-route HTTP metrics; nil labels API requests with the raw path.
	APIRoute func(*http.Request) string
	// Ready, when non-nil, backs /readyz: a nil return is ready (200), an
	// error is not ready (503 with the error text). The request context is
	// passed through so probes can honor client disconnects.
	Ready func(ctx context.Context) error
	// Instrument wraps every endpoint (observability ones included) in the
	// trace + labeled-metrics HTTP middleware.
	Instrument bool
}

// progressReport is the /progress payload.
type progressReport struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Stages        []StageStats `json:"stages"`
}

// maxEventWait bounds the /events?wait= long-poll parameter.
const maxEventWait = 60 * time.Second

// ServeMetricsCfg starts the live endpoints on addr (e.g. ":9090" or
// "127.0.0.1:0") backed by the given recorder, with the optional API
// mount, readiness probe and HTTP instrumentation of cfg. It returns once
// the listener is bound; serving continues in the background until Close.
func ServeMetricsCfg(rec *Recorder, addr string, cfg ServeConfig) (*MetricsServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = rec.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(progressReport{
			UptimeSeconds: rec.Uptime().Seconds(),
			Stages:        rec.StageStats(),
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":         "ok",
			"uptime_seconds": rec.Uptime().Seconds(),
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness is distinct from liveness: a draining daemon is alive
		// (running jobs are finishing) but must stop receiving traffic, so
		// load balancers watch /readyz while orchestrators watch /healthz.
		w.Header().Set("Content-Type", "application/json")
		if cfg.Ready != nil {
			if err := cfg.Ready(r.Context()); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				_ = json.NewEncoder(w).Encode(map[string]any{
					"status": "not_ready", "reason": err.Error(),
				})
				return
			}
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":         "ready",
			"uptime_seconds": rec.Uptime().Seconds(),
		})
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(rec.Events(), w, r)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if cfg.API != nil {
		api := cfg.API
		if cfg.Instrument {
			api = InstrumentHandler(rec, cfg.APIRoute, api)
		}
		mux.Handle("/api/", api)
	}

	var handler http.Handler = mux
	if cfg.Instrument {
		// The observability endpoints themselves are instrumented with their
		// literal paths (a fixed mux, so the label set stays bounded). The
		// API subtree was already wrapped above with its route templates;
		// wrapping the whole mux instead would label every API hit with a
		// raw path. Requests outside /api/ flow through this outer layer.
		obsRoutes := InstrumentHandler(rec, nil, mux)
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/api/") || strings.HasPrefix(r.URL.Path, "/debug/pprof") {
				mux.ServeHTTP(w, r)
				return
			}
			obsRoutes.ServeHTTP(w, r)
		})
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ms := &MetricsServer{
		srv: &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: 5 * time.Second,
			// The pprof CPU profile streams for its whole sampling window
			// (default 30s, callers pass up to ?seconds=60), so the write
			// timeout must comfortably exceed it.
			WriteTimeout: 90 * time.Second,
			IdleTimeout:  120 * time.Second,
		},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(ms.done)
		_ = ms.srv.Serve(ln)
	}()
	return ms, nil
}

// Addr returns the bound listen address (useful with port 0).
func (m *MetricsServer) Addr() string {
	if m == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// Shutdown stops accepting connections and waits — up to ctx — for
// in-flight requests to complete, then waits for the serve loop to exit.
// Returns the ctx error when the drain deadline was hit.
func (m *MetricsServer) Shutdown(ctx context.Context) error {
	if m == nil {
		return nil
	}
	err := m.srv.Shutdown(ctx)
	if err != nil {
		// Drain expired: force-close the remaining connections.
		_ = m.srv.Close()
	}
	<-m.done
	return err
}

// Close stops the server immediately (no drain) and waits for the serve
// loop to exit.
func (m *MetricsServer) Close() {
	if m == nil {
		return
	}
	_ = m.srv.Close()
	<-m.done
}

// EventsResponse is the /events payload: a batch of journal events plus
// the cursor to resume from (?since=NextSeq).
type EventsResponse struct {
	Events  []ServiceEvent `json:"events"`
	NextSeq int64          `json:"next_seq"`
	// Dropped counts events lost to the asynchronous events.jsonl sink (not
	// to this endpoint — the ring never blocks and never loses silently;
	// consumers detect overwrites from gaps in Seq).
	Dropped int64 `json:"dropped,omitempty"`
}

// serveEvents answers GET /events: ?since=SEQ resumes after a cursor,
// ?wait=DUR long-polls until an event arrives or the duration (bounded)
// expires, ?max=N caps the batch. The wait honors the request context, so
// a disconnected long-poller releases its goroutine immediately — and a
// slow or stuck consumer only ever parks here, never in the job queue's
// Append path.
func serveEvents(log *EventLog, w http.ResponseWriter, r *http.Request) {
	if log == nil {
		http.Error(w, "service event journal disabled", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	var since int64
	if s := q.Get("since"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 0 {
			http.Error(w, "bad since cursor", http.StatusBadRequest)
			return
		}
		since = v
	}
	max := 256
	if s := q.Get("max"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, "bad max", http.StatusBadRequest)
			return
		}
		if v < max {
			max = v
		}
	}
	var events []ServiceEvent
	var next int64
	if ws := q.Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			http.Error(w, "bad wait duration", http.StatusBadRequest)
			return
		}
		if d > maxEventWait {
			d = maxEventWait
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		events, next = log.WaitSince(ctx, since, max)
		cancel()
		if next < since {
			next = since
		}
	} else {
		events, next = log.Since(since, max)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(EventsResponse{Events: events, NextSeq: next, Dropped: log.SinkDropped()})
}
