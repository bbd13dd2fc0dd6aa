package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"reveal/internal/core"
	"reveal/internal/jobs"
	"reveal/internal/obs"
	"reveal/internal/obs/history"
)

// Config assembles a Server.
type Config struct {
	// QueueOptions configures the job queue (zero value → DefaultOptions).
	QueueOptions jobs.Options
	// PoolWorkers is how many jobs the in-process worker runs concurrently
	// (0 → 1). A negative value builds a pure coordinator: no in-process
	// worker, every job executes on fabric workers leasing over HTTP.
	PoolWorkers int
	// ClassifyWorkers is the default per-job classification parallelism
	// (0 → GOMAXPROCS at run time).
	ClassifyWorkers int
	// CacheCapacity bounds the template cache (minimum 1).
	CacheCapacity int
	// DataDir, when set, receives per-job run directories with manifests.
	DataDir string
	// History, when set, persists one quality RunRecord per completed job
	// and backs the /api/v1/history endpoints.
	History *history.Store
	// Watchdog, when set (requires History to be useful), watches the
	// recorded quality trajectory for drift against pinned baselines.
	Watchdog *history.Watchdog
	// LeaseTTL is the default fabric lease duration granted to workers that
	// do not request one (0 → jobs.DefaultLeaseTTL).
	LeaseTTL time.Duration
}

// Server is the campaign service: the queue and its lease protocol, the
// in-process worker (absent on a pure coordinator), the template cache and
// registry, the quality-history store, and the HTTP API over them. It
// implements Coordinator, so the in-process worker leases through the same
// code as remote workers, minus the HTTP round trip.
type Server struct {
	queue    *jobs.Queue
	worker   *FabricWorker
	cache    *core.TemplateCache
	registry *TemplateRegistry
	history  *history.Store
	watchdog *history.Watchdog
	leaseTTL time.Duration
	mux      *http.ServeMux
	started  time.Time
}

// New assembles a Server. Call Start to launch the in-process worker.
func New(cfg Config) *Server {
	if cfg.QueueOptions == (jobs.Options{}) {
		cfg.QueueOptions = jobs.DefaultOptions()
	}
	if cfg.PoolWorkers == 0 {
		cfg.PoolWorkers = 1
	}
	if cfg.CacheCapacity < 1 {
		cfg.CacheCapacity = 4
	}
	s := &Server{
		queue:    jobs.NewQueue(cfg.QueueOptions),
		cache:    core.NewTemplateCache(cfg.CacheCapacity),
		registry: NewTemplateRegistry(4*cfg.CacheCapacity, 0),
		history:  cfg.History,
		watchdog: cfg.Watchdog,
		leaseTTL: cfg.LeaseTTL,
		started:  time.Now(),
	}
	if s.leaseTTL <= 0 {
		s.leaseTTL = jobs.DefaultLeaseTTL
	}
	if cfg.PoolWorkers > 0 {
		s.worker = &FabricWorker{
			ID:     "local",
			Client: s,
			Runner: &Runner{Cache: s.cache, Workers: cfg.ClassifyWorkers, DataDir: cfg.DataDir},
			Slots:  cfg.PoolWorkers,
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleGet)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /api/v1/campaigns/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/v1/history", s.handleHistory)
	s.mux.HandleFunc("GET /api/v1/history/aggregate", s.handleHistoryAggregate)
	s.mux.HandleFunc("POST /api/v1/fabric/lease", s.handleLease)
	s.mux.HandleFunc("POST /api/v1/fabric/jobs/{id}/renew", s.handleRenew)
	s.mux.HandleFunc("POST /api/v1/fabric/jobs/{id}/complete", s.handleComplete)
	s.mux.HandleFunc("GET /api/v1/fabric/templates/{key}", s.handleTemplateGet)
	s.mux.HandleFunc("POST /api/v1/fabric/templates/{key}/claim", s.handleTemplateClaim)
	s.mux.HandleFunc("PUT /api/v1/fabric/templates/{key}", s.handleTemplatePut)
	s.mux.HandleFunc("DELETE /api/v1/fabric/templates/{key}/claim", s.handleTemplateRelease)
	return s
}

// Start launches the in-process worker (no-op on a pure coordinator).
// Call it once.
func (s *Server) Start() {
	if s.worker != nil {
		go s.worker.Run(context.Background())
	}
}

// Shutdown drains the service: submissions stop, the in-process worker
// stops leasing and its running jobs finish until ctx expires (then they
// are canceled), and finally it waits for jobs leased by remote workers to
// finish or expire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.queue.StopAccepting()
	if s.worker != nil {
		if err := s.worker.Shutdown(ctx); err != nil {
			return err
		}
	}
	for {
		_, running := s.queue.Depth()
		if running == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("service: %d leased jobs still running at shutdown", running)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Handler returns the API handler (routes under /api/v1/). It is mounted
// through obs.ServeConfig.API next to /metrics and /healthz.
func (s *Server) Handler() http.Handler { return s.mux }

// Queue exposes the underlying queue (used by tests and revealctl-adjacent
// tooling).
func (s *Server) Queue() *jobs.Queue { return s.queue }

// RouteLabel maps an API request to its bounded route template for the
// per-route HTTP metrics (passed as obs.ServeConfig.APIRoute). Raw paths
// never become label values, so crafted URLs cannot grow the label space.
func RouteLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/api/v1/campaigns":
		return "/api/v1/campaigns"
	case p == "/api/v1/stats":
		return "/api/v1/stats"
	case p == "/api/v1/history":
		return "/api/v1/history"
	case p == "/api/v1/history/aggregate":
		return "/api/v1/history/aggregate"
	case p == "/api/v1/fabric/lease":
		return "/api/v1/fabric/lease"
	case strings.HasPrefix(p, "/api/v1/fabric/jobs/"):
		if strings.HasSuffix(p, "/renew") {
			return "/api/v1/fabric/jobs/{id}/renew"
		}
		if strings.HasSuffix(p, "/complete") {
			return "/api/v1/fabric/jobs/{id}/complete"
		}
		return "/api/other"
	case strings.HasPrefix(p, "/api/v1/fabric/templates/"):
		if strings.HasSuffix(p, "/claim") {
			return "/api/v1/fabric/templates/{key}/claim"
		}
		return "/api/v1/fabric/templates/{key}"
	case strings.HasPrefix(p, "/api/v1/campaigns/"):
		if strings.HasSuffix(p, "/result") {
			return "/api/v1/campaigns/{id}/result"
		}
		return "/api/v1/campaigns/{id}"
	}
	return "/api/other"
}

// apiError is the uniform error payload.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// submitResponse is the POST /campaigns payload.
type submitResponse struct {
	Job  jobs.Status   `json:"job"`
	Spec *CampaignSpec `json:"spec"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "parsing campaign spec: %v", err)
		return
	}
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The trace identity was minted (or adopted from X-Reveal-Trace-Id) by
	// the HTTP middleware; stamping it on the job spec carries it across
	// the queue into the worker, and the flow event ties the HTTP request
	// node to the queue/attempt nodes in the Chrome trace export.
	traceID := obs.TraceIDFrom(r.Context())
	if traceID != "" {
		obs.FlowEvent(traceID, obs.FlowStart, "submit", map[string]any{
			"kind": spec.Kind, "tenant": spec.Tenant,
		})
	}
	st, err := s.queue.Submit(jobs.Spec{
		Kind:        spec.Kind,
		Payload:     &spec,
		MaxAttempts: spec.MaxAttempts,
		Timeout:     spec.Timeout(),
		TraceID:     traceID,
		Tenant:      spec.Tenant,
	})
	if err != nil {
		// Backpressure rejections are 429 with a Retry-After hint so
		// well-behaved clients (and the loadgen harness) back off instead
		// of hammering a saturated coordinator.
		if errors.Is(err, jobs.ErrQueueFull) || errors.Is(err, jobs.ErrOverQuota) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	obs.LogCtx(r.Context()).Info("campaign accepted",
		"id", st.ID, "kind", spec.Kind, "tenant", spec.Tenant, "seed", spec.Seed)
	writeJSON(w, http.StatusAccepted, submitResponse{Job: st, Spec: &spec})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.queue.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign %s", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	st, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign %s", r.PathValue("id"))
		return
	}
	switch st.State {
	case jobs.StateDone:
		writeJSON(w, http.StatusOK, st.Result)
	case jobs.StateFailed:
		writeError(w, http.StatusConflict, "campaign %s failed: %s", st.ID, st.Error)
	default:
		writeError(w, http.StatusConflict, "campaign %s is %s", st.ID, st.State)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.queue.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	st, _ := s.queue.Get(id)
	writeJSON(w, http.StatusOK, st)
}

// StatsResponse is the GET /api/v1/stats payload: queue depth, worker
// utilization, per-kind throughput, and the queue-wait / attempt-latency
// distributions the revealctl top dashboard renders.
type StatsResponse struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Leased is how many jobs are held by workers under a lease.
	Leased          int `json:"leased,omitempty"`
	CachedTemplates int `json:"cached_templates"`
	// RegistryTemplates counts the serialized classifiers in the fabric
	// template registry.
	RegistryTemplates int `json:"registry_templates,omitempty"`
	// Workers and WorkersBusy describe the in-process worker's slots (0 on
	// a pure coordinator).
	Workers       int              `json:"workers"`
	WorkersBusy   int              `json:"workers_busy"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Kinds         []jobs.KindStats `json:"kinds,omitempty"`
	// QueueWait and AttemptLatency summarize the per-kind histograms
	// (reveal_jobs_queue_wait_seconds / reveal_jobs_attempt_duration_seconds)
	// keyed by job kind.
	QueueWait      map[string]obs.HistogramSnapshot `json:"queue_wait,omitempty"`
	AttemptLatency map[string]obs.HistogramSnapshot `json:"attempt_latency,omitempty"`
}

// HistoryResponse is the GET /api/v1/history payload: a page of quality
// records (oldest first) plus the cursor for the next page.
type HistoryResponse struct {
	Records []history.RunRecord `json:"records"`
	// NextAfter is the cursor for the next page: pass it back as ?after=.
	// Zero when this page exhausts the match set.
	NextAfter int64 `json:"next_after,omitempty"`
	// Total counts every stored record matching the filter, ignoring the
	// cursor and the page limit.
	Total int `json:"total"`
}

// handleHistory serves GET /api/v1/history?kind=&tenant=&after=&limit=.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		writeError(w, http.StatusServiceUnavailable, "history store disabled (start reveald with -data-dir)")
		return
	}
	q := history.Query{
		Kind:   r.URL.Query().Get("kind"),
		Tenant: r.URL.Query().Get("tenant"),
	}
	var err error
	if q.AfterSeq, err = parseInt64Param(r, "after"); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit, err := parseInt64Param(r, "limit")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q.Limit = int(limit)
	res := s.history.Query(q)
	next := res.NextAfter
	if len(res.Records) == 0 {
		next = 0
	} else {
		// Peek one record past the page: a cursor is only returned when
		// another page exists, so clients can loop until next_after == 0.
		peek := q
		peek.AfterSeq, peek.Limit = next, 1
		if len(s.history.Query(peek).Records) == 0 {
			next = 0
		}
	}
	writeJSON(w, http.StatusOK, HistoryResponse{
		Records: res.Records, NextAfter: next, Total: res.Total,
	})
}

// HistoryAggregateResponse is the GET /api/v1/history/aggregate payload:
// per-kind rollups plus the watchdog's pinned baselines (when a watchdog
// is running).
type HistoryAggregateResponse struct {
	Aggregates []history.KindAggregate       `json:"aggregates"`
	Baselines  map[string]map[string]float64 `json:"baselines,omitempty"`
}

// handleHistoryAggregate serves GET /api/v1/history/aggregate?kind=&tenant=&window=.
func (s *Server) handleHistoryAggregate(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		writeError(w, http.StatusServiceUnavailable, "history store disabled (start reveald with -data-dir)")
		return
	}
	window, err := parseInt64Param(r, "window")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	kind := r.URL.Query().Get("kind")
	tenant := r.URL.Query().Get("tenant")
	var kinds []string
	if kind != "" {
		kinds = []string{kind}
	} else {
		kinds = s.history.Kinds()
	}
	resp := HistoryAggregateResponse{Aggregates: []history.KindAggregate{}}
	for _, k := range kinds {
		agg := s.history.Aggregate(k, tenant, int(window))
		if agg.Runs > 0 {
			resp.Aggregates = append(resp.Aggregates, agg)
		}
	}
	if s.watchdog != nil {
		resp.Baselines = s.watchdog.Baselines()
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseInt64Param reads a non-negative integer query parameter, treating an
// absent or empty value as zero.
func parseInt64Param(r *http.Request, name string) (int64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("invalid %s parameter %q", name, raw)
	}
	return v, nil
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	queued, running := s.queue.Depth()
	var workers, busy int
	if s.worker != nil {
		workers, busy = s.worker.Stats()
	}
	resp := StatsResponse{
		Queued:            queued,
		Running:           running,
		Leased:            s.queue.Leased(),
		CachedTemplates:   s.cache.Len(),
		RegistryTemplates: s.registry.Len(),
		Workers:           workers,
		WorkersBusy:       busy,
		UptimeSeconds:     time.Since(s.started).Seconds(),
		Kinds:             s.queue.StatsByKind(),
	}
	if reg := obs.Global().Registry(); reg != nil {
		for _, ks := range resp.Kinds {
			if ks.Submitted == 0 {
				continue
			}
			if resp.QueueWait == nil {
				resp.QueueWait = map[string]obs.HistogramSnapshot{}
				resp.AttemptLatency = map[string]obs.HistogramSnapshot{}
			}
			resp.QueueWait[ks.Kind] = reg.Histogram(
				obs.LabelKey(jobs.MetricQueueWait, "kind", ks.Kind)).Snapshot()
			resp.AttemptLatency[ks.Kind] = reg.Histogram(
				obs.LabelKey(jobs.MetricAttemptDuration, "kind", ks.Kind)).Snapshot()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
