package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"reveal/internal/core"
	"reveal/internal/jobs"
	"reveal/internal/obs"
	"reveal/internal/obs/history"
)

// Fabric wire types: the coordinator/worker protocol is plain HTTP/JSON
// under /api/v1/fabric/, versioned with the rest of the API.

// leaseRequest asks for one job lease. A positive WaitSeconds long-polls:
// the coordinator holds the request until a job becomes eligible or the
// wait expires (204 No Content).
type leaseRequest struct {
	Worker      string  `json:"worker"`
	TTLSeconds  float64 `json:"ttl_seconds,omitempty"`
	WaitSeconds float64 `json:"wait_seconds,omitempty"`
}

type leaseResponse struct {
	Job *jobs.LeasedJob `json:"job"`
}

type renewRequest struct {
	Worker     string  `json:"worker"`
	Token      string  `json:"token"`
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

type renewResponse struct {
	LeaseExpiry time.Time `json:"lease_expiry"`
}

// completeRequest reports a leased attempt's outcome: Error empty means
// success with Result holding the serialized campaign result.
type completeRequest struct {
	Worker string          `json:"worker"`
	Token  string          `json:"token"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

type claimResponse struct {
	// Train tells the caller to run the profiling campaign and upload the
	// classifier; otherwise poll GET again after RetryAfterMS.
	Train        bool  `json:"train"`
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// maxLeaseWait bounds one long-poll request; workers re-issue.
const maxLeaseWait = 30 * time.Second

// LeaseJob implements Coordinator in process, and serves the lease
// long-poll behind POST /api/v1/fabric/lease: it leases the oldest
// eligible job under ttl (<= 0 uses the server's lease TTL), waiting up to
// wait (capped at maxLeaseWait) for one to become eligible. A nil job
// means none did before the wait or ctx ended.
func (s *Server) LeaseJob(ctx context.Context, worker string, ttl, wait time.Duration) (*jobs.LeasedJob, error) {
	if ttl <= 0 {
		ttl = s.leaseTTL
	}
	deadline := time.Now().Add(min(wait, maxLeaseWait))
	for {
		lj, backoff, wake, err := s.queue.Lease(worker, ttl)
		if lj != nil || err != nil {
			return lj, err
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, nil
		}
		// Sleep until a submission wakes the queue, the next backoff gate
		// opens, or the long-poll budget runs out.
		if backoff > 0 && backoff < remaining {
			remaining = backoff
		}
		timer := time.NewTimer(remaining)
		select {
		case <-wake:
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, nil
		}
		timer.Stop()
	}
}

// RenewJobLease implements Coordinator in process, and serves the lease
// heartbeat behind POST /api/v1/fabric/jobs/{id}/renew (ttl <= 0 uses the
// server's lease TTL).
func (s *Server) RenewJobLease(_ context.Context, id, worker, token string, ttl time.Duration) (time.Time, error) {
	if ttl <= 0 {
		ttl = s.leaseTTL
	}
	return s.queue.RenewLease(id, worker, token, ttl)
}

// CompleteJob implements Coordinator in process, and serves POST
// /api/v1/fabric/jobs/{id}/complete: it records a leased attempt's outcome
// and, when the job is done, its quality-history record. This is the only
// place history is written, whichever worker ran the job.
func (s *Server) CompleteJob(_ context.Context, id, worker, token string, result any, errMsg string) (jobs.Status, error) {
	st, err := s.queue.CompleteLease(id, worker, token, result, errMsg)
	if err == nil && st.State == jobs.StateDone {
		s.recordResult(st, result)
	}
	return st, err
}

// seconds converts a wire duration in seconds.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// handleLease serves POST /api/v1/fabric/lease.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing lease request: %v", err)
		return
	}
	lj, err := s.LeaseJob(r.Context(), req.Worker, seconds(req.TTLSeconds), seconds(req.WaitSeconds))
	switch {
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	case lj == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusOK, leaseResponse{Job: lj})
	}
}

// handleRenew serves POST /api/v1/fabric/jobs/{id}/renew (the lease
// heartbeat).
func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing renew request: %v", err)
		return
	}
	expiry, err := s.RenewJobLease(r.Context(), r.PathValue("id"), req.Worker, req.Token, seconds(req.TTLSeconds))
	if err != nil {
		writeError(w, leaseErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, renewResponse{LeaseExpiry: expiry})
}

// handleComplete serves POST /api/v1/fabric/jobs/{id}/complete.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing complete request: %v", err)
		return
	}
	id := r.PathValue("id")
	var result any
	if req.Error == "" {
		result = decodeResultByKind(s.queue.Kind(id), req.Result)
	}
	st, err := s.CompleteJob(r.Context(), id, req.Worker, req.Token, result, req.Error)
	if err != nil {
		writeError(w, leaseErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// leaseErrCode maps queue lease errors onto HTTP statuses: a lost lease is
// a conflict (the caller's attempt is void), an unknown job 404. The
// client maps them back (APIError.Unwrap).
func leaseErrCode(err error) int {
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, jobs.ErrLeaseLost):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// recordResult persists the quality-history record of a finished job and
// feeds the drift watchdog. Recording is best-effort: a full disk must not
// fail a job whose scientific result is already in hand.
func (s *Server) recordResult(st jobs.Status, result any) {
	if s.history == nil && s.watchdog == nil {
		return
	}
	var seed uint64
	switch res := result.(type) {
	case *AttackCampaignResult:
		seed = res.Seed
	case *DiagnoseCampaignResult:
		seed = res.Seed
	case *StreamCampaignResult:
		seed = res.Seed
	}
	rec := qualityRunRecord(st.ID, st.TraceID, st.Kind, st.Tenant, seed,
		st.RunSeconds, st.QueueWaitSeconds, result)
	lg := obs.Log().With("job_id", st.ID)
	if s.history != nil {
		stamped, err := s.history.Append(rec)
		if err != nil {
			lg.Warn("history record not persisted", "error", err)
		} else {
			rec = stamped
		}
	}
	for _, a := range s.watchdog.Observe(rec) {
		lg.Warn("quality drift detected", "kind", a.Kind, "metric", a.Metric,
			"baseline", a.Baseline, "current", a.Current,
			"rel_delta", a.RelDelta, "tolerance", a.Tolerance)
	}
}

// TemplateGet implements Coordinator in process, and serves GET
// /api/v1/fabric/templates/{key}: the raw WriteClassifier serialization.
func (s *Server) TemplateGet(_ context.Context, key string) ([]byte, bool, error) {
	blob, ok := s.registry.Get(key)
	return blob, ok, nil
}

// TemplateClaim implements Coordinator in process, and serves POST
// /api/v1/fabric/templates/{key}/claim: cross-worker single flight for
// training.
func (s *Server) TemplateClaim(_ context.Context, key, worker string) (bool, time.Duration, error) {
	train, retry := s.registry.Claim(key, worker)
	return train, retry, nil
}

// TemplatePut implements Coordinator in process, and serves PUT
// /api/v1/fabric/templates/{key}. Bytes that do not read back as a
// classifier are refused and nothing is stored.
func (s *Server) TemplatePut(_ context.Context, key string, blob []byte) error {
	if _, err := core.ReadClassifier(bytes.NewReader(blob)); err != nil {
		return fmt.Errorf("service: template %s refused: %w", key, err)
	}
	s.registry.Put(key, blob)
	return nil
}

// TemplateRelease implements Coordinator in process, and serves DELETE
// /api/v1/fabric/templates/{key}/claim: the caller abandons its claim
// without uploading (training failed).
func (s *Server) TemplateRelease(_ context.Context, key, worker string) error {
	s.registry.Release(key, worker)
	return nil
}

// handleTemplateGet serves GET /api/v1/fabric/templates/{key}.
func (s *Server) handleTemplateGet(w http.ResponseWriter, r *http.Request) {
	blob, ok, _ := s.TemplateGet(r.Context(), r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, "template %s not in registry", r.PathValue("key"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// handleTemplateClaim serves POST /api/v1/fabric/templates/{key}/claim
// (?worker= names the claimer).
func (s *Server) handleTemplateClaim(w http.ResponseWriter, r *http.Request) {
	train, retry, _ := s.TemplateClaim(r.Context(), r.PathValue("key"), r.URL.Query().Get("worker"))
	writeJSON(w, http.StatusOK, claimResponse{Train: train, RetryAfterMS: retry.Milliseconds()})
}

// handleTemplatePut serves PUT /api/v1/fabric/templates/{key}: 400 for a
// body TemplatePut refuses.
func (s *Server) handleTemplatePut(w http.ResponseWriter, r *http.Request) {
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading template: %v", err)
		return
	}
	if err := s.TemplatePut(r.Context(), r.PathValue("key"), blob); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleTemplateRelease serves DELETE /api/v1/fabric/templates/{key}/claim
// (?worker= names the claimer).
func (s *Server) handleTemplateRelease(w http.ResponseWriter, r *http.Request) {
	_ = s.TemplateRelease(r.Context(), r.PathValue("key"), r.URL.Query().Get("worker"))
	w.WriteHeader(http.StatusNoContent)
}

// DecodeCampaignPayload turns a journaled or leased campaign payload back
// into the runner's in-memory form. Every campaign kind is a CampaignSpec;
// the kind argument keeps the signature general for the queue's restore
// callback.
func DecodeCampaignPayload(kind string, raw json.RawMessage) (any, error) {
	var spec CampaignSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("service: decoding %s payload: %w", kind, err)
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// decodeResultByKind decodes a serialized campaign result into its typed
// form so the /result endpoint and the history recorder see the same
// shapes as in-process execution; unknown kinds (or mismatched payloads)
// fall back to the generic JSON form.
func decodeResultByKind(kind string, raw json.RawMessage) any {
	if len(raw) == 0 {
		return nil
	}
	var typed any
	switch kind {
	case KindAttack:
		typed = new(AttackCampaignResult)
	case KindDiagnose:
		typed = new(DiagnoseCampaignResult)
	case KindStream:
		typed = new(StreamCampaignResult)
	}
	if typed != nil && json.Unmarshal(raw, typed) == nil {
		return typed
	}
	var v any
	if json.Unmarshal(raw, &v) == nil {
		return v
	}
	return nil
}

// qualityRunRecord builds the compact quality summary of one finished
// campaign for the history store from its status and typed result.
func qualityRunRecord(jobID, traceID, kind, tenant string, seed uint64,
	elapsedSeconds, queueWaitSeconds float64, result any) history.RunRecord {
	rec := history.RunRecord{
		JobID:          jobID,
		TraceID:        traceID,
		Kind:           kind,
		Tenant:         tenant,
		Seed:           seed,
		ElapsedSeconds: elapsedSeconds,
		Stages:         map[string]float64{},
		Metrics:        map[string]float64{},
	}
	if queueWaitSeconds > 0 {
		rec.Stages["queue_wait_seconds"] = queueWaitSeconds
	}
	switch res := result.(type) {
	case *AttackCampaignResult:
		rec.Metrics["value_accuracy"] = res.ValueAcc
		rec.Metrics["sign_accuracy"] = res.SignAcc
		rec.Metrics["zero_accuracy"] = res.ZeroAcc
		rec.Metrics["mean_margin"] = res.MeanMargin
		rec.Stages["profile_seconds"] = res.ProfileSeconds
		rec.Stages["attack_seconds"] = res.AttackSeconds
	case *StreamCampaignResult:
		rec.Metrics["value_accuracy"] = res.ValueAcc
		rec.Metrics["sign_accuracy"] = res.SignAcc
		rec.Metrics["mean_margin"] = res.MeanMargin
		rec.Metrics["ingest_bytes"] = float64(res.IngestBytes)
		rec.Metrics["ttfh_seconds"] = res.MeanTTFHSeconds
		rec.Metrics["ttv_seconds"] = res.MeanTTVSeconds
		if res.CoefficientsTotal > 0 {
			rec.Metrics["classified_ratio"] = float64(res.ClassifiedTotal) / float64(res.CoefficientsTotal)
		}
		if res.HintedBikz > 0 {
			rec.Metrics["hinted_bikz"] = res.HintedBikz
		}
		rec.Stages["profile_seconds"] = res.ProfileSeconds
		rec.Stages["stream_seconds"] = res.StreamSeconds
	case *DiagnoseCampaignResult:
		if rep := res.Report; rep != nil {
			var snrMax, tvlaMax float64
			for _, set := range rep.Sets {
				if set.SNR.Max > snrMax {
					snrMax = set.SNR.Max
				}
				for _, tt := range set.TTests {
					if tt.Summary.Max > tvlaMax {
						tvlaMax = tt.Summary.Max
					}
				}
			}
			rec.Metrics["snr_max"] = snrMax
			rec.Metrics["tvla_max"] = tvlaMax
			if rep.TotalPairs > 0 {
				rec.Metrics["leaky_pair_ratio"] = float64(rep.LeakyPairs) / float64(rep.TotalPairs)
			}
			if rep.Healthy {
				rec.Metrics["template_health"] = 1
			} else {
				rec.Metrics["template_health"] = 0
			}
		}
	}
	return rec
}
