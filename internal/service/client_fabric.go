package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"reveal/internal/jobs"
)

// Fabric client: the worker side of the coordinator/worker protocol.

// LeaseJob asks the coordinator for one job lease. A positive wait
// long-polls server-side; nil job means nothing was eligible in time.
func (c *Client) LeaseJob(ctx context.Context, worker string, ttl, wait time.Duration) (*jobs.LeasedJob, error) {
	var resp leaseResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/fabric/lease", leaseRequest{
		Worker:      worker,
		TTLSeconds:  ttl.Seconds(),
		WaitSeconds: wait.Seconds(),
	}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Job, nil
}

// RenewJobLease heartbeats a held lease and returns the new expiry. An
// error matching jobs.ErrLeaseLost (HTTP 409: the lease expired and the
// job was requeued, finished, or canceled) tells the worker to abandon the
// attempt.
func (c *Client) RenewJobLease(ctx context.Context, id, worker, token string, ttl time.Duration) (time.Time, error) {
	var resp renewResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/fabric/jobs/"+url.PathEscape(id)+"/renew",
		renewRequest{Worker: worker, Token: token, TTLSeconds: ttl.Seconds()}, &resp)
	return resp.LeaseExpiry, err
}

// CompleteJob reports a leased attempt's outcome (errMsg empty = success)
// and returns the job's resulting status — done, requeued for retry, or
// failed.
func (c *Client) CompleteJob(ctx context.Context, id, worker, token string, result any, errMsg string) (jobs.Status, error) {
	req := completeRequest{Worker: worker, Token: token, Error: errMsg}
	if errMsg == "" && result != nil {
		raw, err := json.Marshal(result)
		if err != nil {
			return jobs.Status{}, fmt.Errorf("service: marshaling result of %s: %w", id, err)
		}
		req.Result = raw
	}
	var st jobs.Status
	err := c.do(ctx, http.MethodPost, "/api/v1/fabric/jobs/"+url.PathEscape(id)+"/complete", req, &st)
	return st, err
}

// TemplateGet fetches a serialized classifier from the coordinator's
// registry (ok=false on 404).
func (c *Client) TemplateGet(ctx context.Context, key string) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/api/v1/fabric/templates/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, false, nil
	}
	if resp.StatusCode >= 300 {
		return nil, false, &APIError{Method: http.MethodGet, Path: "/api/v1/fabric/templates/{key}", Status: resp.StatusCode}
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, false, err
	}
	return blob, true, nil
}

// TemplateClaim asks for the right to train key: train=true means this
// worker profiles and uploads; otherwise poll TemplateGet again after
// retryAfter.
func (c *Client) TemplateClaim(ctx context.Context, key, worker string) (train bool, retryAfter time.Duration, err error) {
	var resp claimResponse
	err = c.do(ctx, http.MethodPost,
		"/api/v1/fabric/templates/"+url.PathEscape(key)+"/claim?worker="+url.QueryEscape(worker), nil, &resp)
	if err != nil {
		return false, 0, err
	}
	return resp.Train, time.Duration(resp.RetryAfterMS) * time.Millisecond, nil
}

// TemplatePut uploads a serialized classifier, releasing the caller's
// claim on the key.
func (c *Client) TemplatePut(ctx context.Context, key string, blob []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		c.BaseURL+"/api/v1/fabric/templates/"+url.PathEscape(key), bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode >= 300 {
		return &APIError{Method: http.MethodPut, Path: "/api/v1/fabric/templates/{key}", Status: resp.StatusCode}
	}
	return nil
}

// TemplateRelease abandons a training claim so another node can take it.
func (c *Client) TemplateRelease(ctx context.Context, key, worker string) error {
	return c.do(ctx, http.MethodDelete,
		"/api/v1/fabric/templates/"+url.PathEscape(key)+"/claim?worker="+url.QueryEscape(worker), nil, nil)
}
