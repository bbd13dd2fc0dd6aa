package service

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"reveal/internal/core"
	"reveal/internal/obs"
)

// RemoteTemplateCache is the fabric worker's TemplateSource: a local
// in-process LRU chained to the coordinator's content-addressed registry.
// A miss first checks the registry; a registry miss claims the key so only
// one node in the fleet runs the profiling campaign while the rest poll
// for its upload. The local LRU provides in-process single-flight on top,
// so concurrent jobs on one worker also train at most once.
type RemoteTemplateCache struct {
	// Local is the in-process LRU (required).
	Local *core.TemplateCache
	// Client talks to the coordinator (required).
	Client *Client
	// Worker names this node in registry claims.
	Worker string
}

const (
	// remotePollInterval caps the wait between registry polls while
	// another node trains.
	remotePollInterval = 250 * time.Millisecond
	// remoteClaimTimeout bounds how long to wait on another node's
	// training before giving up and training locally anyway — a dead
	// trainer must not wedge the fleet even if its claim somehow never
	// expires.
	remoteClaimTimeout = 5 * time.Minute
)

// GetOrTrain implements TemplateSource. hit reports whether the
// classifier came from a cache (local or registry) rather than a fresh
// profiling run.
func (rc *RemoteTemplateCache) GetOrTrain(ctx context.Context, key string,
	train func(context.Context) (*core.CoefficientClassifier, error)) (*core.CoefficientClassifier, bool, error) {
	if cls, ok := rc.Local.Get(key); ok {
		return cls, true, nil
	}
	fetched := false
	cls, _, err := rc.Local.GetOrTrain(ctx, key, func(ctx context.Context) (*core.CoefficientClassifier, error) {
		cls, fromRegistry, err := rc.resolve(ctx, key, train)
		fetched = fromRegistry
		return cls, err
	})
	return cls, fetched, err
}

// resolve fetches key from the registry, or wins the training claim and
// profiles, or polls while another node does. fromRegistry reports a
// registry download (a fleet-level cache hit).
func (rc *RemoteTemplateCache) resolve(ctx context.Context, key string,
	train func(context.Context) (*core.CoefficientClassifier, error)) (cls *core.CoefficientClassifier, fromRegistry bool, err error) {
	giveUp := time.Now().Add(remoteClaimTimeout)
	for {
		if blob, ok, gerr := rc.Client.TemplateGet(ctx, key); gerr == nil && ok {
			cls, rerr := core.ReadClassifier(bytes.NewReader(blob))
			if rerr == nil {
				obs.Log().Debug("template fetched from registry", "key", key, "bytes", len(blob))
				return cls, true, nil
			}
			// A corrupt registry blob falls through to training locally.
			obs.Log().Warn("registry template unreadable, retraining", "key", key, "error", rerr)
			break
		} else if gerr != nil {
			// Coordinator unreachable: training locally beats failing the
			// job — the upload below is best-effort anyway.
			obs.Log().Warn("registry lookup failed, training locally", "key", key, "error", gerr)
			break
		}
		trainHere, retryAfter, cerr := rc.Client.TemplateClaim(ctx, key, rc.Worker)
		if cerr != nil || trainHere {
			break
		}
		// Another node holds the claim: poll for its upload.
		if time.Now().After(giveUp) {
			obs.Log().Warn("claim wait timed out, training locally", "key", key)
			break
		}
		pause := retryAfter
		if pause <= 0 || pause > remotePollInterval {
			pause = remotePollInterval
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-time.After(pause):
		}
	}
	cls, err = train(ctx)
	if err != nil {
		// Hand the claim to the next node instead of stalling it for the
		// full claim TTL.
		relCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = rc.Client.TemplateRelease(relCtx, key, rc.Worker)
		cancel()
		return nil, false, err
	}
	var buf bytes.Buffer
	if werr := core.WriteClassifier(&buf, cls); werr == nil {
		if perr := rc.Client.TemplatePut(ctx, key, buf.Bytes()); perr != nil {
			obs.Log().Warn("template upload failed", "key", key, "error", perr)
		}
	} else {
		obs.Log().Warn("template not serializable for registry", "key", key, "error", werr)
	}
	return cls, false, nil
}

// compile-time interface checks: both template sources satisfy the runner.
var (
	_ TemplateSource = (*core.TemplateCache)(nil)
	_ TemplateSource = (*RemoteTemplateCache)(nil)
)

// String implements fmt.Stringer for log lines.
func (rc *RemoteTemplateCache) String() string {
	return fmt.Sprintf("remote-template-cache(%s)", rc.Client.BaseURL)
}
