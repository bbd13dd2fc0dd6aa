package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"reveal/internal/trace"
)

// Digest returns the canonical SHA-256 fingerprint of the result: values,
// signs, and the full posterior tables, marshaled as canonical JSON (each
// table in its map form, keys sorted; floats in shortest round-trip form,
// so two results digest equal iff every float is bit-identical up to the
// -0/0 distinction JSON preserves). The streaming and batch attack paths
// are held to digest equality by the determinism contract and the CI
// stream-smoke job.
func (r *AttackResult) Digest() (string, error) {
	data, err := json.Marshal(struct {
		Values []int       `json:"values"`
		Signs  []int       `json:"signs"`
		Probs  []Posterior `json:"probs"`
	}{r.Values, r.Signs, r.Probs})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Prefix returns the result truncated to its first n coefficients (views,
// not copies) — the shape an early-exited streaming attack produces, used
// to digest-compare a stream prefix against the batch result.
func (r *AttackResult) Prefix(n int) *AttackResult {
	if n > len(r.Values) {
		n = len(r.Values)
	}
	return &AttackResult{Values: r.Values[:n], Signs: r.Signs[:n], Probs: r.Probs[:n]}
}

// MatchesBatchPrefix is the stream-vs-batch cross-check of the determinism
// contract: it segments the complete trace tr (n coefficients plus the
// sentinel iteration), classifies its first len(streamed.Values)
// coefficients with AttackSegmentsCtx, and reports whether that batch
// prefix digests equal to the streamed result.
func (c *CoefficientClassifier) MatchesBatchPrefix(ctx context.Context, tr trace.Trace, n int, streamed *AttackResult) (bool, error) {
	segs, err := trace.NewSegmenter(n+1).Segment(tr, n+1, 8)
	if err != nil {
		return false, err
	}
	batch, err := c.AttackSegmentsCtx(ctx, segs[:min(len(streamed.Values), n)])
	if err != nil {
		return false, err
	}
	sd, err := streamed.Digest()
	if err != nil {
		return false, err
	}
	bd, err := batch.Digest()
	if err != nil {
		return false, err
	}
	return sd == bd, nil
}
