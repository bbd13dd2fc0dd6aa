package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strconv"

	"reveal/internal/trace"
)

// Digest returns the canonical SHA-256 fingerprint of the result: values,
// signs, and the full posterior tables, in the bytes encoding/json writes
// for them (each table in its map form, keys sorted; floats in shortest
// round-trip form, so two results digest equal iff every float is
// bit-identical up to the -0/0 distinction JSON preserves). The bytes
// stream into the hash through one reused buffer. The streaming and batch
// attack paths are held to digest equality by the determinism contract
// and the CI stream-smoke job.
func (r *AttackResult) Digest() (string, error) {
	d := digester{h: sha256.New(), buf: make([]byte, 0, 2*digestFlush)}
	d.buf = append(d.buf, `{"values":`...)
	d.ints(r.Values)
	d.buf = append(d.buf, `,"signs":`...)
	d.ints(r.Signs)
	d.buf = append(d.buf, `,"probs":`...)
	if r.Probs == nil {
		d.buf = append(d.buf, "null"...)
	} else {
		var w posteriorWriter
		d.buf = append(d.buf, '[')
		for i, p := range r.Probs {
			if i > 0 {
				d.buf = append(d.buf, ',')
			}
			var err error
			if d.buf, err = w.append(d.buf, p); err != nil {
				return "", err
			}
			d.flush()
		}
		d.buf = append(d.buf, ']')
	}
	d.buf = append(d.buf, '}')
	d.h.Write(d.buf)
	return hex.EncodeToString(d.h.Sum(nil)), nil
}

// digestFlush is the buffered byte count at which a digester hashes its
// buffer and starts it over.
const digestFlush = 2048

// digester feeds JSON bytes to a hash through a buffer it reuses.
type digester struct {
	h   hash.Hash
	buf []byte
}

func (d *digester) flush() {
	if len(d.buf) >= digestFlush {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

// ints writes s as a JSON array of integers (null when s is nil).
func (d *digester) ints(s []int) {
	if s == nil {
		d.buf = append(d.buf, "null"...)
		return
	}
	d.buf = append(d.buf, '[')
	for i, v := range s {
		if i > 0 {
			d.buf = append(d.buf, ',')
		}
		d.buf = strconv.AppendInt(d.buf, int64(v), 10)
		d.flush()
	}
	d.buf = append(d.buf, ']')
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
