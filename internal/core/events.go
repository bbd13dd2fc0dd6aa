package core

import (
	"context"

	"reveal/internal/obs"
)

// EmitCoeffEvents journals one per-coefficient CoeffEvent for every position
// of an attack result, scored against the ground-truth coefficients the
// evaluation harness holds. The attack itself never sees the truth — this is
// post-hoc scoring for the coeffs.jsonl journal and the aggregate
// classification-quality metrics. No-op (and zero cost) when observability
// is disabled.
//
// Each event is stamped with the request trace ID from ctx. Outside the
// service path the ID is empty and (being omitempty) leaves the
// coeffs.jsonl byte stream — and thus the selftest digest — unchanged.
func EmitCoeffEvents(ctx context.Context, poly string, res *AttackResult, truth []int64) {
	rec := obs.Global()
	if rec == nil {
		return
	}
	traceID := obs.TraceIDFrom(ctx)
	n := len(res.Values)
	if len(truth) < n {
		n = len(truth)
	}
	for i := 0; i < n; i++ {
		tv := int(truth[i])
		margin, entropy, rank := obs.PosteriorStats(res.Probs[i].Labels, res.Probs[i].P, tv)
		rec.RecordCoeff(obs.CoeffEvent{
			TraceID:     traceID,
			Poly:        poly,
			Index:       i,
			True:        tv,
			Predicted:   res.Values[i],
			Sign:        res.Signs[i],
			Correct:     res.Values[i] == tv,
			Margin:      margin,
			EntropyBits: entropy,
			Rank:        rank,
		})
	}
}

// EmitOutcomeEvents journals both polynomials of an attack outcome against
// the capture's transcript, stamping each event with ctx's trace identity.
func EmitOutcomeEvents(ctx context.Context, out *AttackOutcome, cap *EncryptionCapture) {
	if cap.Truth == nil {
		return
	}
	EmitCoeffEvents(ctx, "e1", out.E1, cap.Truth.E1)
	EmitCoeffEvents(ctx, "e2", out.E2, cap.Truth.E2)
}
