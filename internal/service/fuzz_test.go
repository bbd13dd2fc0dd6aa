package service

// FuzzCampaignSpec: spec decoding + Normalize must never panic, anything
// accepted must satisfy the documented bounds, and Normalize must be
// idempotent — a job re-normalized at execution time may not change.

import (
	"encoding/json"
	"testing"
)

func FuzzCampaignSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind": "attack", "seed": 7, "encryptions": 3}`))
	f.Add([]byte(`{"kind": "diagnose", "low_noise": true, "profile_traces_per_value": 40}`))
	f.Add([]byte(`{"kind": "sleep", "sleep_ms": 10, "fail_attempts": 1, "max_attempts": 3}`))
	f.Add([]byte(`{"kind": "bogus"}`))
	f.Add([]byte(`{"encryptions": 100000}`))
	f.Add([]byte(`{"workers": -1}`))
	f.Add([]byte(`{"seed": 18446744073709551615}`))
	f.Add([]byte(`{"timeout_ms": 2500, "keep_probs": true}`))
	f.Add([]byte(`{"kind": "stream", "seed": 5}`))
	f.Add([]byte(`{"kind": "stream", "target_bikz": 330, "verify_batch": true, "chunk_samples": 8589934592}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec CampaignSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		if err := spec.Normalize(); err != nil {
			return
		}
		// Post-conditions of a normalized spec.
		switch spec.Kind {
		case KindAttack, KindDiagnose, KindStream:
		default:
			t.Fatalf("normalized spec has kind %q", spec.Kind)
		}
		if (spec.Kind == KindAttack || spec.Kind == KindStream) && spec.Encryptions <= 0 {
			t.Fatalf("normalized %s spec has no encryptions", spec.Kind)
		}
		if spec.Encryptions > 1000 {
			t.Fatalf("normalized spec exceeds encryption cap: %d", spec.Encryptions)
		}
		if spec.ChunkSamples > maxChunkSamples {
			t.Fatalf("normalized spec exceeds the chunk cap: %d samples", spec.ChunkSamples)
		}
		if spec.ProfileTracesPerValue < 0 || spec.Workers < 0 || spec.MaxAttempts < 0 ||
			spec.TimeoutMS < 0 || spec.ChunkSamples < 0 || spec.TargetBikz < 0 {
			t.Fatal("normalized spec retains negative fields")
		}
		if spec.Timeout() < 0 {
			t.Fatalf("negative timeout %v", spec.Timeout())
		}
		// Idempotence.
		before := spec
		if err := spec.Normalize(); err != nil {
			t.Fatalf("re-normalize rejected an accepted spec: %v", err)
		}
		if spec != before {
			t.Fatalf("Normalize is not idempotent: %+v -> %+v", before, spec)
		}
	})
}
