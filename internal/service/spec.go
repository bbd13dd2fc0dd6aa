// Package service exposes the attack pipeline as a long-running campaign
// service: an HTTP/JSON API for submitting campaign specs, polling job
// status, and fetching results, backed by the internal/jobs queue, the
// parallel classification loop in internal/core, and an LRU template
// cache so repeated campaigns against the same device configuration skip
// the profiling stage.
package service

import (
	"fmt"
	"time"

	"reveal/internal/bfv"
	"reveal/internal/core"
)

// Campaign kinds accepted by the service.
const (
	// KindAttack profiles (or reuses cached templates), captures synthetic
	// encryptions on a deterministic device, and runs the single-trace
	// attack on each.
	KindAttack = "attack"
	// KindDiagnose runs the leakage assessment (SNR, t-tests, POI overlap,
	// template health) for the spec's device configuration.
	KindDiagnose = "diagnose"
	// KindStream runs the attack through the streaming engine: each
	// captured trace is serialized to the RVTS wire format and replayed in
	// chunks through core.StreamAttack, classifying every coefficient the
	// moment its segment closes and — with a target bikz — stopping as
	// soon as the banked hints reach it.
	KindStream = "stream"
)

// CampaignSpec is the submission payload of POST /api/v1/campaigns.
type CampaignSpec struct {
	// Kind selects the campaign type: "attack" (default), "diagnose", or
	// "stream".
	Kind string `json:"kind"`
	// Seed makes the campaign deterministic end to end (device noise, BFV
	// keys, plaintexts).
	Seed uint64 `json:"seed"`
	// LowNoise selects the favourable measurement setup (and the richer
	// high-accuracy profiling campaign).
	LowNoise bool `json:"low_noise"`
	// ParamSet names the SEAL parameter set to attack: "" or "paper" or
	// "n1024" for the paper's legacy configuration, "n2048"/"n4096"/"n8192"
	// for the ladder sets. Larger degrees attack more coefficients per
	// trace and select the matching coefficient-modulus chain.
	ParamSet string `json:"param_set,omitempty"`
	// ProfileTracesPerValue overrides the profiling campaign scale
	// (0 keeps the device default).
	ProfileTracesPerValue int `json:"profile_traces_per_value,omitempty"`
	// Encryptions is how many single-trace attacks to run (attack kind).
	Encryptions int `json:"encryptions,omitempty"`
	// Workers overrides the per-campaign classification worker count
	// (0 uses the daemon default).
	Workers int `json:"workers,omitempty"`
	// KeepProbs embeds the full per-coefficient posterior tables of the
	// last encryption in the result (large; off by default).
	KeepProbs bool `json:"keep_probs,omitempty"`
	// Tenant attributes the campaign to a client identity for the
	// per-tenant service counters (optional, at most 64 characters).
	Tenant string `json:"tenant,omitempty"`

	// MaxAttempts bounds job attempts (0 uses the queue default).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// TimeoutMS, when positive, sets the job deadline (queue wait plus all
	// attempts) in milliseconds.
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// TargetBikz, ChunkSamples and VerifyBatch configure the "stream" kind.
	// TargetBikz > 0 arms early exit: the stream stops ingesting the moment
	// the banked hints push the DBDD estimate to (or below) the target.
	TargetBikz float64 `json:"target_bikz,omitempty"`
	// ChunkSamples is the replay chunk size in samples (0 means 4096, at
	// most maxChunkSamples).
	ChunkSamples int `json:"chunk_samples,omitempty"`
	// VerifyBatch additionally runs the batch attack on each full trace and
	// records whether the stream digest matches the batch digest — the
	// determinism contract, checked end to end.
	VerifyBatch bool `json:"verify_batch,omitempty"`
}

// maxChunkSamples bounds a stream campaign's chunk_samples: the streaming
// segmenter allocates a window of at least one chunk, and 1<<20 samples
// (8 MiB) exceeds every ladder trace, so a larger chunk only asks for
// memory no replay fills.
const maxChunkSamples = 1 << 20

// Normalize fills defaults and validates the spec.
func (s *CampaignSpec) Normalize() error {
	if s.Kind == "" {
		s.Kind = KindAttack
	}
	switch s.Kind {
	case KindAttack, KindDiagnose, KindStream:
	default:
		return fmt.Errorf("service: unknown campaign kind %q", s.Kind)
	}
	if (s.Kind == KindAttack || s.Kind == KindStream) && s.Encryptions <= 0 {
		s.Encryptions = 1
	}
	if s.Encryptions > 1000 {
		return fmt.Errorf("service: encryptions %d exceeds the per-campaign limit of 1000", s.Encryptions)
	}
	if s.ProfileTracesPerValue < 0 || s.Workers < 0 || s.MaxAttempts < 0 ||
		s.TimeoutMS < 0 || s.ChunkSamples < 0 || s.TargetBikz < 0 {
		return fmt.Errorf("service: negative values are not allowed in a campaign spec")
	}
	if s.ChunkSamples > maxChunkSamples {
		return fmt.Errorf("service: chunk_samples %d exceeds the limit of %d", s.ChunkSamples, maxChunkSamples)
	}
	if s.Kind != KindStream && (s.TargetBikz != 0 || s.ChunkSamples != 0 || s.VerifyBatch) {
		return fmt.Errorf("service: target_bikz/chunk_samples/verify_batch apply only to %q campaigns", KindStream)
	}
	if len(s.Tenant) > 64 {
		return fmt.Errorf("service: tenant %q exceeds 64 characters", s.Tenant)
	}
	// A named set is validated by building it. The default set always
	// resolves; skipping it keeps the per-attempt payload decode cheap.
	if s.ParamSet != "" {
		if _, err := bfv.ResolveParamSet(s.ParamSet); err != nil {
			return fmt.Errorf("service: %w", err)
		}
	}
	return nil
}

// params resolves the spec's named parameter set (validated by Normalize).
func (s *CampaignSpec) params() (*bfv.Parameters, error) {
	return bfv.ResolveParamSet(s.ParamSet)
}

// Timeout returns the job deadline duration (0 = none).
func (s *CampaignSpec) Timeout() time.Duration {
	return time.Duration(s.TimeoutMS) * time.Millisecond
}

// attackDeviceSalt separates the attack device's PRNG stream from the
// profiling device's. The profiling device may be skipped entirely on a
// template-cache hit; a dedicated attack device keeps the captured noise
// stream — and therefore the campaign result — identical either way.
const attackDeviceSalt uint64 = 0x5EA1C0DE

// deviceAndOptions builds the spec's profiling device and profile options.
func (s *CampaignSpec) deviceAndOptions() (*core.Device, core.ProfileOptions) {
	var dev *core.Device
	var popts core.ProfileOptions
	if s.LowNoise {
		dev = core.NewLowNoiseDevice(s.Seed)
		popts = core.HighAccuracyProfileOptions()
	} else {
		dev = core.NewDevice(s.Seed)
		popts = core.DefaultProfileOptions()
	}
	if s.ProfileTracesPerValue > 0 {
		popts.TracesPerValue = s.ProfileTracesPerValue
	}
	// The profiled modulus follows the spec's parameter set, so template
	// cache keys (which hash the profile options) separate per ladder rung.
	if params, err := s.params(); err == nil {
		popts.Q = params.Moduli[0]
	}
	return dev, popts
}
