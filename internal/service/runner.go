package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/jobs"
	"reveal/internal/obs"
	"reveal/internal/sampler"
	"reveal/internal/sca"
)

// Runner executes campaign jobs: it resolves templates through the shared
// LRU cache, captures deterministic synthetic encryptions, and runs the
// (optionally multi-worker) single-trace attack.
// TemplateSource resolves trained classifiers by template key — the
// in-process core.TemplateCache in single-node deployments, or a
// RemoteTemplateCache chaining the local LRU to the coordinator's
// registry on fabric workers.
type TemplateSource interface {
	GetOrTrain(ctx context.Context, key string,
		train func(context.Context) (*core.CoefficientClassifier, error)) (*core.CoefficientClassifier, bool, error)
}

type Runner struct {
	// Cache is the shared template source (required).
	Cache TemplateSource
	// Workers is the default classification worker count for campaigns
	// that do not set their own (values <= 1 run serially).
	Workers int
	// DataDir, when non-empty, receives one run directory per job
	// (<DataDir>/<jobID>/manifest.json) with the campaign manifest.
	DataDir string
}

// RunSummary is the outcome of one attacked encryption.
type RunSummary struct {
	Run        int     `json:"run"`
	ValueAccE1 float64 `json:"value_acc_e1"`
	SignAccE1  float64 `json:"sign_acc_e1"`
	ValueAccE2 float64 `json:"value_acc_e2"`
	SignAccE2  float64 `json:"sign_acc_e2"`
}

// AttackCampaignResult is the result payload of an "attack" campaign.
type AttackCampaignResult struct {
	Kind         string  `json:"kind"`
	Seed         uint64  `json:"seed"`
	TemplateKey  string  `json:"template_key"`
	CacheHit     bool    `json:"cache_hit"`
	Workers      int     `json:"workers"`
	Encryptions  int     `json:"encryptions"`
	Coefficients int     `json:"coefficients"`
	ValueAcc     float64 `json:"value_acc"`
	SignAcc      float64 `json:"sign_acc"`
	ZeroAcc      float64 `json:"zero_acc"`
	// MeanMargin is the mean posterior margin P(top1) − P(top2) across
	// every classified coefficient — the attack's confidence, which drops
	// before the accuracy itself does.
	MeanMargin float64 `json:"mean_margin"`
	// ProfileSeconds / AttackSeconds split the campaign wall clock into
	// template resolution (zero on a cache hit) and trace classification.
	ProfileSeconds float64      `json:"profile_seconds"`
	AttackSeconds  float64      `json:"attack_seconds"`
	Runs           []RunSummary `json:"runs"`
	// BaselineBikz / HintedBikz carry the DBDD security-loss estimate of
	// the last encryption's hints when the spec set estimate_bikz.
	BaselineBikz float64 `json:"bikz_baseline,omitempty"`
	HintedBikz   float64 `json:"bikz_with_hints,omitempty"`
	// LastProbs holds the per-coefficient posterior of the last
	// encryption's e2 polynomial when the spec asked for it (each table on
	// the wire as a value → probability object).
	LastProbs []core.Posterior `json:"last_probs,omitempty"`
	ElapsedMS int64            `json:"elapsed_ms"`
}

// DiagnoseCampaignResult is the result payload of a "diagnose" campaign.
type DiagnoseCampaignResult struct {
	Kind      string                  `json:"kind"`
	Seed      uint64                  `json:"seed"`
	Report    *core.DiagnosticsReport `json:"report"`
	ElapsedMS int64                   `json:"elapsed_ms"`
}

// SleepCampaignResult is the result payload of a "sleep" campaign.
type SleepCampaignResult struct {
	Kind     string `json:"kind"`
	SleptMS  int    `json:"slept_ms"`
	Attempts int    `json:"attempts"`
}

// Run executes one attempt of a leased job (the FabricWorker entry point).
// ctx is canceled when the lease is lost, the job is canceled, its deadline
// passes, or the worker stops hard; the core stage boundaries honor it.
func (r *Runner) Run(ctx context.Context, job *jobs.Job) (any, error) {
	spec, ok := job.Payload.(*CampaignSpec)
	if !ok {
		return nil, fmt.Errorf("service: job %s payload is %T, want *CampaignSpec", job.ID, job.Payload)
	}
	start := time.Now()
	lg, closeLog := r.jobLogger(job)
	defer closeLog()
	lg.Info("job attempt started", "kind", spec.Kind, "attempt", job.Attempts,
		"seed", spec.Seed, "tenant", job.Tenant)
	var (
		result any
		err    error
	)
	switch spec.Kind {
	case KindAttack:
		result, err = r.runAttack(ctx, spec)
	case KindDiagnose:
		result, err = r.runDiagnose(ctx, spec)
	case KindSleep:
		result, err = runSleep(ctx, spec, job.Attempts)
	case KindStream:
		result, err = r.runStream(ctx, spec)
	default:
		return nil, fmt.Errorf("service: unknown campaign kind %q", spec.Kind)
	}
	if err != nil {
		lg.Warn("job attempt failed", "attempt", job.Attempts, "error", err)
		return nil, err
	}
	lg.Info("job attempt finished", "attempt", job.Attempts,
		"elapsed", time.Since(start))
	if werr := r.writeJobArtifacts(job, spec, result, start); werr != nil {
		lg.Warn("job artifacts not fully written", "error", werr)
	}
	return result, nil
}

// sumTopMargins accumulates the top1−top2 posterior margin over every
// coefficient's probability table.
func sumTopMargins(probs []core.Posterior) (sum float64, n int) {
	for _, table := range probs {
		if m, ok := sca.TopMargin(table.P); ok {
			sum += m
			n++
		}
	}
	return sum, n
}

// jobLogger builds the job-scoped logger: the global stream teed with the
// job's <DataDir>/<jobID>/run.log (JSON records), every record stamped
// with the job ID and the request trace ID so a single grep correlates
// daemon logs with the originating HTTP request. The returned closer
// flushes the file; both are safe no-op fallbacks when DataDir is unset
// or the file cannot be created.
func (r *Runner) jobLogger(job *jobs.Job) (*slog.Logger, func()) {
	attrs := func(lg *slog.Logger) *slog.Logger {
		lg = lg.With("job_id", job.ID)
		if job.TraceID != "" {
			lg = lg.With("trace_id", job.TraceID)
		}
		return lg
	}
	if r.DataDir == "" {
		return attrs(obs.Log()), func() {}
	}
	dir := filepath.Join(r.DataDir, job.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return attrs(obs.Log()), func() {}
	}
	// Append: a retried job logs every attempt into the same run.log.
	f, err := os.OpenFile(filepath.Join(dir, "run.log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return attrs(obs.Log()), func() {}
	}
	fileLg := obs.NewLogger(obs.LogOptions{Level: slog.LevelDebug, JSON: true, Output: f})
	return attrs(obs.TeeLogger(obs.Log(), fileLg)), func() { _ = f.Close() }
}

// classifier resolves the spec's trained classifier through the template
// cache, profiling on a miss.
func (r *Runner) classifier(ctx context.Context, spec *CampaignSpec) (*core.CoefficientClassifier, string, bool, error) {
	profDev, popts := spec.deviceAndOptions()
	key := core.TemplateCacheKey(profDev, popts)
	cls, hit, err := r.Cache.GetOrTrain(ctx, key, func(ctx context.Context) (*core.CoefficientClassifier, error) {
		return core.ProfileCtx(ctx, profDev, popts)
	})
	if err != nil {
		return nil, key, false, fmt.Errorf("service: profiling for %s: %w", key, err)
	}
	return cls, key, hit, nil
}

// workersFor resolves the effective classification worker count.
func (r *Runner) workersFor(spec *CampaignSpec) int {
	w := spec.Workers
	if w == 0 {
		w = r.Workers
	}
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runAttack executes an "attack" campaign. The attacked device is a fresh
// one salted away from the profiling device, so the captured noise stream
// (and therefore the result) is byte-identical whether the templates came
// from the cache or a fresh profiling run.
func (r *Runner) runAttack(ctx context.Context, spec *CampaignSpec) (*AttackCampaignResult, error) {
	start := time.Now()
	cls, key, hit, err := r.classifier(ctx, spec)
	if err != nil {
		return nil, err
	}
	profileElapsed := time.Since(start)
	var attackDev *core.Device
	if spec.LowNoise {
		attackDev = core.NewLowNoiseDevice(spec.Seed ^ attackDeviceSalt)
	} else {
		attackDev = core.NewDevice(spec.Seed ^ attackDeviceSalt)
	}
	params, err := spec.params()
	if err != nil {
		return nil, err
	}
	prng := sampler.NewXoshiro256(spec.Seed ^ 0xABCD)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(params, pk, prng)

	workers := r.workersFor(spec)
	res := &AttackCampaignResult{
		Kind: spec.Kind, Seed: spec.Seed, TemplateKey: key, CacheHit: hit,
		Workers: workers, Encryptions: spec.Encryptions,
	}
	valOK, signOK, zeroOK, zeroTotal, total := 0, 0, 0, 0, 0
	var marginSum float64
	marginN := 0
	var lastOutcome *core.AttackOutcome
	for run := 0; run < spec.Encryptions; run++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("service: campaign canceled at encryption %d/%d: %w",
				run, spec.Encryptions, err)
		}
		pt := params.NewPlaintext()
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64(i*31+run*7) % params.T
		}
		cap, err := core.CaptureEncryptionCtx(ctx, attackDev, params, enc, pt)
		if err != nil {
			return nil, fmt.Errorf("service: capturing encryption %d: %w", run, err)
		}
		out, err := cls.AttackWithOptions(ctx, cap, params.N, core.AttackOptions{Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("service: attacking encryption %d: %w", run, err)
		}
		rs := RunSummary{Run: run}
		if rs.ValueAccE1, rs.SignAccE1, err = out.E1.Accuracy(cap.Truth.E1); err != nil {
			return nil, err
		}
		if rs.ValueAccE2, rs.SignAccE2, err = out.E2.Accuracy(cap.Truth.E2); err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, rs)
		score := func(ar *core.AttackResult, truth []int64) {
			for i, v := range ar.Values {
				tv := int(truth[i])
				total++
				if v == tv {
					valOK++
				}
				if ar.Signs[i] == sca.SignOf(tv) {
					signOK++
				}
				if tv == 0 {
					zeroTotal++
					if v == 0 {
						zeroOK++
					}
				}
			}
		}
		score(out.E1, cap.Truth.E1)
		score(out.E2, cap.Truth.E2)
		for _, probs := range [][]core.Posterior{out.E1.Probs, out.E2.Probs} {
			s, n := sumTopMargins(probs)
			marginSum += s
			marginN += n
		}
		core.EmitOutcomeEvents(ctx, out, cap)
		lastOutcome = out
		if spec.KeepProbs && run == spec.Encryptions-1 {
			res.LastProbs = out.E2.Probs
		}
	}
	res.Coefficients = total
	if total > 0 {
		res.ValueAcc = float64(valOK) / float64(total)
		res.SignAcc = float64(signOK) / float64(total)
	}
	if zeroTotal > 0 {
		res.ZeroAcc = float64(zeroOK) / float64(zeroTotal)
	}
	if marginN > 0 {
		res.MeanMargin = marginSum / float64(marginN)
	}
	if spec.EstimateBikz && lastOutcome != nil {
		loss, err := core.EstimateFullHints(params, lastOutcome.E2)
		if err != nil {
			return nil, fmt.Errorf("service: estimating hinted security: %w", err)
		}
		res.BaselineBikz = loss.BaselineBikz
		res.HintedBikz = loss.HintedBikz
	}
	res.ProfileSeconds = profileElapsed.Seconds()
	res.AttackSeconds = time.Since(start).Seconds() - res.ProfileSeconds
	res.ElapsedMS = time.Since(start).Milliseconds()
	obs.LogCtx(ctx).Info("attack campaign finished",
		"seed", spec.Seed, "encryptions", spec.Encryptions,
		"coefficients", res.Coefficients, "value_acc", res.ValueAcc,
		"cache_hit", hit, "workers", workers)
	return res, nil
}

// runDiagnose executes a "diagnose" campaign.
func (r *Runner) runDiagnose(ctx context.Context, spec *CampaignSpec) (*DiagnoseCampaignResult, error) {
	start := time.Now()
	dev, popts := spec.deviceAndOptions()
	report, err := core.Diagnose(ctx, dev, core.DiagnosticsOptions{Profile: popts})
	if err != nil {
		return nil, err
	}
	return &DiagnoseCampaignResult{
		Kind: spec.Kind, Seed: spec.Seed, Report: report,
		ElapsedMS: time.Since(start).Milliseconds(),
	}, nil
}

// runSleep executes the "sleep" testing kind.
func runSleep(ctx context.Context, spec *CampaignSpec, attempt int) (*SleepCampaignResult, error) {
	if attempt <= spec.FailAttempts {
		return nil, fmt.Errorf("service: induced failure on attempt %d/%d", attempt, spec.FailAttempts)
	}
	d := time.Duration(spec.SleepMS) * time.Millisecond
	if d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, fmt.Errorf("service: sleep canceled: %w", ctx.Err())
		}
	}
	return &SleepCampaignResult{Kind: spec.Kind, SleptMS: spec.SleepMS, Attempts: attempt}, nil
}

// writeJobArtifacts archives one finished job into DataDir/<jobID>/:
// manifest.json (spec, headline results, registry snapshot, trace ID) and
// — when tracing is on and the job carries a trace identity — trace.json
// with the job's slice of the span/flow event buffer. Manifests are
// written directly (not through obs.StartRun, which swaps the global
// recorder and is not safe with concurrent jobs).
func (r *Runner) writeJobArtifacts(job *jobs.Job, spec *CampaignSpec, result any, start time.Time) error {
	if r.DataDir == "" {
		return nil
	}
	dir := filepath.Join(r.DataDir, job.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	end := time.Now().UTC()
	m := &obs.Manifest{
		Tool:            "reveald",
		Command:         spec.Kind,
		TraceID:         job.TraceID,
		Seed:            spec.Seed,
		GoVersion:       runtime.Version(),
		StartTime:       start.UTC(),
		EndTime:         end,
		DurationSeconds: end.Sub(start.UTC()).Seconds(),
		Config:          cfg,
		Results:         map[string]any{"job_id": job.ID, "result": result},
		Metrics:         obs.Global().Registry().Snapshot(),
	}
	firstErr := obs.WriteManifest(filepath.Join(dir, "manifest.json"), m)
	if rec := obs.Global(); rec.TracingEnabled() && job.TraceID != "" {
		f, err := os.Create(filepath.Join(dir, "trace.json"))
		if err == nil {
			err = rec.WriteTraceJSONFor(f, job.TraceID)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("service: writing trace.json: %w", err)
		}
	}
	return firstErr
}
