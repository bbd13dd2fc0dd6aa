package service

import (
	"bytes"
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

// Runner executes campaign jobs: it resolves templates through its local
// cache and the coordinator's registry, captures deterministic synthetic
// encryptions, and runs the (optionally multi-worker) single-trace attack.
type Runner struct {
	// Cache is the worker's local template cache (required).
	Cache *core.TemplateCache
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

// Run executes one attempt of a leased job for the named worker, which
// reaches the template registry through coord. ctx is canceled when the
// lease is lost, the job is canceled, its deadline passes, or the worker
// stops hard; the core stage boundaries honor it.
func (r *Runner) Run(ctx context.Context, job *jobs.Job, coord Coordinator, worker string) (any, error) {
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
		result, err = r.runAttack(ctx, spec, coord, worker)
	case KindDiagnose:
		result, err = r.runDiagnose(ctx, spec)
	case KindStream:
		result, err = r.runStream(ctx, spec, coord, worker)
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

const (
	// registryPollInterval caps the wait between registry polls while
	// another worker trains.
	registryPollInterval = 250 * time.Millisecond
	// registryClaimTimeout bounds how long to wait on another worker's
	// training before training here anyway: a dead trainer must not wedge
	// the fleet even if its claim somehow never expires.
	registryClaimTimeout = 5 * time.Minute
)

// templates looks key up in order:
//  1. the local cache: a hit, or a wait on training already in flight on
//     this worker;
//  2. the coordinator's registry: a GET, else a claim on the key, polling
//     while another worker holds it;
//  3. train, then PUT the result to the registry.
//
// The local cache's single flight covers steps 2 and 3, so concurrent jobs
// on one worker reach the registry once. hit reports that train did not
// run for this call.
func (r *Runner) templates(ctx context.Context, coord Coordinator, worker, key string,
	train func(context.Context) (*core.CoefficientClassifier, error)) (*core.CoefficientClassifier, bool, error) {
	fetched := false
	cls, hit, err := r.Cache.GetOrTrain(ctx, key, func(ctx context.Context) (*core.CoefficientClassifier, error) {
		cls, fromRegistry, err := registryOrTrain(ctx, coord, worker, key, train)
		fetched = fromRegistry
		return cls, err
	})
	return cls, hit || fetched, err
}

// registryOrTrain fetches key from the coordinator's registry, or wins the
// key's training claim, trains and uploads, or polls while another worker
// trains. fromRegistry reports a registry download.
func registryOrTrain(ctx context.Context, coord Coordinator, worker, key string,
	train func(context.Context) (*core.CoefficientClassifier, error)) (*core.CoefficientClassifier, bool, error) {
	giveUp := time.Now().Add(registryClaimTimeout)
	for {
		blob, ok, err := coord.TemplateGet(ctx, key)
		if err != nil {
			// Coordinator unreachable: training here beats failing the job,
			// and the upload below is best-effort anyway.
			obs.Log().Warn("registry lookup failed, training locally", "key", key, "error", err)
			break
		}
		if ok {
			cls, err := core.ReadClassifier(bytes.NewReader(blob))
			if err == nil {
				obs.Log().Debug("template fetched from registry", "key", key, "bytes", len(blob))
				return cls, true, nil
			}
			obs.Log().Warn("registry template unreadable, retraining", "key", key, "error", err)
			break
		}
		trainHere, retryAfter, err := coord.TemplateClaim(ctx, key, worker)
		if err != nil || trainHere {
			break
		}
		// Another worker holds the claim: poll for its upload.
		if time.Now().After(giveUp) {
			obs.Log().Warn("claim wait timed out, training locally", "key", key)
			break
		}
		pause := retryAfter
		if pause <= 0 || pause > registryPollInterval {
			pause = registryPollInterval
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-time.After(pause):
		}
	}
	cls, err := train(ctx)
	if err != nil {
		// Hand the claim to the next worker instead of stalling it for the
		// full claim TTL.
		relCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = coord.TemplateRelease(relCtx, key, worker)
		cancel()
		return nil, false, err
	}
	var buf bytes.Buffer
	if err := core.WriteClassifier(&buf, cls); err != nil {
		obs.Log().Warn("template not serializable for registry", "key", key, "error", err)
	} else if err := coord.TemplatePut(ctx, key, buf.Bytes()); err != nil {
		obs.Log().Warn("template upload failed", "key", key, "error", err)
	}
	return cls, false, nil
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

// campaign is what the attack and stream kinds share: the resolved
// templates, the attacked parameter set, the accuracy tally over every
// classified coefficient, and the campaign's timing.
type campaign struct {
	cls    *core.CoefficientClassifier
	key    string
	hit    bool
	params *bfv.Parameters

	total, valOK, signOK, zeroTotal, zeroOK int
	marginSum                               float64
	marginN                                 int

	// profile is the time spent resolving templates; elapsed is the wall
	// clock once the last encryption was handled.
	profile, elapsed time.Duration
}

// runCampaign resolves the spec's templates, then captures spec.Encryptions
// encryptions of the plaintexts (i*31 + run*7) mod t and hands each capture
// to step, the kind's classification of it. The attacked device is a fresh
// one salted away from the profiling device, so the captured noise stream,
// and therefore the result, is the same whether the templates came from a
// cache, the registry or a fresh profiling run.
func (r *Runner) runCampaign(ctx context.Context, spec *CampaignSpec, coord Coordinator, worker string,
	step func(c *campaign, run int, cap *core.EncryptionCapture) error) (*campaign, error) {
	start := time.Now()
	profDev, popts := spec.deviceAndOptions()
	c := &campaign{key: core.TemplateCacheKey(profDev, popts)}
	var err error
	c.cls, c.hit, err = r.templates(ctx, coord, worker, c.key, func(ctx context.Context) (*core.CoefficientClassifier, error) {
		return core.ProfileCtx(ctx, profDev, popts)
	})
	if err != nil {
		return nil, fmt.Errorf("service: profiling for %s: %w", c.key, err)
	}
	c.profile = time.Since(start)
	if c.params, err = spec.params(); err != nil {
		return nil, err
	}
	var attackDev *core.Device
	if spec.LowNoise {
		attackDev = core.NewLowNoiseDevice(spec.Seed ^ attackDeviceSalt)
	} else {
		attackDev = core.NewDevice(spec.Seed ^ attackDeviceSalt)
	}
	prng := sampler.NewXoshiro256(spec.Seed ^ 0xABCD)
	kg := bfv.NewKeyGenerator(c.params, prng)
	pk := kg.GenPublicKey(kg.GenSecretKey())
	enc := bfv.NewEncryptor(c.params, pk, prng)
	for run := 0; run < spec.Encryptions; run++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("service: campaign canceled at encryption %d/%d: %w",
				run, spec.Encryptions, err)
		}
		pt := c.params.NewPlaintext()
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64(i*31+run*7) % c.params.T
		}
		cap, err := core.CaptureEncryptionCtx(ctx, attackDev, c.params, enc, pt)
		if err != nil {
			return nil, fmt.Errorf("service: capturing encryption %d: %w", run, err)
		}
		if err := step(c, run, cap); err != nil {
			return nil, err
		}
	}
	c.elapsed = time.Since(start)
	return c, nil
}

// score tallies a classified polynomial, or its classified prefix, against
// the encryption's truth.
func (c *campaign) score(res *core.AttackResult, truth []int64) {
	for i, v := range res.Values {
		tv := int(truth[i])
		c.total++
		if v == tv {
			c.valOK++
		}
		if res.Signs[i] == sca.SignOf(tv) {
			c.signOK++
		}
		if tv == 0 {
			c.zeroTotal++
			if v == 0 {
				c.zeroOK++
			}
		}
	}
	// Margins sum per polynomial, then into the campaign's total: the
	// order of the float additions fixes mean_margin's bits.
	var sum float64
	for _, post := range res.Probs {
		if m, ok := obs.TopMargin(post.P); ok {
			sum += m
			c.marginN++
		}
	}
	c.marginSum += sum
}

// accuracy returns the value and sign accuracy and the mean posterior
// margin P(top1) − P(top2) over every scored coefficient.
func (c *campaign) accuracy() (value, sign, margin float64) {
	if c.marginN > 0 {
		margin = c.marginSum / float64(c.marginN)
	}
	return ratio(c.valOK, c.total), ratio(c.signOK, c.total), margin
}

// seconds splits the campaign's wall clock into template resolution and
// the encryptions that followed, and returns the whole in milliseconds.
func (c *campaign) seconds() (profile, rest float64, ms int64) {
	profile = c.profile.Seconds()
	return profile, c.elapsed.Seconds() - profile, c.elapsed.Milliseconds()
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runAttack executes an "attack" campaign: the batch attack on each
// encryption's e1 and e2 traces.
func (r *Runner) runAttack(ctx context.Context, spec *CampaignSpec, coord Coordinator, worker string) (*AttackCampaignResult, error) {
	workers := r.workersFor(spec)
	res := &AttackCampaignResult{
		Kind: spec.Kind, Seed: spec.Seed, Workers: workers, Encryptions: spec.Encryptions,
	}
	c, err := r.runCampaign(ctx, spec, coord, worker, func(c *campaign, run int, cap *core.EncryptionCapture) error {
		out, err := c.cls.AttackWithOptions(ctx, cap, c.params.N, core.AttackOptions{Workers: workers})
		if err != nil {
			return fmt.Errorf("service: attacking encryption %d: %w", run, err)
		}
		rs := RunSummary{Run: run}
		if rs.ValueAccE1, rs.SignAccE1, err = out.E1.Accuracy(cap.Truth.E1); err != nil {
			return err
		}
		if rs.ValueAccE2, rs.SignAccE2, err = out.E2.Accuracy(cap.Truth.E2); err != nil {
			return err
		}
		res.Runs = append(res.Runs, rs)
		c.score(out.E1, cap.Truth.E1)
		c.score(out.E2, cap.Truth.E2)
		core.EmitOutcomeEvents(ctx, out, cap)
		if spec.KeepProbs && run == spec.Encryptions-1 {
			res.LastProbs = out.E2.Probs
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.TemplateKey, res.CacheHit, res.Coefficients = c.key, c.hit, c.total
	res.ValueAcc, res.SignAcc, res.MeanMargin = c.accuracy()
	res.ZeroAcc = ratio(c.zeroOK, c.zeroTotal)
	res.ProfileSeconds, res.AttackSeconds, res.ElapsedMS = c.seconds()
	obs.LogCtx(ctx).Info("attack campaign finished",
		"seed", spec.Seed, "encryptions", spec.Encryptions,
		"coefficients", res.Coefficients, "value_acc", res.ValueAcc,
		"cache_hit", res.CacheHit, "workers", workers)
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
