package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/jobs"
	"reveal/internal/jobs/wal"
	"reveal/internal/obs"
	"reveal/internal/obs/history"
	"reveal/internal/sampler"
	"reveal/internal/service"
)

// Campaign workload knobs: the campaign seeds a run cycles over (their
// templates are warmed in set-up; each seed attacks its own device, so
// value_acc is a mean over this many devices), the status poll interval,
// and how long an operation may wait for its verdict before it counts as
// failed.
const (
	campaignSeeds   = 24
	campaignPoll    = 5 * time.Millisecond
	campaignTimeout = 30 * time.Second
)

// The campaign runner derives its attack device and keys from the spec
// seed with these salts; the in-process replay must use the same ones.
const (
	attackDeviceSalt uint64 = 0x5EA1C0DE
	attackKeySalt    uint64 = 0xABCD
)

// campaignWorkload is the service path with real attacks: a client submits
// attack campaigns over loopback HTTP to a WAL-backed coordinator and polls
// until the verdict, while one fabric worker leases, runs and completes
// them.
var campaignWorkload = &workload{
	name:  "campaign",
	setup: setupCampaign,
	selfLayers: []string{"service.submit_ms", "jobs.queue_wait_ms", "service.profile_ms",
		"service.attack_ms", "fabric.handoff_ms", "service.poll_ms"},
}

// campaignRef is one campaign seed with the result an in-process replay of
// its attack produced.
type campaignRef struct {
	seed                uint64
	valueAcc            float64
	classified, correct int
}

type campaignInstance struct {
	dir    string
	rec    *obs.Recorder
	wal    *wal.Log
	hist   *history.Store
	svc    *service.Server
	srv    *obs.MetricsServer
	client *service.Client
	refs   []campaignRef

	stopWorker context.CancelFunc
	workerDone chan struct{}
	transports []*http.Transport

	// classify marks the daemon's classify stage at the first traced
	// operation, for the worker's classification throughput.
	classify stage
	marked   bool
	mark     stageMark
}

func setupCampaign(seed uint64) (inst instance, err error) {
	c := &campaignInstance{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	// The daemon installs a recorder for its metrics and traces; so does
	// the benchmark, on traced and untraced runs alike.
	c.rec = obs.New(obs.Options{TraceCapacity: obs.DefaultTraceCapacity, TraceRing: true, EventCapacity: 4096})
	obs.SetGlobal(c.rec)
	c.classify = newStage(c.rec, "classify")
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return nil, err
	}
	if c.dir, err = os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "campaign-"); err != nil {
		return nil, err
	}
	// Every job record is journaled, but submits are not fsynced: on shared
	// storage the fsync latency follows the neighbours' disk load, not the
	// program.
	if c.wal, _, err = wal.Open(wal.Options{Dir: filepath.Join(c.dir, "wal")}); err != nil {
		return nil, err
	}
	if c.hist, err = history.Open(history.Options{Dir: filepath.Join(c.dir, "history")}); err != nil {
		return nil, err
	}
	qopts := jobs.DefaultOptions()
	qopts.WAL = c.wal
	c.svc = service.New(service.Config{QueueOptions: qopts, PoolWorkers: -1, History: c.hist})
	c.svc.Start()
	c.srv, err = obs.ServeMetricsCfg(c.rec, "127.0.0.1:0", obs.ServeConfig{
		API: c.svc.Handler(), APIRoute: service.RouteLabel, Instrument: true,
	})
	if err != nil {
		return nil, err
	}
	c.client = c.newClient()

	params := bfv.PaperParameters()
	cache := core.NewTemplateCache(campaignSeeds)
	for k := 0; k < campaignSeeds; k++ {
		ref, key, cls, err := replayCampaign(params, mix(seed, 0x63616d70+uint64(k)))
		if err != nil {
			return nil, err
		}
		cache.Put(key, cls)
		c.refs = append(c.refs, ref)
	}

	ctx, cancel := context.WithCancel(context.Background())
	c.stopWorker = cancel
	c.workerDone = make(chan struct{})
	worker := &service.FabricWorker{
		ID: "perfbench-worker", Client: c.newClient(),
		Runner: &service.Runner{Cache: cache}, Slots: 1,
	}
	go func() {
		defer close(c.workerDone)
		_ = worker.Run(ctx)
	}()
	return c, nil
}

// newClient returns a coordinator client with its own connection pool, so
// the client and the worker keep their connections alive.
func (c *campaignInstance) newClient() *service.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 4
	c.transports = append(c.transports, tr)
	cl := service.NewClient("http://" + c.srv.Addr())
	cl.HTTPClient = &http.Client{Transport: tr}
	return cl
}

// replayCampaign trains the templates of an attack campaign with the given
// seed and replays its single encryption in process, exactly as the
// campaign runner will, for the result every campaign must match. It
// returns the template cache key and classifier to warm the worker with.
func replayCampaign(params *bfv.Parameters, seed uint64) (campaignRef, string, *core.CoefficientClassifier, error) {
	ref := campaignRef{seed: seed}
	popts := core.DefaultProfileOptions()
	popts.Q = params.Moduli[0]
	dev := core.NewDevice(seed)
	key := core.TemplateCacheKey(dev, popts)
	cls, err := core.Profile(dev, popts)
	if err != nil {
		return ref, "", nil, err
	}
	prng := sampler.NewXoshiro256(seed ^ attackKeySalt)
	kg := bfv.NewKeyGenerator(params, prng)
	enc := bfv.NewEncryptor(params, kg.GenPublicKey(kg.GenSecretKey()), prng)
	pt := params.NewPlaintext()
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i*31) % params.T
	}
	cap, err := core.CaptureEncryption(core.NewDevice(seed^attackDeviceSalt), params, enc, pt)
	if err != nil {
		return ref, "", nil, err
	}
	out, err := cls.AttackWithOptions(context.Background(), cap, params.N, core.AttackOptions{Workers: 1})
	if err != nil {
		return ref, "", nil, err
	}
	for _, p := range []struct {
		values []int
		truth  []int64
	}{{out.E1.Values, cap.Truth.E1}, {out.E2.Values, cap.Truth.E2}} {
		for i, v := range p.values {
			ref.classified++
			if int64(v) == p.truth[i] {
				ref.correct++
			}
		}
	}
	ref.valueAcc = float64(ref.correct) / float64(ref.classified)
	return ref, key, cls, nil
}

func (c *campaignInstance) close() {
	if c.stopWorker != nil {
		c.stopWorker()
		<-c.workerDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if c.srv != nil {
		_ = c.srv.Shutdown(ctx)
	}
	if c.svc != nil {
		_ = c.svc.Shutdown(ctx)
	}
	for _, tr := range c.transports {
		tr.CloseIdleConnections()
	}
	if c.wal != nil {
		_ = c.wal.Close()
	}
	if c.hist != nil {
		_ = c.hist.Close()
	}
	obs.SetGlobal(nil)
	if c.dir != "" {
		_ = os.RemoveAll(c.dir)
	}
}

func (c *campaignInstance) derive(sum map[string]float64, _ int) map[string]float64 {
	msec, _, items := c.classify.since(c.mark)
	return map[string]float64{"sca.coeffs_per_s": rate(float64(items), msec)}
}

func (c *campaignInstance) op(i int, traced bool) opResult {
	if traced && !c.marked {
		c.mark, c.marked = c.classify.mark(), true
	}
	ref := c.refs[i%len(c.refs)]
	spec := &service.CampaignSpec{Kind: service.KindAttack, Seed: ref.seed, Encryptions: 1}
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()

	t0 := time.Now()
	st, err := c.client.Submit(ctx, spec)
	submitted := time.Now()
	if err != nil {
		res := opResult{latency: submitted.Sub(t0), err: err}
		if traced && service.StatusCode(err) == http.StatusTooManyRequests {
			res.layers = map[string]float64{"service.submit_ms": ms(res.latency), "service.rejected_ratio": 1}
		}
		return res
	}
	polls := 0
	for {
		st, err = c.client.Campaign(ctx, st.ID)
		polls++
		if err != nil || st.State == jobs.StateDone || st.State == jobs.StateFailed {
			break
		}
		time.Sleep(campaignPoll)
	}
	seen := time.Now()
	res := opResult{latency: seen.Sub(t0), ttfh: seen.Sub(t0)}
	if err != nil {
		res.err = err
		return res
	}
	if st.State != jobs.StateDone {
		res.err = fmt.Errorf("campaign %s (seed %d) ended %s: %s", st.ID, ref.seed, st.State, st.Error)
		return res
	}
	var out service.AttackCampaignResult
	if err := reparse(st.Result, &out); err != nil {
		res.err = fmt.Errorf("campaign %s result: %w", st.ID, err)
		return res
	}
	if out.ValueAcc != ref.valueAcc || out.Coefficients != ref.classified {
		res.err = fmt.Errorf("campaign %s (seed %d): value_acc %v over %d coefficients, in-process replay %v over %d",
			st.ID, ref.seed, out.ValueAcc, out.Coefficients, ref.valueAcc, ref.classified)
		return res
	}
	res.classified, res.correct = ref.classified, ref.correct
	if traced {
		res.layers = campaignLayers(t0, submitted, seen, st, &out, polls)
	}
	return res
}

// campaignLayers attributes one campaign's latency on the process clock
// the client and the coordinator share. The operation's timeline is cut at
// the submit response or the first lease (SubmittedAt + QueueWaitSeconds),
// whichever comes first, then at the first lease and at the coordinator's
// finish, each cut clamped to be no earlier than the one before: submit
// round trip, queue wait, run, and poll lag until the client sees the
// verdict. A worker waiting on the queue often leases the job before the
// submit response is back; that overlap counts as run. The run splits into
// the worker's template resolution, its attack, and the fabric handoff
// around them (lease transit, job bookkeeping, completion).
func campaignLayers(t0, submitted, seen time.Time, st jobs.Status, out *service.AttackCampaignResult, polls int) map[string]float64 {
	claimed := st.SubmittedAt.Add(time.Duration(st.QueueWaitSeconds * float64(time.Second)))
	finished := claimed
	if st.FinishedAt != nil {
		finished = *st.FinishedAt
	}
	c1 := latest(t0, claimed)
	if submitted.Before(c1) {
		c1 = submitted
	}
	c2 := latest(c1, claimed)
	c3 := latest(c2, finished)
	profile := 1e3 * out.ProfileSeconds
	attack := 1e3 * out.AttackSeconds
	l := map[string]float64{
		"service.submit_ms":       ms(c1.Sub(t0)),
		"jobs.queue_wait_ms":      ms(c2.Sub(c1)),
		"service.profile_ms":      profile,
		"service.attack_ms":       attack,
		"fabric.handoff_ms":       ms(c3.Sub(c2)) - profile - attack,
		"service.poll_ms":         ms(seen.Sub(c3)),
		"service.run_ms":          1e3 * st.RunSeconds,
		"service.polls_per_op":    float64(polls),
		"jobs.attempts_per_op":    float64(st.Attempts),
		"service.rejected_ratio":  0,
		"service.cache_hit_ratio": 0,
		"sca.coeffs":              float64(out.Coefficients),
	}
	if out.CacheHit {
		l["service.cache_hit_ratio"] = 1
	}
	return l
}

func latest(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// reparse decodes a generically decoded JSON value into a typed one.
func reparse(v any, out any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}
