// Command reveald is the attack-campaign daemon: it serves the HTTP/JSON
// campaign API (submit a campaign spec, poll status, fetch results) next to
// the live observability endpoints, queues campaigns with retries and
// deadlines, executes each one under a lease on a fabric worker (in
// process, remote, or both), classifies each polynomial on a pool of
// goroutines claiming coefficients from a shared counter, and caches
// trained templates so repeated campaigns against the same device
// configuration skip profiling.
//
// Campaign kinds: "attack" (batch single-trace attacks), "stream" (the
// streaming engine: each trace replayed chunk by chunk through the RVTS
// wire format, coefficients classified as their segments close, optional
// early exit on a target bikz, optional batch digest cross-check), and
// "diagnose" (leakage assessment).
//
// Usage:
//
//	reveald [-role all|coordinator|worker] [-addr :9090] [-workers N]
//	        [-classify-workers N] [-queue N] [-cache N] [-retries N]
//	        [-backoff DUR] [-data-dir DIR] [-tenant-quota N]
//	        [-lease-ttl DUR] [-snapshot-interval DUR]
//	        [-coordinator URL] [-worker-id ID]
//	        [-drift-window N] [-drift-min-runs N] [-drift-tol F]
//	        [-profile-interval DUR] [-profile-cpu DUR]
//	        [-drain-timeout DUR] [-log-level LEVEL] [-log-json] [-selftest]
//
// Roles (the distributed campaign fabric). Every role that executes jobs
// runs the same fabric worker: it leases a job, heartbeats the lease, and
// reports the attempt back to the coordinator, which journals and records
// it. Its templates resolve in one order on every role: the worker's
// -cache LRU, then the coordinator's content-addressed registry, then
// profiling and an upload, so one worker trains per configuration.
//
//	all          the default: a coordinator plus an in-process worker with
//	             -workers slots, leasing from its own queue through direct
//	             calls instead of HTTP; remote workers may join it
//	coordinator  serve the API and the fabric endpoints but execute
//	             nothing locally; jobs wait for workers to lease them
//	worker       no API: lease jobs from -coordinator over HTTP, execute
//	             them on -workers slots, heartbeat each lease at a third
//	             of -lease-ttl, and report results back
//
// With -data-dir, coordinator roles journal every job-lifecycle transition
// to an append-only WAL under <data-dir>/wal and snapshot it every
// -snapshot-interval; on restart the queue replays the journal, keeps
// finished jobs for status queries, and re-enqueues everything accepted
// but unfinished — a crash loses no accepted job. -tenant-quota bounds
// queued+running jobs per tenant (rejections are HTTP 429 + Retry-After).
//
// With -selftest the daemon first runs the replay-determinism gate
// (internal/core.Selftest) and refuses to serve if the serial and parallel
// attack paths are not byte-identical.
//
// Endpoints (all on -addr):
//
//	POST   /api/v1/campaigns             submit a campaign spec
//	GET    /api/v1/campaigns             list jobs
//	GET    /api/v1/campaigns/{id}        job status
//	GET    /api/v1/campaigns/{id}/result result of a finished job
//	DELETE /api/v1/campaigns/{id}        cancel a job
//	GET    /api/v1/stats                 queue/worker stats, per-kind latency
//	GET    /api/v1/history               quality-history records (paginated)
//	GET    /api/v1/history/aggregate     per-kind quality rollups + baselines
//	POST   /api/v1/fabric/lease          lease one job (worker long-poll)
//	POST   /api/v1/fabric/jobs/{id}/renew     heartbeat a held lease
//	POST   /api/v1/fabric/jobs/{id}/complete  report a leased attempt
//	GET/PUT /api/v1/fabric/templates/{key}    template registry blobs
//	POST/DELETE /api/v1/fabric/templates/{key}/claim  training claims
//	/metrics /progress /healthz /readyz /events /debug/pprof  (observability)
//
// Every request carries a trace identity: an X-Reveal-Trace-Id header is
// adopted (or minted) by the HTTP layer, echoed on the response, and
// propagated through the queue into the worker — the same ID appears in
// log lines, the /events journal, the per-job manifest, run.log, and the
// trace.json flow events.
//
// On SIGTERM/SIGINT the daemon flips /readyz to 503 (load balancers stop
// routing), stops accepting submissions, lets running jobs finish for up
// to -drain-timeout, then cancels them and exits. A worker drains the same
// way: it stops leasing, lets its running jobs finish and report for up to
// -drain-timeout, then cancels them (their failures are reported, so the
// coordinator retries them) and exits. With -data-dir the
// service journal is additionally appended to <data-dir>/events.jsonl
// (flushed and fsynced on drain), every finished campaign appends one
// quality record to the <data-dir>/history store watched by the drift
// watchdog, and -profile-interval > 0 captures periodic CPU/heap pprof
// profiles under <data-dir>/profiles with a retention cap.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"reveal/internal/core"
	"reveal/internal/jobs"
	"reveal/internal/jobs/wal"
	"reveal/internal/obs"
	"reveal/internal/obs/history"
	"reveal/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reveald:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("reveald", flag.ExitOnError)
	role := fs.String("role", "all", "process role: all (single process), coordinator (API only, jobs execute on workers), worker (lease jobs from -coordinator)")
	addr := fs.String("addr", ":9090", "listen address for the API and observability endpoints (empty on a worker = no listener)")
	coordinator := fs.String("coordinator", "http://127.0.0.1:9090", "coordinator base URL (worker role)")
	workerID := fs.String("worker-id", "", "worker identity recorded on leases (default hostname-pid)")
	workers := fs.Int("workers", 2, "concurrent campaign jobs (execution slots on a worker)")
	classifyWorkers := fs.Int("classify-workers", 0, "classification goroutines per campaign (0 = GOMAXPROCS)")
	queueCap := fs.Int("queue", 64, "maximum queued+running jobs (0 = unbounded)")
	tenantQuota := fs.Int("tenant-quota", 0, "maximum queued+running jobs per tenant (0 = unlimited; rejections are HTTP 429)")
	cacheCap := fs.Int("cache", 4, "template cache capacity (trained classifiers)")
	retries := fs.Int("retries", 3, "default attempts per job")
	backoff := fs.Duration("backoff", 500*time.Millisecond, "base retry backoff (doubles per attempt)")
	leaseTTL := fs.Duration("lease-ttl", jobs.DefaultLeaseTTL, "fabric lease duration: a dead worker's jobs requeue after this long without a heartbeat")
	snapshotInterval := fs.Duration("snapshot-interval", 30*time.Second, "WAL snapshot+compaction period (0 = only at shutdown; needs -data-dir)")
	dataDir := fs.String("data-dir", "", "write the WAL, per-job run directories, events journal, and quality history here")
	driftWindow := fs.Int("drift-window", 8, "rolling window (runs) for the quality-drift watchdog")
	driftMinRuns := fs.Int("drift-min-runs", 4, "healthy runs required before a drift baseline is pinned")
	driftTol := fs.Float64("drift-tol", 0.05, "relative quality degradation tolerated before a drift alert")
	profileInterval := fs.Duration("profile-interval", 0, "capture CPU/heap pprof profiles this often (0 = disabled; needs -data-dir)")
	profileCPU := fs.Duration("profile-cpu", time.Second, "CPU profile duration per capture cycle")
	profileKeep := fs.Int("profile-keep", 8, "profiles retained per type before the oldest are pruned")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long to let running jobs finish on shutdown")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := fs.Bool("log-json", false, "emit JSON log records")
	selftest := fs.Bool("selftest", false, "run the replay-determinism gate before serving; exit nonzero on failure")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *role {
	case "all", "coordinator", "worker":
	default:
		return fmt.Errorf("unknown -role %q (want all, coordinator, or worker)", *role)
	}
	isWorker := *role == "worker"

	rec := obs.New(obs.Options{
		Logger: obs.NewLogger(obs.LogOptions{
			Level: obs.ParseLevel(*logLevel), JSON: *logJSON, Output: os.Stderr,
		}),
		// A daemon traces indefinitely: the ring overwrites the oldest span
		// events so per-job trace.json exports always cover recent jobs.
		TraceCapacity: obs.DefaultTraceCapacity,
		TraceRing:     true,
		EventCapacity: 4096,
	})
	obs.SetGlobal(rec)

	var eventsFile *os.File
	var hist *history.Store
	var watchdog *history.Watchdog
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			return fmt.Errorf("creating data dir: %w", err)
		}
		f, err := os.OpenFile(filepath.Join(*dataDir, "events.jsonl"),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("creating events.jsonl: %w", err)
		}
		eventsFile = f
		rec.Events().AttachSink(f)
		defer func() {
			// Flush + fsync the buffered journal tail before the process
			// exits; a SIGTERM drain must not lose the final events.
			if dropped := rec.Events().CloseSink(); dropped > 0 {
				obs.Log().Warn("event journal dropped events", "dropped", dropped)
			}
			_ = eventsFile.Close()
		}()

		// Quality history lives with the queue: workers report results to
		// the coordinator, which records them, so a worker's data-dir only
		// holds run directories and the events journal.
		if !isWorker {
			histDir := filepath.Join(*dataDir, "history")
			if err := os.MkdirAll(histDir, 0o755); err != nil {
				return fmt.Errorf("creating history dir: %w", err)
			}
			hist, err = history.Open(history.Options{Dir: histDir})
			if err != nil {
				return fmt.Errorf("opening history store: %w", err)
			}
			defer hist.Close()
			if hist.Skipped() > 0 {
				obs.Log().Warn("history store skipped torn records on replay",
					"skipped", hist.Skipped())
			}
			watchdog, err = history.NewWatchdog(history.DriftConfig{
				Window:       *driftWindow,
				MinRuns:      *driftMinRuns,
				Tolerance:    *driftTol,
				BaselinePath: filepath.Join(histDir, "baselines.json"),
				Registry:     rec.Registry(),
				Emit:         obs.Emit,
			})
			if err != nil {
				return fmt.Errorf("starting drift watchdog: %w", err)
			}
			obs.Log().Info("quality history enabled",
				"dir", histDir, "records", hist.Len(),
				"drift_window", *driftWindow, "drift_tol", *driftTol,
				"baseline_kinds", watchdog.Kinds())
		}

		if *profileInterval > 0 {
			prof, err := obs.NewProfiler(obs.ProfilerOptions{
				Dir:         filepath.Join(*dataDir, "profiles"),
				Interval:    *profileInterval,
				CPUDuration: *profileCPU,
				MaxProfiles: *profileKeep,
				Registry:    rec.Registry(),
			})
			if err != nil {
				return fmt.Errorf("starting profiler: %w", err)
			}
			prof.Start()
			defer prof.Close()
			obs.Log().Info("continuous profiling enabled",
				"dir", filepath.Join(*dataDir, "profiles"),
				"interval", profileInterval.String(), "cpu", profileCPU.String(),
				"keep", *profileKeep)
		}
	} else if *profileInterval > 0 {
		return errors.New("-profile-interval requires -data-dir")
	}

	if *selftest {
		report, err := core.Selftest(context.Background(), 1, *classifyWorkers)
		if err != nil {
			return fmt.Errorf("startup selftest: %w", err)
		}
		obs.Log().Info("startup selftest passed",
			"digest", report.Digest(),
			"value_accuracy", report.ValueAccuracy,
			"hinted_bikz", report.HintedBikz)
	}

	if isWorker {
		return runWorker(rec, workerConfig{
			Addr:            *addr,
			Coordinator:     *coordinator,
			WorkerID:        *workerID,
			Slots:           *workers,
			ClassifyWorkers: *classifyWorkers,
			CacheCapacity:   *cacheCap,
			DataDir:         *dataDir,
			LeaseTTL:        *leaseTTL,
			DrainTimeout:    *drainTimeout,
		})
	}

	// Coordinator roles: open the WAL before the queue exists so every
	// accepted job is journaled, and replay the previous process's tail
	// before serving.
	var walLog *wal.Log
	var replay *wal.Replay
	if *dataDir != "" {
		var err error
		walLog, replay, err = wal.Open(wal.Options{
			Dir:         filepath.Join(*dataDir, "wal"),
			SyncSubmits: true,
		})
		if err != nil {
			return fmt.Errorf("opening WAL: %w", err)
		}
		defer walLog.Close()
	}

	poolWorkers := *workers
	if *role == "coordinator" {
		poolWorkers = -1 // pure coordinator: jobs execute only on fabric workers
	}
	svc := service.New(service.Config{
		QueueOptions: jobs.Options{
			MaxAttempts: *retries,
			BackoffBase: *backoff,
			BackoffMax:  60 * time.Second,
			Capacity:    *queueCap,
			TenantQuota: *tenantQuota,
			WAL:         walLog,
		},
		PoolWorkers:     poolWorkers,
		ClassifyWorkers: *classifyWorkers,
		CacheCapacity:   *cacheCap,
		DataDir:         *dataDir,
		History:         hist,
		Watchdog:        watchdog,
		LeaseTTL:        *leaseTTL,
	})
	if replay != nil {
		requeued, terminal := svc.Queue().Restore(replay, service.DecodeCampaignPayload)
		if requeued+terminal > 0 {
			obs.Log().Info("WAL replay complete", "requeued", requeued, "terminal", terminal)
		}
	}
	snapStop := make(chan struct{})
	snapDone := make(chan struct{})
	if walLog != nil && *snapshotInterval > 0 {
		go func() {
			defer close(snapDone)
			ticker := time.NewTicker(*snapshotInterval)
			defer ticker.Stop()
			for {
				select {
				case <-snapStop:
					return
				case <-ticker.C:
					if err := svc.Queue().SnapshotWAL(); err != nil {
						obs.Log().Warn("WAL snapshot failed", "error", err)
					}
				}
			}
		}()
	} else {
		close(snapDone)
	}

	// draining flips before the worker drains so load balancers watching
	// /readyz stop routing while running jobs are still finishing.
	var draining atomic.Bool
	srv, err := obs.ServeMetricsCfg(rec, *addr, obs.ServeConfig{
		API:        svc.Handler(),
		APIRoute:   service.RouteLabel,
		Instrument: true,
		Ready: func(context.Context) error {
			if draining.Load() {
				return errors.New("draining")
			}
			return nil
		},
	})
	if err != nil {
		return fmt.Errorf("binding %s: %w", *addr, err)
	}
	svc.Start()
	obs.Log().Info("reveald listening",
		"addr", srv.Addr(), "role", *role, "workers", poolWorkers,
		"classify_workers", *classifyWorkers, "cache", *cacheCap,
		"lease_ttl", leaseTTL.String(), "tenant_quota", *tenantQuota,
		"wal", walLog != nil, "data_dir", *dataDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	draining.Store(true)
	obs.Emit(obs.ServiceEvent{Type: obs.EventDrainStarted, Detail: s.String()})
	obs.Log().Info("shutting down", "signal", s.String(), "drain_timeout", *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := svc.Shutdown(ctx)
	detail := "clean"
	if drainErr != nil {
		detail = drainErr.Error()
	}
	obs.Emit(obs.ServiceEvent{Type: obs.EventDrainDone, Detail: detail})
	close(snapStop)
	<-snapDone
	if walLog != nil {
		// A final snapshot compacts the journal so the next start replays a
		// single image instead of the full segment tail.
		if err := svc.Queue().SnapshotWAL(); err != nil {
			obs.Log().Warn("final WAL snapshot failed", "error", err)
		}
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := srv.Shutdown(httpCtx); err != nil {
		obs.Log().Warn("http server drain timed out", "error", err)
	}
	if drainErr != nil {
		return drainErr
	}
	obs.Log().Info("reveald stopped cleanly")
	return nil
}

// workerConfig is the parsed flag set of a -role worker process.
type workerConfig struct {
	Addr            string
	Coordinator     string
	WorkerID        string
	Slots           int
	ClassifyWorkers int
	CacheCapacity   int
	DataDir         string
	LeaseTTL        time.Duration
	DrainTimeout    time.Duration
}

// runWorker runs the worker role: lease campaigns from the coordinator,
// execute them locally, and report results back. The observability
// endpoints (no campaign API) are served on cfg.Addr unless it is empty.
func runWorker(rec *obs.Recorder, cfg workerConfig) error {
	id := cfg.WorkerID
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	client := service.NewClient(cfg.Coordinator)
	// Ride out coordinator restarts: dial failures retry with backoff
	// before the slot loop's own idle backoff takes over.
	client.RetryAttempts = 4
	worker := &service.FabricWorker{
		ID:     id,
		Client: client,
		Runner: &service.Runner{
			Cache:   core.NewTemplateCache(cfg.CacheCapacity),
			Workers: cfg.ClassifyWorkers,
			DataDir: cfg.DataDir,
		},
		Slots:    cfg.Slots,
		LeaseTTL: cfg.LeaseTTL,
	}

	var srv *obs.MetricsServer
	if cfg.Addr != "" {
		var err error
		srv, err = obs.ServeMetricsCfg(rec, cfg.Addr, obs.ServeConfig{Instrument: true})
		if err != nil {
			return fmt.Errorf("binding %s: %w", cfg.Addr, err)
		}
		obs.Log().Info("worker observability listening", "addr", srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = worker.Run(context.Background())
	}()
	s := <-sig
	obs.Log().Info("worker draining", "signal", s.String(), "drain_timeout", cfg.DrainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	drainErr := worker.Shutdown(ctx)
	<-done
	if srv != nil {
		httpCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(httpCtx)
	}
	if drainErr != nil {
		return drainErr
	}
	obs.Log().Info("worker stopped cleanly", "id", id)
	return nil
}
