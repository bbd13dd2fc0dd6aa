package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"reveal/internal/jobs"
	"reveal/internal/service"
)

// submitConfig is the fully parsed input of one submit invocation: the
// normalized campaign spec plus the delivery options.
type submitConfig struct {
	Addr      string
	Spec      service.CampaignSpec
	Wait      bool
	Poll      time.Duration
	Retry     int
	RetryBase time.Duration
}

// parseSubmitArgs turns the submit argument list into a normalized
// submitConfig. -spec FILE (or "-" for stdin) replaces the inline flags;
// either path ends with spec.Normalize so an invalid kind or bound fails
// here, before any network traffic. stdin is injected for testability.
func parseSubmitArgs(args []string, stdin io.Reader, stderr io.Writer) (*submitConfig, error) {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &submitConfig{}
	fs.StringVar(&cfg.Addr, "addr", "http://127.0.0.1:9090", "reveald base URL")
	specPath := fs.String("spec", "", "campaign spec JSON file (- for stdin); inline flags below are ignored when set")
	kind := fs.String("kind", "attack", "campaign kind: attack, diagnose, stream")
	seed := fs.Uint64("seed", 1, "campaign seed")
	lowNoise := fs.Bool("lownoise", false, "use the low-noise measurement setup")
	paramSet := fs.String("param-set", "", "SEAL parameter set: paper/n1024 (default), n2048, n4096, n8192")
	traces := fs.Int("traces", 0, "profiling traces per coefficient value (0 = preset default)")
	encryptions := fs.Int("encryptions", 1, "single-trace attacks to run (attack kind)")
	workers := fs.Int("workers", 0, "classification goroutines (0 = daemon default)")
	attempts := fs.Int("attempts", 0, "job attempt budget (0 = daemon default)")
	timeout := fs.Duration("timeout", 0, "job deadline covering queue wait and retries (0 = none)")
	tenant := fs.String("tenant", "", "tenant identity recorded on the job (per-tenant metrics)")
	targetBikz := fs.Float64("target-bikz", 0, "stream kind: stop each trace once the banked hints reach this block size (0 = full trace)")
	chunkSamples := fs.Int("chunk-samples", 0, "stream kind: RVTS replay chunk size in samples (0 = daemon default)")
	verifyBatch := fs.Bool("verify-batch", false, "stream kind: also run the batch attack and record digest equality")
	fs.BoolVar(&cfg.Wait, "wait", false, "poll until the campaign finishes and print its result")
	fs.DurationVar(&cfg.Poll, "poll", 500*time.Millisecond, "poll interval with -wait")
	fs.IntVar(&cfg.Retry, "retry", 3, "transient connection-error retries with exponential backoff (0 = fail fast)")
	fs.DurationVar(&cfg.RetryBase, "retry-base", 200*time.Millisecond, "first retry delay (doubles per attempt, capped at 5s)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	if *specPath != "" {
		var data []byte
		var err error
		if *specPath == "-" {
			data, err = io.ReadAll(stdin)
		} else {
			data, err = os.ReadFile(*specPath)
		}
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &cfg.Spec); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", *specPath, err)
		}
	} else {
		cfg.Spec = service.CampaignSpec{
			Kind:                  *kind,
			Seed:                  *seed,
			LowNoise:              *lowNoise,
			ParamSet:              *paramSet,
			ProfileTracesPerValue: *traces,
			Encryptions:           *encryptions,
			Workers:               *workers,
			MaxAttempts:           *attempts,
			TimeoutMS:             int(timeout.Milliseconds()),
			Tenant:                *tenant,
			TargetBikz:            *targetBikz,
			ChunkSamples:          *chunkSamples,
			VerifyBatch:           *verifyBatch,
		}
	}
	if err := cfg.Spec.Normalize(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// runSubmit implements `revealctl submit`: post a campaign spec to a
// running reveald and optionally wait for the result.
func runSubmit(args []string) error {
	cfg, err := parseSubmitArgs(args, os.Stdin, os.Stderr)
	if err != nil {
		return err
	}
	spec := cfg.Spec

	ctx := context.Background()
	client := service.NewClient(cfg.Addr)
	client.RetryAttempts = cfg.Retry
	client.RetryBase = cfg.RetryBase
	st, err := client.Submit(ctx, &spec)
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s (%s, seed %d): %s\n", st.ID, st.Kind, spec.Seed, st.State)
	if st.TraceID != "" {
		// The same ID appears in the daemon's log lines, /events journal,
		// per-job manifest/run.log/trace.json, and the X-Reveal-Trace-Id
		// response header — grep any of them with it.
		fmt.Printf("trace %s\n", st.TraceID)
	}
	if !cfg.Wait {
		fmt.Printf("poll with: revealctl status -addr %s -id %s\n", cfg.Addr, st.ID)
		return nil
	}
	st, err = client.WaitDone(ctx, st.ID, cfg.Poll)
	if err != nil {
		return err
	}
	printStatus(st)
	if st.State == jobs.StateFailed {
		return fmt.Errorf("campaign %s failed: %s", st.ID, st.Error)
	}
	var result json.RawMessage
	if err := client.Result(ctx, st.ID, &result); err != nil {
		return err
	}
	fmt.Println(string(result))
	return nil
}

// runStatus implements `revealctl status`: list jobs or show one, with an
// optional result fetch.
func runStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:9090", "reveald base URL")
	id := fs.String("id", "", "campaign id (empty = list all jobs)")
	result := fs.Bool("result", false, "also fetch and print the result (requires -id)")
	jsonOut := fs.Bool("json", false, "print raw JSON")
	retry := fs.Int("retry", 3, "transient connection-error retries with exponential backoff (0 = fail fast)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	client := service.NewClient(*addr)
	client.RetryAttempts = *retry

	if *id == "" {
		list, err := client.List(ctx)
		if err != nil {
			return err
		}
		if *jsonOut {
			return printJSON(list)
		}
		queued, running, cached, err := client.Stats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%d jobs (%d queued, %d running), %d cached template sets\n",
			len(list), queued, running, cached)
		for _, st := range list {
			printStatus(st)
		}
		return nil
	}

	st, err := client.Campaign(ctx, *id)
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := printJSON(st); err != nil {
			return err
		}
	} else {
		printStatus(st)
	}
	if *result {
		var raw json.RawMessage
		if err := client.Result(ctx, *id, &raw); err != nil {
			return err
		}
		fmt.Println(string(raw))
	}
	return nil
}

// printStatus renders one job line.
func printStatus(st jobs.Status) {
	line := fmt.Sprintf("%s  %-8s %-8s attempt %d/%d", st.ID, st.Kind, st.State, st.Attempts, st.MaxAttempts)
	if st.TraceID != "" {
		line += "  trace " + st.TraceID
	}
	if st.QueueWaitSeconds > 0 || st.RunSeconds > 0 {
		line += fmt.Sprintf("  wait %.3fs run %.3fs", st.QueueWaitSeconds, st.RunSeconds)
	}
	if st.FinishedAt != nil {
		line += fmt.Sprintf("  finished %s", st.FinishedAt.Format(time.RFC3339))
	}
	if st.Error != "" {
		line += "  error: " + st.Error
	}
	fmt.Println(line)
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
