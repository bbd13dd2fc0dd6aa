// Command revealctl drives the full RevEAL reproduction: profiling the
// simulated device, running the single-trace template attack, printing the
// paper's tables, and demonstrating end-to-end plaintext recovery.
//
// Usage:
//
//	revealctl table1 [-profile N] [-encryptions N] [-seed S] [-json]
//	revealctl attack [-seed S] [-messages N] [-stream [-target-bikz B] [-chunk N]]
//	revealctl profile [-o FILE] [-seed S]
//	revealctl diagnose [-seed S] [-traces N] [-curves] [-json]
//	revealctl compare [-tol T] [-metric-tol name=T] [-gate-perf] OLD NEW
//	revealctl submit [-addr URL] [-spec FILE | -kind K -seed S ...] [-tenant T] [-wait] [-retry N]
//	revealctl status [-addr URL] [-id ID] [-result] [-json] [-retry N]
//	revealctl loadgen [-addr URL] [-tenants N] [-jobs N] [-kinds K,K] [-json]
//	revealctl top [-addr URL] [-interval DUR] [-n N]
//	revealctl report [-addr URL] [-kind K] [-tenant T] [-window N] [-format F] [-o FILE]
//	revealctl selftest [-seed S] [-workers N] [-json] [-q]
//	revealctl experiments
//
// table1, attack, profile and diagnose accept the observability flags:
//
//	-run-dir DIR       archive the campaign as a reproducible artifact:
//	                   DIR/manifest.json (config, seed, git describe,
//	                   per-stage durations and throughput, results),
//	                   DIR/metrics.txt (Prometheus text) and DIR/run.log
//	-metrics-addr ADDR serve live /metrics, /progress and /debug/pprof
//	-log-level LEVEL   debug|info|warn|error structured logging to stderr
//	-log-json          JSON log records
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"reveal/internal/core"
	"reveal/internal/experiments"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "table1":
		err = runTable1(os.Args[2:])
	case "attack":
		err = runAttack(os.Args[2:])
	case "profile":
		err = runProfile(os.Args[2:])
	case "diagnose":
		err = runDiagnose(os.Args[2:])
	case "compare":
		err = runCompare(os.Args[2:])
	case "submit":
		err = runSubmit(os.Args[2:])
	case "status":
		err = runStatus(os.Args[2:])
	case "loadgen":
		err = runLoadgen(os.Args[2:])
	case "top":
		err = runTop(os.Args[2:])
	case "report":
		err = runReport(os.Args[2:])
	case "selftest":
		err = runSelftest(os.Args[2:])
	case "experiments":
		err = runExperiments(os.Args[2:], os.Stdout)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "revealctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: revealctl <command> [flags]

commands:
  table1   reproduce Table I (template-attack confusion matrix)
  attack   end-to-end single-trace attack with full message recovery
           (-stream: chunked streaming engine with batch digest cross-check)
  profile  run the profiling campaign and save the trained classifier
  diagnose leakage assessment: SNR, t-tests, POI overlap, template health
  compare  diff two manifest.json/BENCH_*.json files; exit 1 on regression
  submit   post a campaign spec to a running reveald daemon
  status   list a reveald daemon's jobs or show one job's status/result
  loadgen  drive a synthetic campaign load and report jobs/sec + latency quantiles
  top      live terminal dashboard over a running reveald (queue, workers, quality, events)
  report   quality-trajectory report (markdown/CSV) from a reveald history store
  selftest replay-determinism gate: serial vs parallel attack, digest printed
  experiments
           measure every claim of EXPERIMENTS.md, print its tables, and
           exit 1 when a shape predicate fails

observability (table1, attack, profile, diagnose):
  -run-dir DIR        write manifest.json, metrics.txt, run.log
  -metrics-addr ADDR  live /metrics, /progress, /debug/pprof
  -log-level LEVEL    debug|info|warn|error
  -log-json           JSON log records`)
}

func runTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	profile := fs.Int("profile", 40, "profiling traces per coefficient value")
	encryptions := fs.Int("encryptions", 3, "number of single-trace attacks (each covers 2048 coefficients)")
	seed := fs.Uint64("seed", 1, "experiment seed")
	jsonOut := fs.Bool("json", false, "print the result as JSON instead of the table layout")
	ofl := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Seed: *seed, ProfileTracesPerValue: *profile, AttackEncryptions: *encryptions}
	camp, err := ofl.start("table1", args, *seed, cfg)
	if err != nil {
		return err
	}
	defer func() {
		if err := camp.finish(); err != nil {
			fmt.Fprintln(os.Stderr, "revealctl: finishing run:", err)
		}
	}()
	if !*jsonOut {
		fmt.Printf("profiling device (%d traces per value, 29 values)...\n", *profile)
	}
	s, err := experiments.NewSession(cfg)
	if err != nil {
		return err
	}
	if !*jsonOut {
		fmt.Printf("attacking %d encryptions...\n", *encryptions)
	}
	res, err := s.RunTable1()
	if err != nil {
		return err
	}
	report := res.Report()
	camp.setResult("table1", report)
	if *jsonOut {
		return experiments.WriteJSON(os.Stdout, report)
	}
	fmt.Println(experiments.FormatTable1(res, -7, 7))
	return nil
}

func runAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "experiment seed")
	messages := fs.Int("messages", 2, "number of messages to encrypt and recover")
	profilePath := fs.String("profile", "", "load a classifier saved by 'revealctl profile' instead of re-profiling")
	stream := fs.Bool("stream", false, "classify each e2 trace through the streaming engine (chunked ingest) and cross-check its digest against the batch attack")
	targetBikz := fs.Float64("target-bikz", 0, "with -stream: stop ingesting once the banked hints push the DBDD estimate to this block size (0 = consume the full trace)")
	chunk := fs.Int("chunk", 4096, "with -stream: ingest chunk size in samples")
	ofl := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.LowNoise = true
	camp, err := ofl.start("attack", args, *seed, cfg)
	if err != nil {
		return err
	}
	defer func() {
		if err := camp.finish(); err != nil {
			fmt.Fprintln(os.Stderr, "revealctl: finishing run:", err)
		}
	}()
	fmt.Println("profiling low-noise device for full recovery...")
	s, err := experiments.NewSession(cfg)
	if err != nil {
		return err
	}
	if *profilePath != "" {
		f, err := os.Open(*profilePath)
		if err != nil {
			return err
		}
		cls, err := core.ReadClassifier(f)
		f.Close()
		if err != nil {
			return err
		}
		s.Classifier = cls
		fmt.Printf("loaded classifier from %s\n", *profilePath)
	}
	if *stream {
		return runAttackStream(camp, s, *messages, *targetBikz, *chunk)
	}
	recovered := 0
	var sumVAcc, sumSAcc float64
	var lastOutcome *core.AttackOutcome
	for msg := 0; msg < *messages; msg++ {
		pt := s.Params.NewPlaintext()
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64((i*31 + msg*7) % int(s.Params.T))
		}
		cap, err := core.CaptureEncryption(s.Device, s.Params, s.Encryptor, pt)
		if err != nil {
			return err
		}
		out, err := s.Classifier.Attack(cap, s.Params.N)
		if err != nil {
			return err
		}
		core.EmitOutcomeEvents(context.Background(), out, cap)
		lastOutcome = out
		vAcc, sAcc, err := out.E2.Accuracy(cap.Truth.E2)
		if err != nil {
			return err
		}
		sumVAcc += vAcc
		sumSAcc += sAcc
		fmt.Printf("message %d: single-trace classification: value %.2f%%, sign %.2f%%\n",
			msg, 100*vAcc, 100*sAcc)
		got, _, trials, err := core.RepairAndRecover(s.Params, s.PublicKey, cap.Ciphertext, out.E2, 16, 100000)
		if err != nil {
			fmt.Printf("message %d: recovery FAILED: %v\n", msg, err)
			continue
		}
		ok := true
		for i := range pt.Coeffs {
			if got.Coeffs[i] != pt.Coeffs[i] {
				ok = false
				break
			}
		}
		if ok {
			recovered++
		}
		fmt.Printf("message %d: plaintext recovered from ONE power trace: %v (%d verification trials)\n",
			msg, ok, trials)
	}
	if *messages > 0 {
		camp.setResult("messages", *messages)
		camp.setResult("messages_recovered", recovered)
		camp.setResult("mean_value_accuracy", sumVAcc/float64(*messages))
		camp.setResult("mean_sign_accuracy", sumSAcc/float64(*messages))
	}
	// The security-loss summary (Table III for this attack's hints) is
	// computed only when the run is being archived: the DBDD estimate is
	// not part of the recovery demo itself.
	if ofl.runDir != "" && lastOutcome != nil {
		loss, err := core.EstimateFullHints(s.Params, lastOutcome.E2)
		if err != nil {
			return fmt.Errorf("estimating hinted security: %w", err)
		}
		camp.setResult("bikz_baseline", loss.BaselineBikz)
		camp.setResult("bikz_with_hints", loss.HintedBikz)
		camp.setResult("bits_baseline", loss.BaselineBits)
		camp.setResult("bits_with_hints", loss.HintedBits)
		fmt.Printf("security with hints: %.2f bikz (%.1f bits), baseline %.2f bikz\n",
			loss.HintedBikz, loss.HintedBits, loss.BaselineBikz)
	}
	return nil
}

func runProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	out := fs.String("o", "profile.rvcl", "output file for the trained classifier")
	seed := fs.Uint64("seed", 1, "device seed")
	lowNoise := fs.Bool("lownoise", true, "use the low-noise measurement setup")
	traces := fs.Int("traces", 0, "profiling traces per coefficient value (0 = preset default)")
	ofl := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var dev *core.Device
	var opts core.ProfileOptions
	if *lowNoise {
		dev = core.NewLowNoiseDevice(*seed)
		opts = core.HighAccuracyProfileOptions()
	} else {
		dev = core.NewDevice(*seed)
		opts = core.DefaultProfileOptions()
	}
	if *traces > 0 {
		opts.TracesPerValue = *traces
	}
	camp, err := ofl.start("profile", args, *seed, opts)
	if err != nil {
		return err
	}
	defer func() {
		if err := camp.finish(); err != nil {
			fmt.Fprintln(os.Stderr, "revealctl: finishing run:", err)
		}
	}()
	fmt.Printf("profiling (%d traces per value)...\n", opts.TracesPerValue)
	cls, err := core.Profile(dev, opts)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := core.WriteClassifier(f, cls); err != nil {
		return err
	}
	camp.setResult("classifier_path", *out)
	camp.setResult("subtrace_length", cls.Length)
	fmt.Printf("classifier written to %s (sub-trace length %d)\n", *out, cls.Length)
	return nil
}
