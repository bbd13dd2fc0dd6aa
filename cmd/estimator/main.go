// Command estimator is a standalone "LWE with side information" (DBDD)
// security estimator: it estimates an LWE instance without running the
// device, with hints simulated at the quality the paper's measurements
// achieved. The paper's Tables III and IV, and the sweep over SEAL's
// parameter sets, are claims of `revealctl experiments`.
//
// Usage:
//
//	estimator -n 1024 -q 132120577 -sigma 3.2 -hints none|sign|full
package main

import (
	"flag"
	"fmt"
	"os"

	"reveal/internal/dbdd"
	"reveal/internal/experiments"
	"reveal/internal/obs"
)

func main() {
	n := flag.Int("n", 1024, "LWE secret dimension (= #samples)")
	q := flag.Float64("q", 132120577, "modulus")
	sigma := flag.Float64("sigma", 3.2, "error standard deviation")
	hints := flag.String("hints", "none", "hint model: none, sign, full")
	seed := flag.Uint64("seed", 1, "seed for the simulated error vector")
	runDir := flag.String("run-dir", "", "write manifest.json, metrics.txt and run.log into this directory")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	if *runDir != "" {
		run, err := obs.StartRun(*runDir, obs.RunOptions{
			Tool: "estimator", Args: os.Args[1:], Seed: *seed,
			Config: map[string]any{
				"n": *n, "q": *q, "sigma": *sigma, "hints": *hints,
			},
			LogLevel: obs.ParseLevel(*logLevel),
		})
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := run.Finish(); err != nil {
				fmt.Fprintln(os.Stderr, "estimator: finishing run:", err)
			}
		}()
	}

	in, err := experiments.IdealHints(*n, *q, *sigma, *hints, *seed)
	if err != nil {
		fail(err)
	}
	bikz, err := in.EstimateBikz()
	if err != nil {
		fail(err)
	}
	fmt.Printf("n=%d q=%.0f sigma=%.2f hints=%s\n", *n, *q, *sigma, *hints)
	fmt.Printf("bikz: %.2f  (≈ %.1f bits)\n", bikz, dbdd.BikzToBits(bikz))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "estimator:", err)
	os.Exit(1)
}
