// Command figures emits the data series behind Fig. 3 of the paper as CSV:
// (a) a full power-trace portion covering three coefficient samplings with
// their visible start peaks, and (b) the three per-branch sub-traces.
//
// Usage:
//
//	figures -fig 3a -o fig3a.csv
//	figures -fig 3b -o fig3b.csv
//	figures -fig timing -run-dir out/fig-timing
//
// With -run-dir the capture is archived like a revealctl campaign:
// manifest.json, metrics.txt, run.log and trace.json in DIR.
package main

import (
	"flag"
	"fmt"
	"os"

	"reveal/internal/experiments"
	"reveal/internal/obs"
	"reveal/internal/trace"
)

func main() {
	fig := flag.String("fig", "3a", "which figure to emit: 3a, 3b, or timing")
	out := flag.String("o", "", "output file (default stdout)")
	seed := flag.Uint64("seed", 77, "capture seed")
	runDir := flag.String("run-dir", "", "archive the capture: manifest.json, metrics.txt, run.log, trace.json")
	logLevel := flag.String("log-level", "", "enable structured logging and stage timing (debug, info, warn, error)")
	flag.Parse()

	var archived *obs.Run
	if *runDir != "" {
		var err error
		archived, err = obs.StartRun(*runDir, obs.RunOptions{
			Tool: "figures", Command: *fig, Args: os.Args[1:], Seed: *seed,
			LogLevel: obs.ParseLevel(*logLevel),
		})
		if err != nil {
			fail(nil, err)
		}
	} else if *logLevel != "" {
		obs.SetGlobal(obs.New(obs.Options{Logger: obs.NewLogger(obs.LogOptions{
			Level: obs.ParseLevel(*logLevel), Output: os.Stderr,
		})}))
	}

	r, err := experiments.RunFig3(*seed)
	if err != nil {
		fail(archived, err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(archived, err)
		}
		defer f.Close()
		w = f
	}

	switch *fig {
	case "3a":
		if err := trace.WriteCSV(w, r.Full); err != nil {
			fail(archived, err)
		}
		archived.SetResult("samples", len(r.Full))
	case "3b":
		err := trace.WriteMultiCSV(w,
			[]string{"noise_positive", "noise_negative", "noise_zero"},
			[]trace.Trace{r.Positive, r.Negative, r.Zero})
		if err != nil {
			fail(archived, err)
		}
		archived.SetResult("peak_count", r.PeakCount)
	case "timing":
		// Per-coefficient segment lengths (§III-C's time variance).
		tr, err := experiments.RunTimingVariance(256, *seed)
		if err != nil {
			fail(archived, err)
		}
		series := make(trace.Trace, len(tr.Lengths))
		for i, l := range tr.Lengths {
			series[i] = float64(l)
		}
		if err := trace.WriteCSV(w, series); err != nil {
			fail(archived, err)
		}
		archived.SetResult("segments", len(tr.Lengths))
		archived.SetResult("distinct_lengths", tr.DistinctN)
	default:
		fail(archived, fmt.Errorf("unknown figure %q (use 3a, 3b, or timing)", *fig))
	}
	if err := archived.Finish(); err != nil {
		fail(nil, err)
	}
}

// fail seals the run archive (os.Exit skips defers) and exits non-zero.
func fail(archived *obs.Run, err error) {
	_ = archived.Finish()
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
