package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"reveal/internal/core"
	"reveal/internal/experiments"
)

// diagnoseConfig is the fully parsed input of one diagnose invocation:
// the device preset choice plus the resolved profiling options.
type diagnoseConfig struct {
	Seed     uint64
	LowNoise bool
	JSONOut  bool
	Opts     core.DiagnosticsOptions
}

// newDevice builds the device the parsed configuration selects.
func (c *diagnoseConfig) newDevice() *core.Device {
	if c.LowNoise {
		return core.NewLowNoiseDevice(c.Seed)
	}
	return core.NewDevice(c.Seed)
}

// parseDiagnoseArgs resolves the diagnose flags into a diagnoseConfig:
// -lownoise selects the low-noise preset, -traces and -maxabs override the
// preset's campaign size. The returned obsFlags carry the shared
// observability options. Never exits the process, so the plumbing is
// testable end to end.
func parseDiagnoseArgs(args []string, stderr io.Writer) (*diagnoseConfig, *obsFlags, error) {
	fs := flag.NewFlagSet("diagnose", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &diagnoseConfig{}
	fs.Uint64Var(&cfg.Seed, "seed", 1, "device seed")
	fs.BoolVar(&cfg.LowNoise, "lownoise", false, "assess the low-noise measurement setup")
	traces := fs.Int("traces", 0, "profiling traces per coefficient value (0 = preset default)")
	maxAbs := fs.Int("maxabs", 0, "largest |coefficient| to profile (0 = preset default)")
	fs.BoolVar(&cfg.Opts.KeepCurves, "curves", false, "embed the full SNR and t-test curves in the report")
	fs.BoolVar(&cfg.JSONOut, "json", false, "print the report as JSON instead of text")
	ofl := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if cfg.LowNoise {
		cfg.Opts.Profile = core.HighAccuracyProfileOptions()
	} else {
		cfg.Opts.Profile = core.DefaultProfileOptions()
	}
	if *traces > 0 {
		cfg.Opts.Profile.TracesPerValue = *traces
	}
	if *maxAbs > 0 {
		cfg.Opts.Profile.MaxAbsValue = *maxAbs
	}
	return cfg, ofl, nil
}

// runDiagnose implements `revealctl diagnose`: collect a profiling campaign
// and assess its leakage (SNR curves, adjacent-pair Welch t-tests, SOSD/SNR
// POI overlap, template health). With -run-dir the full report is archived
// as diagnostics.json next to the manifest.
func runDiagnose(args []string) error {
	cfg, ofl, err := parseDiagnoseArgs(args, os.Stderr)
	if err != nil {
		return err
	}
	dev := cfg.newDevice()
	camp, err := ofl.start("diagnose", args, cfg.Seed, cfg.Opts)
	if err != nil {
		return err
	}
	defer func() {
		if err := camp.finish(); err != nil {
			fmt.Fprintln(os.Stderr, "revealctl: finishing run:", err)
		}
	}()
	if !cfg.JSONOut {
		fmt.Printf("collecting profiling campaign (%d traces per value, %d values)...\n",
			cfg.Opts.Profile.TracesPerValue, 2*cfg.Opts.Profile.MaxAbsValue+1)
	}
	report, err := core.Diagnose(context.Background(), dev, cfg.Opts)
	if err != nil {
		return err
	}
	camp.setResult("leaky_pairs", report.LeakyPairs)
	camp.setResult("total_pairs", report.TotalPairs)
	camp.setResult("warnings", len(report.Warnings))
	camp.setResult("healthy", report.Healthy)
	if camp.run != nil {
		f, err := os.Create(filepath.Join(camp.run.Dir, "diagnostics.json"))
		if err != nil {
			return err
		}
		err = experiments.WriteJSON(f, report)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing diagnostics.json: %w", err)
		}
	}
	if cfg.JSONOut {
		return experiments.WriteJSON(os.Stdout, report)
	}
	fmt.Print(core.FormatDiagnostics(report))
	return nil
}
