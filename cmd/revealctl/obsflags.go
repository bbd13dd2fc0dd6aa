package main

import (
	"flag"
	"os"

	"reveal/internal/obs"
)

// obsFlags are the observability options shared by every revealctl
// subcommand:
//
//	-run-dir DIR       archive the campaign: manifest.json, metrics.txt, run.log
//	-metrics-addr ADDR serve /metrics, /progress, /debug/pprof while running
//	-log-level LEVEL   debug|info|warn|error (default info)
//	-log-json          emit JSON log records instead of text
type obsFlags struct {
	runDir      string
	metricsAddr string
	logLevel    string
	logJSON     bool
}

func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.runDir, "run-dir", "", "write manifest.json, metrics.txt and run.log into this directory")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live /metrics, /progress and /debug/pprof on this address (e.g. :9090)")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.BoolVar(&o.logJSON, "log-json", false, "emit JSON log records")
	return o
}

// campaign is an active observability context: either a full archived run
// (-run-dir) or just a live recorder (-metrics-addr / logging only).
type campaign struct {
	run *obs.Run
	rec *obs.Recorder
	srv *obs.MetricsServer
}

// start activates observability for one subcommand invocation. Without
// -run-dir and -metrics-addr the campaign stays disabled (nil recorder, no
// overhead) unless -log-level debug asks for a console log stream.
func (o *obsFlags) start(command string, args []string, seed uint64, config any) (*campaign, error) {
	level := obs.ParseLevel(o.logLevel)
	if o.runDir != "" {
		run, err := obs.StartRun(o.runDir, obs.RunOptions{
			Tool:        "revealctl",
			Command:     command,
			Args:        args,
			Seed:        seed,
			Config:      config,
			LogLevel:    level,
			JSONLog:     o.logJSON,
			MetricsAddr: o.metricsAddr,
		})
		if err != nil {
			return nil, err
		}
		return &campaign{run: run, rec: run.Recorder}, nil
	}
	if o.metricsAddr == "" && o.logLevel == "info" && !o.logJSON {
		return &campaign{}, nil // observability disabled: zero overhead
	}
	rec := obs.New(obs.Options{
		Logger: obs.NewLogger(obs.LogOptions{Level: level, JSON: o.logJSON, Output: os.Stderr}),
	})
	obs.SetGlobal(rec)
	c := &campaign{rec: rec}
	if o.metricsAddr != "" {
		srv, err := obs.ServeMetricsCfg(rec, o.metricsAddr, obs.ServeConfig{})
		if err != nil {
			obs.SetGlobal(nil)
			return nil, err
		}
		c.srv = srv
		rec.Logger().Info("metrics server listening", "addr", srv.Addr())
	}
	return c, nil
}

// setResult records one headline number for the manifest (no-op without
// -run-dir).
func (c *campaign) setResult(key string, value any) {
	if c != nil && c.run != nil {
		c.run.SetResult(key, value)
	}
}

// finish seals the run artifacts and tears the live endpoints down.
func (c *campaign) finish() error {
	if c == nil {
		return nil
	}
	if c.srv != nil {
		c.srv.Close()
	}
	if c.run != nil {
		return c.run.Finish()
	}
	if c.rec != nil {
		obs.SetGlobal(nil)
	}
	return nil
}
