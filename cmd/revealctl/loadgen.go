package main

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"time"

	"reveal/internal/service"
)

// runLoadgen implements `revealctl loadgen`: drive a synthetic campaign
// load (N tenants, mixed kinds) against a running reveald and report the
// sustained jobs/sec and the submit→done latency quantiles.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:9090", "reveald base URL")
	tenants := fs.Int("tenants", 4, "synthetic tenant identities to spread jobs over")
	jobsN := fs.Int("jobs", 64, "total campaigns to submit")
	concurrency := fs.Int("concurrency", 8, "concurrent submitters")
	kinds := fs.String("kinds", "attack", "comma-separated campaign kind mix (attack, stream, diagnose)")
	seed := fs.Uint64("seed", 1, "campaign seed (shared, so attack kinds reuse one template)")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall run deadline")
	retry := fs.Int("retry", 3, "transient connection-error retries per request")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var kindList []string
	for _, k := range strings.Split(*kinds, ",") {
		if k = strings.TrimSpace(k); k != "" {
			kindList = append(kindList, k)
		}
	}
	client := service.NewClient(*addr)
	client.RetryAttempts = *retry

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if !*jsonOut {
		fmt.Printf("loadgen: %d jobs (%s) across %d tenants, %d submitters -> %s\n",
			*jobsN, strings.Join(kindList, ","), *tenants, *concurrency, *addr)
	}
	rep, err := service.RunLoadgen(ctx, client, service.LoadgenOptions{
		Tenants:     *tenants,
		Jobs:        *jobsN,
		Concurrency: *concurrency,
		Kinds:       kindList,
		Seed:        *seed,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		return printJSON(rep)
	}
	fmt.Printf("%d done, %d failed in %.2fs: %.1f jobs/sec (%d backpressure retries)\n",
		rep.Done, rep.Failed, rep.ElapsedSeconds, rep.JobsPerSecond, rep.Rejections)
	fmt.Printf("latency p50 %.3fs  p95 %.3fs  max %.3fs\n",
		rep.LatencyP50Seconds, rep.LatencyP95Seconds, rep.LatencyMaxSeconds)
	return nil
}
