package service

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"reveal/internal/jobs"
)

// LoadgenOptions shapes one synthetic-load run against a reveald API:
// Jobs campaigns spread over Tenants synthetic tenants and the Kinds mix,
// submitted by Concurrency goroutines that each wait for their campaign to
// finish before submitting the next.
type LoadgenOptions struct {
	// Tenants is how many synthetic tenant identities the jobs cycle
	// through ("loadgen-0".."loadgen-N-1", minimum 1).
	Tenants int
	// Jobs is the total number of campaigns to submit (minimum 1).
	Jobs int
	// Concurrency is the number of concurrent submitters (default 8) —
	// the offered parallelism, independent of the service's worker count.
	Concurrency int
	// Kinds is the campaign mix, cycled per job (default: attack only).
	Kinds []string
	// Seed is every job's campaign seed, so the attack campaigns of a run
	// share one template key (the realistic steady state: templates train
	// once and every job hits the cache or registry).
	Seed uint64
	// Poll is the completion poll interval (default 25 ms).
	Poll time.Duration
}

// LoadgenReport is the outcome of one load run: throughput, the
// end-to-end latency distribution (submit to terminal state), and the
// failure/backpressure tallies.
type LoadgenReport struct {
	Jobs        int      `json:"jobs"`
	Done        int      `json:"done"`
	Failed      int      `json:"failed"`
	Tenants     int      `json:"tenants"`
	Concurrency int      `json:"concurrency"`
	Kinds       []string `json:"kinds"`
	// Rejections counts HTTP 429 backpressure responses that were retried
	// (each job is eventually accepted; rejections measure queue pressure).
	Rejections int `json:"rejections"`
	// ElapsedSeconds is the wall clock of the whole run.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// JobsPerSecond is Done+Failed over ElapsedSeconds — the sustained
	// campaign throughput.
	JobsPerSecond float64 `json:"jobs_per_second"`
	// Latency quantiles of submit→terminal, in seconds.
	LatencyP50Seconds float64 `json:"latency_p50_seconds"`
	LatencyP95Seconds float64 `json:"latency_p95_seconds"`
	LatencyMaxSeconds float64 `json:"latency_max_seconds"`
}

// RunLoadgen drives a synthetic campaign load against the daemon behind
// client and reports throughput and latency. Jobs that fail server-side
// count toward throughput (the service processed them); only transport
// errors abort the run.
func RunLoadgen(ctx context.Context, client *Client, opts LoadgenOptions) (*LoadgenReport, error) {
	if opts.Tenants < 1 {
		opts.Tenants = 1
	}
	if opts.Jobs < 1 {
		opts.Jobs = 1
	}
	if opts.Concurrency < 1 {
		opts.Concurrency = 8
	}
	if len(opts.Kinds) == 0 {
		opts.Kinds = []string{KindAttack}
	}
	if opts.Poll <= 0 {
		opts.Poll = 25 * time.Millisecond
	}

	var (
		mu         sync.Mutex
		latencies  []float64
		done       int
		failed     int
		rejections int
		firstErr   error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	idx := make(chan int, opts.Jobs)
	for i := 0; i < opts.Jobs; i++ {
		idx <- i
	}
	close(idx)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil || func() bool { mu.Lock(); defer mu.Unlock(); return firstErr != nil }() {
					return
				}
				spec := &CampaignSpec{
					Kind:   opts.Kinds[i%len(opts.Kinds)],
					Seed:   opts.Seed,
					Tenant: fmt.Sprintf("loadgen-%d", i%opts.Tenants),
				}
				submitted := time.Now()
				var st jobs.Status
				for {
					var err error
					st, err = client.Submit(ctx, spec)
					if err == nil {
						break
					}
					if StatusCode(err) == http.StatusTooManyRequests {
						// Backpressure: honor the Retry-After hint's spirit
						// without hammering — it measures pressure, not failure.
						mu.Lock()
						rejections++
						mu.Unlock()
						select {
						case <-ctx.Done():
							return
						case <-time.After(100 * time.Millisecond):
						}
						continue
					}
					fail(fmt.Errorf("loadgen: submitting job %d: %w", i, err))
					return
				}
				st, err := client.WaitDone(ctx, st.ID, opts.Poll)
				if err != nil {
					fail(fmt.Errorf("loadgen: waiting for %s: %w", st.ID, err))
					return
				}
				mu.Lock()
				latencies = append(latencies, time.Since(submitted).Seconds())
				if st.State == jobs.StateDone {
					done++
				} else {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}

	elapsed := time.Since(start).Seconds()
	rep := &LoadgenReport{
		Jobs:           opts.Jobs,
		Done:           done,
		Failed:         failed,
		Tenants:        opts.Tenants,
		Concurrency:    opts.Concurrency,
		Kinds:          opts.Kinds,
		Rejections:     rejections,
		ElapsedSeconds: elapsed,
	}
	if elapsed > 0 {
		rep.JobsPerSecond = float64(done+failed) / elapsed
	}
	sort.Float64s(latencies)
	rep.LatencyP50Seconds = quantile(latencies, 0.50)
	rep.LatencyP95Seconds = quantile(latencies, 0.95)
	if n := len(latencies); n > 0 {
		rep.LatencyMaxSeconds = latencies[n-1]
	}
	return rep, nil
}

// quantile returns the q-th quantile of sorted (nearest-rank on the upper
// side, so p95 of 20 samples is the 19th).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
