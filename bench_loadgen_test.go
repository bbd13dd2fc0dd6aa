// BenchmarkLoadgen measures sustained campaign throughput through the
// service API under synthetic multi-tenant load, in two topologies built
// in-process: a single-process daemon (a coordinator whose in-process
// fabric worker leases from its own queue through direct calls) and a
// fabric of one pure coordinator with two worker nodes leasing over HTTP.
// Both run the same executor; the fabric run is the timed headline and the
// single-process run is recorded alongside it as the scale-out reference.
// Sleep campaigns keep the measurement on the queue/fabric machinery
// rather than the classifier.
package reveal

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"reveal/internal/core"
	"reveal/internal/jobs"
	"reveal/internal/service"
)

// loadTopology is one service deployment under test plus its teardown.
type loadTopology struct {
	client *service.Client
	stop   func()
}

// startTopology boots a coordinator with poolWorkers in-process worker
// slots (negative = pure coordinator) and fabricWorkers × slotsPerWorker
// fabric nodes leasing from it over a real HTTP listener.
func startTopology(b *testing.B, poolWorkers, fabricWorkers, slotsPerWorker int) *loadTopology {
	b.Helper()
	svc := service.New(service.Config{
		PoolWorkers: poolWorkers,
		QueueOptions: jobs.Options{
			MaxAttempts: 3,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  40 * time.Millisecond,
		},
	})
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	client := service.NewClient(ts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, fabricWorkers)
	for i := 0; i < fabricWorkers; i++ {
		w := &service.FabricWorker{
			ID:       "bench-worker-" + string(rune('a'+i)),
			Client:   service.NewClient(ts.URL),
			Runner:   &service.Runner{Cache: core.NewTemplateCache(2), Workers: 1},
			Slots:    slotsPerWorker,
			LeaseTTL: 500 * time.Millisecond,
			PollWait: 100 * time.Millisecond,
		}
		go func() {
			_ = w.Run(ctx)
			done <- struct{}{}
		}()
	}
	return &loadTopology{
		client: client,
		stop: func() {
			cancel()
			for i := 0; i < fabricWorkers; i++ {
				<-done
			}
			ts.Close()
			sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer scancel()
			_ = svc.Shutdown(sctx)
		},
	}
}

// loadgenRound drives one fixed synthetic load through the topology.
func loadgenRound(b *testing.B, top *loadTopology) *service.LoadgenReport {
	b.Helper()
	rep, err := service.RunLoadgen(context.Background(), top.client, service.LoadgenOptions{
		Tenants:     4,
		Jobs:        48,
		Concurrency: 8,
		SleepMS:     20,
		Poll:        5 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Failed > 0 {
		b.Fatalf("loadgen: %d jobs failed", rep.Failed)
	}
	return rep
}

func BenchmarkLoadgen(b *testing.B) {
	br := snapshotBench(b)

	// Untimed reference: the same load through one process with two
	// execution slots and no fabric.
	single := startTopology(b, 2, 0, 0)
	singleRep := loadgenRound(b, single)
	single.stop()

	// Timed: a pure coordinator with two fabric workers × two slots each —
	// the smallest deployment where scale-out should beat scale-up.
	fabric := startTopology(b, -1, 2, 2)
	defer fabric.stop()
	b.ResetTimer()
	var rep *service.LoadgenReport
	for i := 0; i < b.N; i++ {
		rep = loadgenRound(b, fabric)
	}
	b.StopTimer()

	for name, v := range rep.BenchMetrics() {
		br.Metric(v, name)
	}
	br.Metric(singleRep.JobsPerSecond, "single_process_jobs_per_sec")
	// The scale-out acceptance bar: with twice the execution slots the
	// fabric must sustain more jobs/sec than the single process, HTTP
	// lease overhead included. The margin is far under the 2x slot ratio
	// to stay robust on loaded CI runners.
	if rep.JobsPerSecond <= singleRep.JobsPerSecond {
		b.Errorf("fabric throughput %.1f jobs/sec did not beat single-process %.1f",
			rep.JobsPerSecond, singleRep.JobsPerSecond)
	}
}
