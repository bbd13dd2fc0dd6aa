package service

import (
	"context"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"reveal/internal/obs/history"
)

// submitAndWait pushes one small attack campaign for tenant through the
// service and waits for it to finish, which appends one history record.
func submitAndWait(t *testing.T, client *Client, tenant string) {
	t.Helper()
	spec := smallAttack(1)
	spec.Tenant = tenant
	st, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, client, st.ID, 30*time.Second)
}

// TestHistoryAPIEndToEnd drives campaigns through the service and reads
// them back through GET /api/v1/history and /api/v1/history/aggregate,
// covering tenant filters, cursor pagination, and the rollup payload.
func TestHistoryAPIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	store, err := history.Open(history.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	watchdog, err := history.NewWatchdog(history.DriftConfig{
		Window: 2, MinRuns: 2, Tolerance: 0.05,
		BaselinePath: filepath.Join(dir, "baselines.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, client := newTestService(t, Config{
		PoolWorkers: 1, History: store, Watchdog: watchdog,
	})

	for i := 0; i < 3; i++ {
		submitAndWait(t, client, "tenant-a")
	}
	submitAndWait(t, client, "tenant-b")

	ctx := context.Background()
	page, err := client.History(ctx, "attack", "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 4 || len(page.Records) != 4 {
		t.Fatalf("history total=%d records=%d, want 4/4", page.Total, len(page.Records))
	}
	for i := 1; i < len(page.Records); i++ {
		if page.Records[i].Seq <= page.Records[i-1].Seq {
			t.Fatalf("records out of order: %+v", page.Records)
		}
	}
	if page.Records[0].ElapsedSeconds <= 0 {
		t.Fatalf("record missing elapsed time: %+v", page.Records[0])
	}
	if page.Records[0].JobID == "" {
		t.Fatalf("record missing job id: %+v", page.Records[0])
	}

	// Tenant filter.
	pa, err := client.History(ctx, "", "tenant-a", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Total != 3 {
		t.Fatalf("tenant-a total = %d, want 3", pa.Total)
	}

	// Cursor pagination: two pages of two.
	p1, err := client.History(ctx, "attack", "", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Records) != 2 || p1.NextAfter == 0 {
		t.Fatalf("page 1 = %d records, next_after=%d", len(p1.Records), p1.NextAfter)
	}
	p2, err := client.History(ctx, "attack", "", p1.NextAfter, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Records) != 2 || p2.NextAfter != 0 {
		t.Fatalf("page 2 = %d records, next_after=%d", len(p2.Records), p2.NextAfter)
	}
	if p2.Records[0].Seq <= p1.Records[1].Seq {
		t.Fatal("pagination returned overlapping pages")
	}

	// Aggregate rollup.
	agg, err := client.HistoryAggregate(ctx, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Aggregates) != 1 || agg.Aggregates[0].Kind != KindAttack {
		t.Fatalf("aggregates = %+v", agg.Aggregates)
	}
	if agg.Aggregates[0].Runs != 4 {
		t.Fatalf("aggregate runs = %d, want 4", agg.Aggregates[0].Runs)
	}
	found := false
	for _, m := range agg.Aggregates[0].Metrics {
		if m.Metric == "elapsed_seconds" && m.Count == 4 && m.Mean > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("elapsed_seconds rollup missing: %+v", agg.Aggregates[0].Metrics)
	}
}

// TestHistoryAPIDisabledAndValidation: without a store the endpoints are
// 503, and malformed query parameters are 400.
func TestHistoryAPIDisabledAndValidation(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: 1})
	ctx := context.Background()
	if _, err := client.History(ctx, "", "", 0, 0); err == nil {
		t.Fatal("history without a store must fail")
	}
	if _, err := client.HistoryAggregate(ctx, "", "", 0); err == nil {
		t.Fatal("aggregate without a store must fail")
	}

	store, err := history.Open(history.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	_, client2 := newTestService(t, Config{PoolWorkers: 1, History: store})
	for _, path := range []string{
		"/api/v1/history?after=-1",
		"/api/v1/history?limit=zap",
		"/api/v1/history/aggregate?window=-3",
	} {
		resp, err := http.Get(client2.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s -> %d, want 400", path, resp.StatusCode)
		}
	}
	// An empty store answers with an empty page, not an error.
	page, err := client2.History(ctx, "", "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 0 || len(page.Records) != 0 || page.NextAfter != 0 {
		t.Fatalf("empty store page = %+v", page)
	}
}
