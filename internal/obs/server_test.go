package obs

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeMetricsWithMountsAPI checks an application handler mounted
// under /api/ through ServeConfig.API coexists with the built-in endpoints
// — in particular that /healthz keeps answering (the regression the
// separate mount exists to prevent: an API handler registered at "/" would
// shadow every probe).
func TestServeMetricsWithMountsAPI(t *testing.T) {
	rec := New(Options{})
	api := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		_, _ = io.WriteString(w, r.URL.Path)
	})
	srv, err := ServeMetricsCfg(rec, "127.0.0.1:0", ServeConfig{API: api})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	resp, err := http.Get(base + "/api/v1/anything")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot || string(body) != "/api/v1/anything" {
		t.Fatalf("API mount broken: %d %q", resp.StatusCode, body)
	}
	for _, path := range []string{"/healthz", "/metrics", "/progress"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200 (clobbered by API mount?)", path, resp.StatusCode)
		}
	}
}

// TestShutdownWaitsForInflightRequest holds an /events long-poll open
// (?wait=) and then shuts the server down: the drain must let the
// in-flight response complete.
func TestShutdownWaitsForInflightRequest(t *testing.T) {
	rec := New(Options{EventCapacity: 16})
	srv, err := ServeMetricsCfg(rec, "127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	type result struct {
		body string
		err  error
	}
	started := make(chan struct{})
	got := make(chan result, 1)
	go func() {
		close(started)
		resp, err := http.Get(base + "/events?wait=300ms")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- result{body: string(body), err: err}
	}()
	<-started
	// Give the request time to reach the handler's wait.
	time.Sleep(100 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", r.err)
	}
	if !strings.Contains(r.body, "next_seq") {
		t.Fatalf("in-flight response truncated: %q", r.body)
	}
	// After shutdown the listener must be closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

// TestProgressWaitValidation: /progress has no wait parameter (it answers
// at once, whatever the query), and the /events long-poll, the one that
// remains, rejects a malformed wait.
func TestProgressWaitValidation(t *testing.T) {
	rec := New(Options{EventCapacity: 16})
	srv, err := ServeMetricsCfg(rec, "127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	start := time.Now()
	resp, err := http.Get(base + "/progress?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || time.Since(start) > 5*time.Second {
		t.Fatalf("/progress?wait=10s = %d after %v, want 200 at once", resp.StatusCode, time.Since(start))
	}
	resp, err = http.Get(base + "/events?wait=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus wait = %d, want 400", resp.StatusCode)
	}
}
