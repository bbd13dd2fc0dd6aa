package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reveal/internal/testkit"
)

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("GET %s: parsing %q: %v", url, data, err)
		}
	}
	return resp.StatusCode
}

// TestReadyzReflectsDrain checks the readiness probe the daemon flips on
// SIGTERM: ready while serving, 503 with the reason once draining, while
// /healthz (liveness) keeps answering 200 throughout.
func TestReadyzReflectsDrain(t *testing.T) {
	rec := New(Options{})
	var draining atomic.Bool
	srv, err := ServeMetricsCfg(rec, "127.0.0.1:0", ServeConfig{
		Ready: func(context.Context) error {
			if draining.Load() {
				return errors.New("draining")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	var ready map[string]any
	if code := getJSON(t, base+"/readyz", &ready); code != http.StatusOK {
		t.Fatalf("/readyz while serving = %d, want 200", code)
	}
	if ready["status"] != "ready" {
		t.Fatalf("/readyz payload = %v", ready)
	}

	draining.Store(true)
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "draining") {
		t.Fatalf("503 body does not carry the reason: %s", body)
	}
	if code := getJSON(t, base+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200 (liveness is not readiness)", code)
	}
}

// TestEventsEndpoint drives the /events journal endpoint: batch reads,
// cursor resumption, max capping, parameter validation, and the long-poll
// woken by a new event.
func TestEventsEndpoint(t *testing.T) {
	rec := New(Options{EventCapacity: 64})
	srv, err := ServeMetricsCfg(rec, "127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	for i := 0; i < 3; i++ {
		rec.Emit(ServiceEvent{Type: EventJobSubmitted, JobID: fmt.Sprintf("job-%d", i)})
	}
	var resp EventsResponse
	if code := getJSON(t, base+"/events", &resp); code != http.StatusOK {
		t.Fatalf("/events = %d", code)
	}
	if len(resp.Events) != 3 || resp.NextSeq != 3 {
		t.Fatalf("/events = %d events next %d, want 3, 3", len(resp.Events), resp.NextSeq)
	}
	if code := getJSON(t, base+"/events?since=3", &resp); code != http.StatusOK || len(resp.Events) != 0 || resp.NextSeq != 3 {
		t.Fatalf("caught-up poll = %d, %d events, next %d", code, len(resp.Events), resp.NextSeq)
	}
	if code := getJSON(t, base+"/events?since=1&max=1", &resp); code != http.StatusOK || len(resp.Events) != 1 || resp.Events[0].Seq != 2 || resp.NextSeq != 2 {
		t.Fatalf("capped poll = %d, %+v next %d", code, resp.Events, resp.NextSeq)
	}
	for _, bad := range []string{"?since=bogus", "?since=-1", "?max=0", "?max=x", "?wait=bogus", "?wait=-1s"} {
		if code := getJSON(t, base+"/events"+bad, nil); code != http.StatusBadRequest {
			t.Errorf("/events%s = %d, want 400", bad, code)
		}
	}

	// Long-poll: a waiter on the tail is answered by the next event.
	got := make(chan EventsResponse, 1)
	go func() {
		var r EventsResponse
		getJSON(t, base+"/events?since=3&wait=10s", &r)
		got <- r
	}()
	time.Sleep(50 * time.Millisecond)
	rec.Emit(ServiceEvent{Type: EventCacheFill, Detail: "trained"})
	select {
	case r := <-got:
		if len(r.Events) != 1 || r.Events[0].Type != EventCacheFill || r.NextSeq != 4 {
			t.Fatalf("long-poll woke with %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke on a new event")
	}

	// A caught-up long-poll that times out must not rewind the cursor.
	if code := getJSON(t, base+"/events?since=4&wait=50ms", &resp); code != http.StatusOK || resp.NextSeq != 4 {
		t.Fatalf("timed-out long-poll = %d next %d, want 200 next 4", code, resp.NextSeq)
	}
}

// TestEventsEndpointDisabled: without EventCapacity the journal does not
// exist and the endpoint says so instead of returning empty batches.
func TestEventsEndpointDisabled(t *testing.T) {
	rec := New(Options{})
	srv, err := ServeMetricsCfg(rec, "127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code := getJSON(t, "http://"+srv.Addr()+"/events", nil); code != http.StatusNotFound {
		t.Fatalf("/events without a journal = %d, want 404", code)
	}
}

// TestInstrumentHandlerTraceIdentity pins the middleware's trace contract:
// a valid supplied X-Reveal-Trace-Id is adopted and echoed, a missing or
// malformed one is replaced by a freshly minted valid ID, and the handler
// sees the same identity on its request context.
func TestInstrumentHandlerTraceIdentity(t *testing.T) {
	rec := New(Options{})
	var seen string
	h := InstrumentHandler(rec, func(*http.Request) string { return "/fixed" },
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			seen = TraceIDFrom(r.Context())
			w.WriteHeader(http.StatusNoContent)
		}))
	do := func(supplied string) (echoed string) {
		req := httptest.NewRequest(http.MethodGet, "/fixed", nil)
		if supplied != "" {
			req.Header.Set(TraceHeader, supplied)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Header().Get(TraceHeader)
	}

	if got := do("client-supplied-1"); got != "client-supplied-1" || seen != "client-supplied-1" {
		t.Fatalf("valid supplied ID not adopted: echoed %q, handler saw %q", got, seen)
	}
	if got := do(""); !ValidTraceID(got) || seen != got {
		t.Fatalf("minted ID malformed or not propagated: echoed %q, handler saw %q", got, seen)
	}
	if got := do("bad header!"); got == "bad header!" || !ValidTraceID(got) || seen != got {
		t.Fatalf("malformed supplied ID not replaced: echoed %q, handler saw %q", got, seen)
	}

	snap := rec.Registry().Snapshot()
	if got := snap.Counters[LabelKey(MetricHTTPRequests, "route", "/fixed")]; got != 3 {
		t.Errorf("per-route request counter = %d, want 3", got)
	}
	if got := snap.Counters[LabelKey(MetricHTTPResponses, "code", "2xx")]; got != 3 {
		t.Errorf("2xx response counter = %d, want 3", got)
	}
	if got := snap.Histograms[LabelKey(MetricHTTPLatency, "route", "/fixed")].Count; got != 3 {
		t.Errorf("per-route latency observations = %d, want 3", got)
	}
	if got := snap.Gauges[MetricHTTPInflight]; got != 0 {
		t.Errorf("inflight gauge did not return to 0: %g", got)
	}
}

// TestConcurrentMetricsScrape scrapes /metrics while counters, labeled
// vectors, histograms, and the event journal mutate underneath it. Every
// scrape must remain a valid Prometheus exposition (the race detector
// covers the synchronization; the parser covers torn output).
func TestConcurrentMetricsScrape(t *testing.T) {
	rec := New(Options{EventCapacity: 64})
	srv, err := ServeMetricsCfg(rec, "127.0.0.1:0", ServeConfig{Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	reg := rec.Registry()
	vec := reg.CounterVec("reveal_chaos_total", "w", 4)
	hist := reg.HistogramVec("reveal_chaos_seconds", "w", 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				label := fmt.Sprintf("w%d", i%6)
				vec.With(label).Inc()
				hist.With(label).Observe(float64(i%10) / 10)
				reg.Gauge("reveal_chaos_depth").Set(float64(i))
				rec.Emit(ServiceEvent{Type: EventJobLeased, JobID: fmt.Sprintf("g%d-%d", g, i)})
			}
		}(g)
	}

	var scrapeErr error
	var scrapeMu sync.Mutex
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(base + "/metrics")
				if err == nil {
					var buf bytes.Buffer
					_, err = io.Copy(&buf, resp.Body)
					resp.Body.Close()
					if err == nil {
						_, err = testkit.ParsePrometheusText(&buf)
					}
				}
				if err != nil {
					scrapeMu.Lock()
					if scrapeErr == nil {
						scrapeErr = err
					}
					scrapeMu.Unlock()
					return
				}
			}
		}()
	}
	// Let scrapers finish, then stop the mutators.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("scrape/mutate goroutines wedged")
	}
	if scrapeErr != nil {
		t.Fatalf("concurrent scrape produced an invalid exposition: %v", scrapeErr)
	}
}
