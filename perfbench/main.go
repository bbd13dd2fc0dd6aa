// Command perfbench is the repository benchmark. It drives the attack
// pipeline and the campaign service through their public entry points in
// three closed-loop workloads, checks every operation against ground truth,
// and prints one JSON result line as the last line of its output.
//
//	bash perfbench/run.sh --workload recover --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --validate --seed 7
//	bash perfbench/run.sh compare base.jsonl head.jsonl
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it reports the per-layer metrics instead, attributed from the
// benchmark's own spans around each public call (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// setups is how many times a run builds its workload state; setup_s
	// is their median and the last one is measured.
	setups = 3
	// warmup runs unmeasured operations so pools, caches and the heap
	// settle before timing starts.
	warmup = 500 * time.Millisecond
	// validateOps is how many operations each workload runs in validate-only
	// mode.
	validateOps = 4
)

// opResult is what one operation reports to the driver loop.
type opResult struct {
	latency time.Duration
	// err is non-nil when the operation failed or its output did not
	// match ground truth.
	err error
	// classified and correct count coefficients classified and how many
	// of them equal the ground truth.
	classified, correct int
	// ttfh is the time from operation start to the first coefficient hint
	// in the caller's hands.
	ttfh time.Duration
	// layers holds the traced attribution: self times (ms) named in the
	// workload's selfLayers, plus inclusive times and counters. It is nil
	// on untraced operations.
	layers map[string]float64
}

// instance is one set-up workload, ready to run operations.
type instance interface {
	// op runs operation i. traced asks for per-layer attribution.
	op(i int, traced bool) opResult
	// derive turns per-layer sums over n traced operations into the
	// metrics that are not per-op means (rates and ratios); keys it does
	// not set are reported as per-op means.
	derive(sum map[string]float64, n int) map[string]float64
	close()
}

// workload describes one benchmark workload.
type workload struct {
	name  string
	setup func(seed uint64) (instance, error)
	// selfLayers are the layer self times that, with unattributed_ms, add
	// up to each traced operation's latency.
	selfLayers []string
}

var workloads = []*workload{recoverWorkload, streamWorkload, campaignWorkload}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var (
		name     = flag.String("workload", "", "workload to run: recover, stream-exit or campaign")
		seed     = flag.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Float64("seconds", 10, "measured duration in seconds")
		traced   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		out      = flag.String("out", "", "append the full result record to this JSONL file")
		validate = flag.Bool("validate", false, "run a few checked operations of every workload and exit")
	)
	flag.Parse()
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *validate {
		if err := runValidate(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench validate:", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rec, err := run(w, spec, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	printRecord(os.Stdout, rec)
}

// record is one run's full result: the driver's last line plus what the
// compare mode and a later reader need.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	GoVersion string            `json:"go_version"`
	Procs     int               `json:"gomaxprocs"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	SetupS    []float64         `json:"setup_s_samples"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printRecord writes the record as a readable summary followed by the
// result line the driver parses.
func printRecord(w io.Writer, rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload=%s seed=%d trace=%v attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
	if rec.FirstErr != "" {
		fmt.Fprintf(w, "first failure: %s\n", rec.FirstErr)
	}
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Fprintln(w, string(line))
}

func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run sets the workload up several times, warms it, measures it for d and
// reports the metrics the spec declares for the chosen mode.
func run(w *workload, spec *benchSpec, seed uint64, d time.Duration, traced bool) (*record, error) {
	var inst instance
	var setupS []float64
	for k := 0; k < setups; k++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	next := 0
	loop(inst, &next, warmup, false)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	results := loop(inst, &next, d, traced)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	rec := &record{
		Workload: w.name, Seed: seed, Trace: traced, Seconds: d.Seconds(),
		GoVersion: runtime.Version(), Procs: runtime.GOMAXPROCS(0),
		Attempted: len(results), SetupS: setupS,
	}
	for _, r := range results {
		if r.err != nil {
			rec.Failed++
			if rec.FirstErr == "" {
				rec.FirstErr = r.err.Error()
			}
		}
	}
	rec.Correct = rec.Failed == 0
	var values map[string]float64
	var err error
	if traced {
		values, err = layerMetrics(w, inst, results)
	} else {
		values = endToEnd(results, setupS, elapsed, m1.TotalAlloc-m0.TotalAlloc)
	}
	if err != nil {
		return nil, err
	}
	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
	}
	rec.Metrics = make(map[string]metric, len(defs))
	for _, def := range defs {
		v, ok := values[def.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("%s does not produce end-to-end metric %s", w.name, def.Name)
		}
		rec.Metrics[def.Name] = metric{Value: v, Unit: def.Unit}
	}
	return rec, nil
}

// loop runs the workload's closed loop: one client issues its next
// operation as soon as the previous one returns, until d has passed. On a
// traced run every other operation is traced, so the traced and untraced
// latencies are paired in time.
func loop(inst instance, next *int, d time.Duration, traced bool) []opResult {
	var results []opResult
	deadline := time.Now().Add(d)
	for k := 0; time.Now().Before(deadline); k++ {
		results = append(results, inst.op(*next, traced && k%2 == 1))
		*next++
	}
	return results
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(results []opResult, setupS []float64, elapsed time.Duration, alloc uint64) map[string]float64 {
	var lat, ttfh []float64
	failed, classified, correct := 0, 0, 0
	for _, r := range results {
		lat = append(lat, ms(r.latency))
		ttfh = append(ttfh, ms(r.ttfh))
		classified += r.classified
		correct += r.correct
		if r.err != nil {
			failed++
		}
	}
	n := float64(len(results))
	out := map[string]float64{
		"setup_s":           median(setupS),
		"ops_per_s":         n / elapsed.Seconds(),
		"latency_p50_ms":    quantile(lat, 0.5),
		"ttfh_p50_ms":       quantile(ttfh, 0.5),
		"success_ratio":     1 - float64(failed)/n,
		"alloc_mb_per_op":   float64(alloc) / 1e6 / n,
		"coeffs_to_verdict": float64(classified) / n,
	}
	if classified > 0 {
		out["value_acc"] = float64(correct) / float64(classified)
	}
	return out
}

// layerMetrics computes the per-layer metrics of a traced run. Each traced
// operation's unattributed_ms is its latency minus its layer self times, so
// the two add up to the latency; a clearly negative remainder means the
// self times overlap, which fails the run.
func layerMetrics(w *workload, inst instance, results []opResult) (map[string]float64, error) {
	sum := map[string]float64{}
	var tracedLat, plainLat []float64
	n, failed := 0, 0
	for _, r := range results {
		if r.err != nil {
			failed++
		}
		if r.layers == nil {
			plainLat = append(plainLat, ms(r.latency))
			continue
		}
		n++
		latency := ms(r.latency)
		tracedLat = append(tracedLat, latency)
		self := 0.0
		for _, l := range w.selfLayers {
			self += r.layers[l]
		}
		r.layers["unattributed_ms"] = latency - self
		if self > 1.01*latency {
			return nil, fmt.Errorf("layer self times sum to %.3f ms, more than the %.3f ms latency", self, latency)
		}
		for k, v := range r.layers {
			sum[k] += v
		}
	}
	if n == 0 {
		return nil, errors.New("no traced operation completed; raise --seconds")
	}
	out := map[string]float64{}
	for k, v := range sum {
		out[k] = v / float64(n)
	}
	for k, v := range inst.derive(sum, n) {
		out[k] = v
	}
	// The tail is reported here, unbounded: on a shared VM, episodes of
	// host contention move a run's p90 far more than its median.
	out["latency_p90_ms"] = quantile(plainLat, 0.9)
	out["traced_latency_mean_ms"] = mean(tracedLat)
	out["tracing_overhead_ms"] = quantile(tracedLat, 0.5) - quantile(plainLat, 0.5)
	out["fail_ratio"] = float64(failed) / float64(len(results))
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runValidate runs a few operations of every workload, alternating traced
// and untraced, and fails on the first mismatch or inconsistent
// attribution.
func runValidate(seed uint64) error {
	for _, w := range workloads {
		inst, err := w.setup(seed)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		var results []opResult
		for i := 0; i < validateOps; i++ {
			r := inst.op(i, i%2 == 1)
			if r.err != nil {
				inst.close()
				return fmt.Errorf("%s op %d: %w", w.name, i, r.err)
			}
			results = append(results, r)
		}
		_, err = layerMetrics(w, inst, results)
		inst.close()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Printf("%s: %d operations checked\n", w.name, len(results))
	}
	return nil
}
