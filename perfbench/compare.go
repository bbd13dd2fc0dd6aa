package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// runCompare reads the result records of two commits (JSONL files written
// with --out, runs of both sides in the same order, ideally alternating)
// and prints, per workload and metric, each side's median and quartiles,
// the share of pairs the change wins, and a verdict:
//
//   - unresolved: the parent's own spread (interquartile range over its
//     median) is wider than the metric's bound, unless every change run
//     beats every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - better: the change wins at least nine tenths of the pairs and the
//     medians differ by more than the parent's interquartile range;
//   - same: none of the above.
//
// Per-layer metrics have no bound, so they never read unresolved or worse
// by bound; they read better or worse by the pair rule alone.
func runCompare(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark spec with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare [--bench BENCHMARK.json] <parent.jsonl> <change.jsonl>")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-30s %27s %27s %8s %6s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			defs := spec.EndToEnd
			if traced {
				defs = spec.PerLayer
			}
			for _, def := range defs {
				b := values(base, wl.Name, traced, def.Name)
				h := values(head, wl.Name, traced, def.Name)
				if len(b) == 0 || len(h) == 0 {
					continue
				}
				c := compareMetric(b, h, def, traced)
				fmt.Fprintf(w, "%-12s %-30s %11.5g [%6.4g, %6.4g] %11.5g [%6.4g, %6.4g] %+7.1f%% %6.2f  %s\n",
					wl.Name, def.Name, c.base[1], c.base[0], c.base[2], c.head[1], c.head[0], c.head[2],
					100*c.delta, c.wins, c.verdict)
			}
		}
	}
	return nil
}

type comparison struct {
	base, head [3]float64 // q1, median, q3
	delta      float64    // relative change of the median
	wins       float64    // share of pairs the change wins
	verdict    string
}

func compareMetric(base, head []float64, def metricDef, perLayer bool) comparison {
	var c comparison
	c.base[0], c.base[1], c.base[2] = quartiles(base)
	c.head[0], c.head[1], c.head[2] = quartiles(head)
	sign := 1.0 // positive when the change is better
	if def.Better == "lower" {
		sign = -1
	}
	if c.base[1] != 0 {
		c.delta = (c.head[1] - c.base[1]) / math.Abs(c.base[1])
	}
	pairs := min(len(base), len(head))
	won, lost := 0, 0
	for i := 0; i < pairs; i++ {
		switch d := sign * (head[i] - base[i]); {
		case d > 0:
			won++
		case d < 0:
			lost++
		}
	}
	c.wins = float64(won) / float64(pairs)
	iqr := c.base[2] - c.base[0]
	spread := math.Inf(1)
	if c.base[1] != 0 {
		spread = iqr / math.Abs(c.base[1])
	}
	allBetter := sign*(worst(head, sign)-best(base, sign)) > 0
	switch {
	case !perLayer && spread > def.Bound && !allBetter:
		c.verdict = "unresolved"
	case !perLayer && sign*c.delta < -def.Bound:
		c.verdict = "worse"
	case c.wins >= 0.9 && math.Abs(c.head[1]-c.base[1]) > iqr:
		c.verdict = "better"
	case perLayer && float64(lost)/float64(pairs) >= 0.9 && math.Abs(c.head[1]-c.base[1]) > iqr:
		c.verdict = "worse"
	default:
		c.verdict = "same"
	}
	return c
}

// worst returns the worst value of xs in the metric's direction (sign is
// +1 when higher is better, -1 when lower is better); best the best.
func worst(xs []float64, sign float64) float64 {
	w := xs[0]
	for _, x := range xs[1:] {
		if sign*x < sign*w {
			w = x
		}
	}
	return w
}

func best(xs []float64, sign float64) float64 { return worst(xs, -sign) }

func values(recs []record, workload string, traced bool, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}
