package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"reveal/internal/obs"
	"reveal/internal/sca"
	"reveal/internal/trace"
)

// SNRReportThreshold is the signal-to-noise level a sample must clear to be
// counted as a useful point of interest in diagnostic reports (signal at
// least as strong as the noise floor).
const SNRReportThreshold = 1.0

// DiagnosticsOptions configures a leakage-assessment run.
type DiagnosticsOptions struct {
	// Profile configures the profiling campaign the assessment runs on.
	Profile ProfileOptions
	// KeepCurves embeds the full per-sample SNR and t-test curves in the
	// report (large; off by default).
	KeepCurves bool
}

// SetDiagnostics is the leakage assessment of one labeled profiling set
// (sign, positive values, negative values).
type SetDiagnostics struct {
	Name    string `json:"name"`
	Traces  int    `json:"traces"`
	Classes int    `json:"classes"`
	// SNR summarizes the per-sample signal-to-noise curve against
	// SNRReportThreshold.
	SNR sca.CurveSummary `json:"snr"`
	// TTests holds the Welch t-test summary for every adjacent label pair —
	// the hardest distinctions the templates must make.
	TTests []sca.PairTTest `json:"t_tests"`
	// POIOverlap compares the paper's SOSD POI choice with the SNR ranking.
	POIOverlap *sca.POIOverlap `json:"poi_overlap"`
	// Health is the conditioning report of the trained templates.
	Health *sca.TemplateHealth `json:"template_health"`
}

// DiagnosticsReport is the full leakage assessment written by
// `revealctl diagnose`: per-set SNR/t-test/POI/health diagnostics plus the
// aggregated warnings.
type DiagnosticsReport struct {
	SegmentLength int              `json:"segment_length"`
	Sets          []SetDiagnostics `json:"sets"`
	// LeakyPairs / TotalPairs count adjacent label pairs whose peak |t|
	// clears the TVLA threshold.
	LeakyPairs int `json:"leaky_pairs"`
	TotalPairs int `json:"total_pairs"`
	// Warnings aggregates template-health and distinguishability warnings
	// across sets, each prefixed with the set name.
	Warnings []string `json:"warnings,omitempty"`
	Healthy  bool     `json:"healthy"`
}

// Diagnose collects a profiling campaign on the device and assesses its
// leakage: SNR curves, adjacent-pair Welch t-tests against the TVLA
// threshold, SOSD-vs-SNR POI overlap, and template-health checks for each
// of the three template sets. Warnings are also emitted as instant events
// into the trace stream. Cancellation is checked at every stage boundary
// (collection runs, training, and between set assessments).
func Diagnose(ctx context.Context, dev *Device, opts DiagnosticsOptions) (*DiagnosticsReport, error) {
	sp := obs.StartSpanCtx(ctx, "diagnose")
	defer sp.End()
	sets, err := CollectProfilingSets(ctx, dev, opts.Profile, sp)
	if err != nil {
		return nil, err
	}
	cls, err := TrainClassifier(ctx, sets, opts.Profile, sp)
	if err != nil {
		return nil, err
	}

	asp := sp.Child("assess")
	defer asp.End()
	report := &DiagnosticsReport{SegmentLength: sets.Length}
	for _, target := range []struct {
		name string
		set  *trace.Set
		tmpl *sca.Templates
	}{
		{"sign", sets.Sign, cls.Sign},
		{"pos", sets.Pos, cls.Pos},
		{"neg", sets.Neg, cls.Neg},
	} {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: assessment canceled: %w", err)
		}
		sd, err := assessSet(target.name, target.set, target.tmpl, opts)
		if err != nil {
			return nil, fmt.Errorf("core: assessing %s set: %w", target.name, err)
		}
		report.Sets = append(report.Sets, *sd)
		for _, p := range sd.TTests {
			report.TotalPairs++
			if p.Leaky {
				report.LeakyPairs++
			} else {
				report.Warnings = append(report.Warnings, fmt.Sprintf(
					"%s: labels %d vs %d not distinguishable (max |t| %.2f below %.1f)",
					sd.Name, p.LabelA, p.LabelB, p.Summary.Max, sca.TVLATTestThreshold))
			}
		}
		for _, w := range sd.Health.Warnings {
			report.Warnings = append(report.Warnings, sd.Name+": "+w)
		}
	}
	report.Healthy = len(report.Warnings) == 0
	asp.AddItems(report.TotalPairs)
	for _, w := range report.Warnings {
		obs.Global().Instant("diagnostic_warning", map[string]any{"warning": w})
	}
	obs.Log().Info("leakage assessment finished",
		"sets", len(report.Sets), "leaky_pairs", report.LeakyPairs,
		"total_pairs", report.TotalPairs, "warnings", len(report.Warnings))
	return report, nil
}

// assessSet runs the per-set diagnostics.
func assessSet(name string, set *trace.Set, tmpl *sca.Templates, opts DiagnosticsOptions) (*SetDiagnostics, error) {
	snr, err := sca.SNR(set)
	if err != nil {
		return nil, err
	}
	sd := &SetDiagnostics{
		Name:   name,
		Traces: set.Len(),
		SNR:    sca.SummarizeCurve(snr, SNRReportThreshold, opts.KeepCurves),
	}
	labels := setLabels(set)
	sd.Classes = len(labels)
	for i := 0; i+1 < len(labels); i++ {
		p, err := sca.TTestPair(set, labels[i], labels[i+1], opts.KeepCurves)
		if err != nil {
			return nil, err
		}
		sd.TTests = append(sd.TTests, p)
	}
	t := opts.Profile.Templates
	if sd.POIOverlap, err = sca.ComparePOISelectors(set, t.POICount, t.MinSpacing); err != nil {
		return nil, err
	}
	if sd.Health, err = tmpl.Health(); err != nil {
		return nil, err
	}
	return sd, nil
}

// setLabels returns the distinct labels of a set in ascending order.
func setLabels(set *trace.Set) []int {
	seen := map[int]bool{}
	for _, l := range set.Labels {
		seen[l] = true
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// FormatDiagnostics renders the report for the terminal.
func FormatDiagnostics(r *DiagnosticsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "leakage assessment (segment length %d samples)\n", r.SegmentLength)
	for _, s := range r.Sets {
		fmt.Fprintf(&b, "\n[%s] %d traces, %d classes\n", s.Name, s.Traces, s.Classes)
		fmt.Fprintf(&b, "  SNR: max %.3g at sample %d, mean %.3g, %d samples above %.1f\n",
			s.SNR.Max, s.SNR.ArgMax, s.SNR.Mean, s.SNR.AboveThreshold, s.SNR.Threshold)
		leaky := 0
		worst := sca.PairTTest{Summary: sca.CurveSummary{Max: -1}}
		for _, p := range s.TTests {
			if p.Leaky {
				leaky++
			}
			if worst.Summary.Max < 0 || p.Summary.Max < worst.Summary.Max {
				worst = p
			}
		}
		if len(s.TTests) > 0 {
			fmt.Fprintf(&b, "  t-test: %d/%d adjacent pairs leaky; weakest pair (%d, %d) max |t| %.2f\n",
				leaky, len(s.TTests), worst.LabelA, worst.LabelB, worst.Summary.Max)
		}
		if s.POIOverlap != nil {
			fmt.Fprintf(&b, "  POIs: SOSD vs SNR share %d/%d (Jaccard %.2f)\n",
				s.POIOverlap.Shared, s.POIOverlap.K, s.POIOverlap.Jaccard)
		}
		if s.Health != nil {
			fmt.Fprintf(&b, "  templates: %d classes x %d POIs, min class count %d, cond %.3g, min eig %.3g\n",
				s.Health.Classes, s.Health.POICount, s.Health.MinClassCount,
				s.Health.ConditionNumber, s.Health.MinEigenvalue)
		}
	}
	fmt.Fprintf(&b, "\npairs leaky: %d/%d\n", r.LeakyPairs, r.TotalPairs)
	if r.Healthy {
		b.WriteString("no warnings: profiling set supports the attack\n")
	} else {
		fmt.Fprintf(&b, "%d warnings:\n", len(r.Warnings))
		for _, w := range r.Warnings {
			fmt.Fprintf(&b, "  - %s\n", w)
		}
	}
	return b.String()
}
