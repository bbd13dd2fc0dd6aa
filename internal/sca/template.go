package sca

import (
	"fmt"
	"sort"

	"reveal/internal/linalg"
	"reveal/internal/obs"
	"reveal/internal/trace"
)

// TemplateOptions configures template construction. POIs are always
// selected by SOSD (the paper's method) and every class shares one pooled
// covariance.
type TemplateOptions struct {
	// POICount is how many points of interest to keep.
	POICount int
	// MinSpacing is the minimum distance between selected POIs.
	MinSpacing int
	// Ridge is added to the covariance diagonal for numerical stability.
	Ridge float64
}

// DefaultTemplateOptions mirror the paper's setup.
func DefaultTemplateOptions() TemplateOptions {
	return TemplateOptions{POICount: 12, MinSpacing: 2, Ridge: 1e-6}
}

// classTemplate is one label's profile: its trace count and POI mean.
type classTemplate struct {
	label int
	count int
	mean  []float64
}

// Templates is a trained template attack: multivariate Gaussians with one
// pooled covariance (Chari et al.). Everything scoring needs — the
// Cholesky factor with its cached solve structures and the
// log-determinant — is computed once at training time and carried through
// serialization, so classification never re-factors a covariance.
type Templates struct {
	POIs    []int
	classes []classTemplate
	chol    *linalg.Matrix     // Cholesky factor of the pooled covariance
	fact    *linalg.CholFactor // cached solve structures over chol
	logDet  float64
}

// BuildTemplates trains templates from a labeled profiling set (the
// 220,000-trace campaign of §IV-B, at whatever scale the caller chose).
func BuildTemplates(set *trace.Set, opts TemplateOptions) (*Templates, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if set.Len() == 0 {
		return nil, fmt.Errorf("sca: empty profiling set")
	}
	if opts.POICount <= 0 {
		return nil, fmt.Errorf("sca: POICount must be positive")
	}
	psp := obs.StartSpan("poi")
	scores, err := SOSD(set)
	if err != nil {
		psp.End()
		return nil, err
	}
	pois := SelectPOIs(scores, opts.POICount, opts.MinSpacing)
	psp.AddItems(len(pois))
	psp.End()
	if len(pois) == 0 {
		return nil, fmt.Errorf("sca: no POIs selected")
	}
	tsp := obs.StartSpan("template")
	tsp.AddItems(set.Len())
	defer tsp.End()
	return BuildTemplatesAtPOIs(set, pois, opts)
}

// BuildTemplatesAtPOIs trains templates using caller-chosen POIs.
func BuildTemplatesAtPOIs(set *trace.Set, pois []int, opts TemplateOptions) (*Templates, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	for _, p := range pois {
		if p < 0 || (set.Len() > 0 && p >= len(set.Traces[0])) {
			return nil, fmt.Errorf("sca: POI %d out of range", p)
		}
	}
	d := len(pois)
	groups := set.ByLabel()
	labels := make([]int, 0, len(groups))
	for l := range groups {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	if len(labels) < 2 {
		return nil, fmt.Errorf("sca: need at least 2 classes, got %d", len(labels))
	}

	// Per-class means, over one reusable feature buffer.
	f := make([]float64, d)
	means := make([][]float64, len(labels))
	for li, l := range labels {
		mean := make([]float64, d)
		for _, idx := range groups[l] {
			ExtractInto(f, set.Traces[idx], pois)
			for i, v := range f {
				mean[i] += v
			}
		}
		for i := range mean {
			mean[i] /= float64(len(groups[l]))
		}
		means[li] = mean
	}

	// The pooled covariance. The scatter update works on row slices with
	// the centered features computed once per trace — the same f[j]−mean[j]
	// and di·diff[j] operations, in the same order, as the historical
	// element-wise At/Set loop.
	cov := linalg.NewMatrix(d, d)
	diff := make([]float64, d)
	total := 0
	for li, l := range labels {
		mean := means[li]
		for _, idx := range groups[l] {
			ExtractInto(f, set.Traces[idx], pois)
			for j := 0; j < d; j++ {
				diff[j] = f[j] - mean[j]
			}
			for i := 0; i < d; i++ {
				di := diff[i]
				row := cov.Data[i*d : (i+1)*d]
				for j := 0; j < d; j++ {
					row[j] += di * diff[j]
				}
			}
		}
		total += len(groups[l])
	}
	cov = cov.Scale(1 / float64(total-1))
	linalg.RegularizeSPD(cov, opts.Ridge)
	chol, err := linalg.Cholesky(cov)
	if err != nil {
		return nil, fmt.Errorf("sca: covariance not PD (add ridge): %w", err)
	}
	fact := linalg.CholFactorOf(chol)
	t := &Templates{POIs: append([]int(nil), pois...), chol: chol, fact: fact, logDet: fact.LogDet()}
	for li, l := range labels {
		t.classes = append(t.classes, classTemplate{label: l, count: len(groups[l]), mean: means[li]})
	}
	return t, nil
}

// Labels returns the class labels in ascending order.
func (t *Templates) Labels() []int {
	out := make([]int, len(t.classes))
	for i, c := range t.classes {
		out[i] = c.label
	}
	return out
}
