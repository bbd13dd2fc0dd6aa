package sca

import (
	"fmt"
	"sort"

	"reveal/internal/linalg"
	"reveal/internal/obs"
	"reveal/internal/trace"
)

// TemplateOptions configures template construction.
type TemplateOptions struct {
	// POICount is how many points of interest to keep.
	POICount int
	// MinSpacing is the minimum distance between selected POIs.
	MinSpacing int
	// Ridge is added to the covariance diagonal for numerical stability.
	Ridge float64
	// Pooled uses one covariance matrix shared by all classes (the usual
	// practical choice); otherwise each class estimates its own.
	Pooled bool
	// Selector chooses the POI score ("sosd" — the paper's method — or
	// "sost"). Empty means "sosd".
	Selector string
}

// DefaultTemplateOptions mirror the paper's setup: SOSD-selected POIs,
// pooled covariance.
func DefaultTemplateOptions() TemplateOptions {
	return TemplateOptions{POICount: 12, MinSpacing: 2, Ridge: 1e-6, Pooled: true, Selector: "sosd"}
}

// classTemplate is the per-label multivariate Gaussian. Everything needed
// to score a sub-trace — the cached triangular-solve structures, the
// inverse covariance, and the log-determinant — is precomputed once at
// training time (and carried through serialization), so classification
// never re-factors or re-inverts a covariance.
type classTemplate struct {
	label  int
	count  int
	mean   []float64
	chol   *linalg.Matrix     // Cholesky factor of the covariance
	fact   *linalg.CholFactor // cached solve structures over chol
	invCov *linalg.Matrix     // precomputed inverse covariance Σ⁻¹
	logDet float64
}

// Templates is a trained template attack.
type Templates struct {
	POIs    []int
	classes []classTemplate
	pooled  bool
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
	var scores []float64
	var err error
	switch opts.Selector {
	case "", "sosd":
		scores, err = SOSD(set)
	case "sost":
		scores, err = SOST(set)
	default:
		err = fmt.Errorf("sca: unknown POI selector %q", opts.Selector)
	}
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
	means := map[int][]float64{}
	for _, l := range labels {
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
		means[l] = mean
	}

	// Covariances: pooled or per class. The scatter update works on row
	// slices with the centered features computed once per trace — the same
	// f[j]−mean[j] and di·diff[j] operations, in the same order, as the
	// historical element-wise At/Set loop.
	newCov := func() *linalg.Matrix { return linalg.NewMatrix(d, d) }
	diff := make([]float64, d)
	accumulate := func(cov *linalg.Matrix, idxs []int, mean []float64) int {
		for _, idx := range idxs {
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
		return len(idxs)
	}
	// finalize turns an accumulated scatter matrix into the scoring
	// structures: Cholesky factor, cached solver, inverse covariance and
	// log-determinant — all computed once here, at training time.
	finalize := func(cov *linalg.Matrix, n int) (*linalg.Matrix, *linalg.CholFactor, *linalg.Matrix, error) {
		if n < 2 {
			n = 2
		}
		cov = cov.Scale(1 / float64(n-1))
		linalg.RegularizeSPD(cov, opts.Ridge)
		chol, err := linalg.Cholesky(cov)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("sca: covariance not PD (add ridge): %w", err)
		}
		fact := linalg.CholFactorOf(chol)
		return chol, fact, fact.Inverse(), nil
	}

	t := &Templates{POIs: append([]int(nil), pois...), pooled: opts.Pooled}
	if opts.Pooled {
		cov := newCov()
		total := 0
		for _, l := range labels {
			total += accumulate(cov, groups[l], means[l])
		}
		// One covariance shared by every class: factor and invert once.
		chol, fact, invCov, err := finalize(cov, total)
		if err != nil {
			return nil, err
		}
		for _, l := range labels {
			t.classes = append(t.classes, classTemplate{
				label: l, count: len(groups[l]), mean: means[l],
				chol: chol, fact: fact, invCov: invCov, logDet: fact.LogDet(),
			})
		}
	} else {
		for _, l := range labels {
			cov := newCov()
			n := accumulate(cov, groups[l], means[l])
			chol, fact, invCov, err := finalize(cov, n)
			if err != nil {
				return nil, fmt.Errorf("sca: class %d: %w", l, err)
			}
			t.classes = append(t.classes, classTemplate{
				label: l, count: n, mean: means[l],
				chol: chol, fact: fact, invCov: invCov, logDet: fact.LogDet(),
			})
		}
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
