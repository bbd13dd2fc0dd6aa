package sca

import (
	"fmt"
	"math"

	"reveal/internal/linalg"
	"reveal/internal/trace"
)

// Scorer is a reusable scoring context over one trained template set: all
// scratch buffers (POI feature vector, residual, triangular-solve
// workspace, per-class scores) are allocated once and reused across every
// scored sub-trace. One Scorer serves one goroutine; create one per worker
// for parallel classification.
//
// When every class shares one Cholesky factor (a pooled template), the
// residuals of all classes go through one interleaved
// linalg.CholFactor.QuadFormsInto call, padded to a multiple of four with
// columns that are solved but never summed. Otherwise each class is solved
// on its own. Either way every score is computed with exactly the
// floating-point operations of a per-class linalg.SolveCholesky and dot
// product in the same order, so classifications and posteriors derived
// from a Scorer are bitwise identical to the per-vector path — the
// property the replay-determinism selftest enforces.
type Scorer struct {
	t        *Templates
	logTwoPi float64 // d·log(2π), shared additive constant of every score
	f        []float64
	// shared is the factor common to every class, or nil when classes
	// carry their own; k is then the padded class count, else 1. means,
	// resid, y and x hold d×k interleaved columns: entry i of class ci at
	// i·k+ci (means only for a shared factor).
	shared *linalg.CholFactor
	k      int
	means  []float64
	resid  []float64
	y, x   []float64
	ll     []float64
}

// NewScorer prepares a reusable scoring context for the template set.
func (t *Templates) NewScorer() *Scorer {
	d := len(t.POIs)
	s := &Scorer{
		t:        t,
		logTwoPi: float64(d) * math.Log(2*math.Pi),
		f:        make([]float64, d),
		shared:   sharedFactor(t.classes),
		k:        1,
		ll:       make([]float64, len(t.classes)),
	}
	if s.shared != nil {
		s.k = (len(t.classes) + 3) &^ 3
		s.means = make([]float64, d*s.k)
		for ci, c := range t.classes {
			for i, m := range c.mean {
				s.means[i*s.k+ci] = m
			}
		}
	}
	s.resid = make([]float64, d*s.k)
	s.y = make([]float64, d*s.k)
	s.x = make([]float64, d*s.k)
	return s
}

// sharedFactor returns the Cholesky factor every class uses, or nil when
// the classes carry their own.
func sharedFactor(cs []classTemplate) *linalg.CholFactor {
	if len(cs) == 0 {
		return nil
	}
	for _, c := range cs[1:] {
		if c.fact != cs[0].fact {
			return nil
		}
	}
	return cs[0].fact
}

// Classes returns the number of trained classes.
func (s *Scorer) Classes() int { return len(s.t.classes) }

// Label returns the class label at index ci (classes are in ascending
// label order, matching the rows of ScoreTrace's result).
func (s *Scorer) Label(ci int) int { return s.t.classes[ci].label }

// ScoreTrace extracts the POI features of tr and returns the per-class
// Gaussian log-likelihoods in class (ascending label) order. The returned
// slice is owned by the Scorer and overwritten by the next scoring call.
func (s *Scorer) ScoreTrace(tr trace.Trace) ([]float64, error) {
	pois := s.t.POIs
	if len(tr) <= pois[len(pois)-1] {
		return nil, fmt.Errorf("sca: trace of %d samples shorter than POI range", len(tr))
	}
	for i, p := range pois {
		s.f[i] = tr[p]
	}
	return s.ScoreVector(s.f)
}

// ScoreVector scores an already-extracted POI feature vector. The returned
// slice is owned by the Scorer and overwritten by the next scoring call.
func (s *Scorer) ScoreVector(f []float64) ([]float64, error) {
	if len(f) != len(s.t.POIs) {
		return nil, fmt.Errorf("sca: feature vector of %d entries, want %d", len(f), len(s.t.POIs))
	}
	// Each Mahalanobis sum runs over i in ascending order from +0, exactly
	// as linalg.Dot over the class's own residual and solution.
	if s.shared == nil {
		for ci := range s.t.classes {
			c := &s.t.classes[ci]
			for i := range f {
				s.resid[i] = f[i] - c.mean[i]
			}
			if err := c.fact.QuadFormsInto(s.ll[ci:ci+1], s.x, s.y, s.resid, 1); err != nil {
				return nil, err
			}
		}
	} else {
		k, nc := s.k, len(s.ll)
		for i, fi := range f {
			resid, mean := s.resid[i*k:i*k+nc], s.means[i*k:i*k+nc]
			for ci, m := range mean {
				resid[ci] = fi - m
			}
		}
		if err := s.shared.QuadFormsInto(s.ll, s.x, s.y, s.resid, k); err != nil {
			return nil, err
		}
	}
	for ci := range s.ll {
		s.ll[ci] = -0.5 * (s.ll[ci] + s.t.classes[ci].logDet + s.logTwoPi)
	}
	return s.ll, nil
}

// ArgMaxLabel returns the label of the highest score: the first strict
// maximum in ascending class order, so ties and NaN scores resolve the
// same way on every run.
func (s *Scorer) ArgMaxLabel(ll []float64) int {
	best, bestLL := 0, math.Inf(-1)
	first := true
	for ci := range s.t.classes {
		v := ll[ci]
		if first || v > bestLL {
			best, bestLL = s.t.classes[ci].label, v
			first = false
		}
	}
	return best
}

// PosteriorValues converts scores into a softmax posterior written into a
// per-class slice (dst[ci] = P(class ci), ascending label order): a
// max-shifted exp and a normalizing sum accumulated in class order, never
// map order. dst must have len(ll) entries.
func (s *Scorer) PosteriorValues(ll, dst []float64) {
	max := math.Inf(-1)
	for _, v := range ll {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for ci, v := range ll {
		e := math.Exp(v - max)
		dst[ci] = e
		sum += e
	}
	for ci := range dst {
		dst[ci] /= sum
	}
}
