package sca

import (
	"fmt"
	"math"

	"reveal/internal/linalg"
	"reveal/internal/trace"
)

// Scorer is a reusable scoring context over one trained template set: all
// scratch buffers (POI feature vectors, block workspace, per-block
// quadratic forms) are allocated once and reused across every scored
// sub-trace. One Scorer serves one goroutine; create one per worker for
// parallel classification.
//
// Every class shares the template's Cholesky factor, so the classes are
// lanes of linalg.CholFactor.QuadBlockInto blocks, sixteen lanes per call:
// a template with at most four classes takes four lanes per feature vector
// and scores four vectors per block, a wider one takes one vector per
// block and as many blocks as its classes need, and lanes past the last
// class are scored but never read. Every score is computed with exactly
// the floating-point operations of a per-class residual,
// linalg.SolveCholesky and dot product in the same order, so
// classifications and posteriors derived from a Scorer are bitwise
// identical to the per-vector path — the property the replay-determinism
// selftest enforces.
type Scorer struct {
	t        *Templates
	logTwoPi float64 // d·log(2π), shared additive constant of every score
	// span is one past the largest POI: the shortest trace it can score
	// (a loaded template's POIs need not ascend).
	span int
	// feat holds the feature vectors of one block, vector g at g·d.
	feat []float64
	// group is how many feature vectors one block scores (4 or 1), lanes
	// how many lanes each takes (4 or 16); means holds the blocks' d×16
	// lane means back to back: class ci of vector g is lane
	// g·lanes + ci%lanes of block ci/lanes.
	group, lanes int
	means        []float64
	work, q      []float64
}

// NewScorer prepares a reusable scoring context for the template set.
func (t *Templates) NewScorer() *Scorer {
	d := len(t.POIs)
	s := &Scorer{
		t:        t,
		logTwoPi: float64(d) * math.Log(2*math.Pi),
		group:    1,
		lanes:    linalg.BlockLanes,
	}
	for _, p := range t.POIs {
		s.span = max(s.span, p+1)
	}
	if len(t.classes) <= linalg.BlockLanes/4 {
		s.group, s.lanes = 4, linalg.BlockLanes/4
	}
	blocks := (len(t.classes) + s.lanes - 1) / s.lanes
	s.means = make([]float64, blocks*d*linalg.BlockLanes)
	for ci, c := range t.classes {
		block := s.means[ci/s.lanes*d*linalg.BlockLanes:]
		for g := 0; g < s.group; g++ {
			for i, m := range c.mean {
				block[i*linalg.BlockLanes+g*s.lanes+ci%s.lanes] = m
			}
		}
	}
	s.feat = make([]float64, s.group*d)
	s.work = make([]float64, t.fact.BlockWork())
	s.q = make([]float64, linalg.BlockLanes)
	return s
}

// Classes returns the number of trained classes.
func (s *Scorer) Classes() int { return len(s.t.classes) }

// Label returns the class label at index ci (classes are in ascending
// label order, matching the columns of ScoreTraces' result).
func (s *Scorer) Label(ci int) int { return s.t.classes[ci].label }

// ScoreTraces extracts the POI features of every trace and writes their
// per-class Gaussian log-likelihoods into ll, an n × Classes() matrix: row
// v holds trace v's scores in class (ascending label) order. It allocates
// nothing.
func (s *Scorer) ScoreTraces(ll []float64, trs []trace.Trace) error {
	nc, pois := len(s.t.classes), s.t.POIs
	if len(ll) != len(trs)*nc {
		return fmt.Errorf("sca: score matrix of %d entries for %d traces × %d classes", len(ll), len(trs), nc)
	}
	for v, tr := range trs {
		if len(tr) < s.span {
			return fmt.Errorf("sca: trace %d of %d samples shorter than POI range", v, len(tr))
		}
	}
	d := len(pois)
	for v0 := 0; v0 < len(trs); v0 += s.group {
		vs := trs[v0:min(v0+s.group, len(trs))]
		for g, tr := range vs {
			f := s.feat[g*d : (g+1)*d]
			for i, p := range pois {
				f[i] = tr[p]
			}
		}
		if err := s.scoreFeatures(ll[v0*nc:(v0+len(vs))*nc], len(vs)); err != nil {
			return err
		}
	}
	return nil
}

// scoreFeatures scores the first nv feature vectors in feat (nv ≤ group)
// into the nv rows of ll.
func (s *Scorer) scoreFeatures(ll []float64, nv int) error {
	d, nc := len(s.t.POIs), len(s.t.classes)
	fstride := 0
	if s.group > 1 {
		fstride = d
	}
	for ci0 := 0; ci0 < nc; ci0 += s.lanes {
		block := s.means[ci0/s.lanes*d*linalg.BlockLanes:][:d*linalg.BlockLanes]
		if err := s.t.fact.QuadBlockInto(s.q, s.feat, fstride, block, s.work); err != nil {
			return err
		}
		for g := 0; g < nv; g++ {
			for ci := ci0; ci < min(ci0+s.lanes, nc); ci++ {
				ll[g*nc+ci] = -0.5 * (s.q[g*s.lanes+ci-ci0] + s.t.logDet + s.logTwoPi)
			}
		}
	}
	return nil
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
