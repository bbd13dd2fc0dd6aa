package dbdd

import (
	"fmt"

	"reveal/internal/linalg"
	"reveal/internal/obs"
)

// FullInstance is the full-covariance DBDD oracle: unlike Instance (which
// tracks a diagonal Σ and supports only per-coordinate hints), it
// maintains the complete covariance matrix and accepts hints along
// arbitrary directions v. Perfect hints are supported on coordinates
// (explicit elimination keeps Σ non-degenerate); approximate hints may use
// any direction. Tests hold the diagonal Instance to it on coordinate
// hints, and the golden estimates run the shared bisection on its dense
// log-volumes.
type FullInstance struct {
	// Mu and Sigma describe the posterior of the remaining coordinates.
	Mu    []float64
	Sigma *linalg.Matrix

	// coords maps current indices to original coordinates.
	coords []int
	dim    int // lattice dimension (incl. homogenization)
	logVol float64
	nHints int
}

// NewFullLWEInstance mirrors NewLWEInstance with a dense covariance.
func NewFullLWEInstance(n, m int, q float64, sigmaS2, sigmaE2 float64) (*FullInstance, error) {
	base, err := NewLWEInstance(n, m, q, sigmaS2, sigmaE2)
	if err != nil {
		return nil, err
	}
	d := n + m
	in := &FullInstance{
		Mu:     make([]float64, d),
		Sigma:  linalg.NewMatrix(d, d),
		coords: make([]int, d),
		dim:    base.dim,
		logVol: base.logVol,
	}
	for i := 0; i < d; i++ {
		in.Sigma.Set(i, i, base.Var[i])
		in.coords[i] = i
	}
	return in, nil
}

// Dim returns the current lattice dimension.
func (in *FullInstance) Dim() int { return in.dim }

// Remaining returns how many coordinates are still unknown.
func (in *FullInstance) Remaining() int { return len(in.coords) }

// HintCount returns the number of integrated hints.
func (in *FullInstance) HintCount() int { return in.nHints }

// indexOf translates an original coordinate to the current index.
func (in *FullInstance) indexOf(orig int) (int, error) {
	for i, c := range in.coords {
		if c == orig {
			return i, nil
		}
	}
	return 0, fmt.Errorf("dbdd: coordinate %d unknown or already eliminated", orig)
}

// PerfectHint eliminates an original coordinate: conditioning on its exact
// value updates the means of the remaining coordinates and deletes the
// corresponding row/column of Σ (Schur complement), while the lattice
// loses one dimension at unchanged volume (coordinate vectors are
// primitive in the dual).
func (in *FullInstance) PerfectHint(origCoord int, value float64) error {
	idx, err := in.indexOf(origCoord)
	if err != nil {
		return err
	}
	d := len(in.coords)
	sii := in.Sigma.At(idx, idx)
	if sii <= 0 {
		return fmt.Errorf("dbdd: coordinate %d has non-positive variance %v", origCoord, sii)
	}
	// Conditional update: μ' = μ + Σ_{·i}(l − μ_i)/Σ_ii ;
	// Σ' = Σ − Σ_{·i}Σ_{i·}/Σ_ii, then drop row/col i.
	delta := (value - in.Mu[idx]) / sii
	newMu := make([]float64, 0, d-1)
	keep := make([]int, 0, d-1)
	for i := 0; i < d; i++ {
		if i == idx {
			continue
		}
		keep = append(keep, i)
		newMu = append(newMu, in.Mu[i]+in.Sigma.At(i, idx)*delta)
	}
	newSigma := linalg.NewMatrix(d-1, d-1)
	for a, i := range keep {
		for b, j := range keep {
			newSigma.Set(a, b, in.Sigma.At(i, j)-in.Sigma.At(i, idx)*in.Sigma.At(idx, j)/sii)
		}
	}
	newCoords := make([]int, 0, d-1)
	for _, i := range keep {
		newCoords = append(newCoords, in.coords[i])
	}
	in.Mu, in.Sigma, in.coords = newMu, newSigma, newCoords
	in.dim--
	in.nHints++
	return nil
}

// ApproximateHintVec integrates ⟨s, v⟩ = value + ε with Var(ε) = epsVar for
// an arbitrary direction v over the *original* coordinates (entries for
// eliminated coordinates must be zero). Gaussian conditioning:
//
//	Σ' = Σ − (Σv)(Σv)ᵀ / (vᵀΣv + εVar)
//	μ' = μ + (value − ⟨μ,v⟩)·Σv / (vᵀΣv + εVar)
func (in *FullInstance) ApproximateHintVec(v []float64, value, epsVar float64) error {
	if epsVar <= 0 {
		return fmt.Errorf("dbdd: vector hints require positive noise variance, got %v", epsVar)
	}
	d := len(in.coords)
	// Project v onto the current coordinates.
	cur := make([]float64, d)
	norm := 0.0
	for i, orig := range in.coords {
		if orig < len(v) {
			cur[i] = v[orig]
			norm += cur[i] * cur[i]
		}
	}
	// Entries on eliminated coordinates are not representable anymore.
	for orig, x := range v {
		if x == 0 {
			continue
		}
		if _, err := in.indexOf(orig); err != nil {
			return fmt.Errorf("dbdd: hint touches eliminated coordinate %d", orig)
		}
	}
	if norm == 0 {
		return fmt.Errorf("dbdd: zero hint direction")
	}
	// Σ·v, one row dot product at a time.
	sv := make([]float64, d)
	for i := range sv {
		sv[i] = linalg.Dot(in.Sigma.Data[i*d:(i+1)*d], cur)
	}
	vsv := linalg.Dot(cur, sv)
	denom := vsv + epsVar
	if denom <= 0 {
		return fmt.Errorf("dbdd: degenerate hint denominator %v", denom)
	}
	mudot := linalg.Dot(in.Mu, cur)
	scale := (value - mudot) / denom
	for i := range in.Mu {
		in.Mu[i] += sv[i] * scale
	}
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			in.Sigma.Set(i, j, in.Sigma.At(i, j)-sv[i]*sv[j]/denom)
		}
	}
	in.nHints++
	return nil
}

// normalizedLogVol matches Instance.normalizedLogVol with a dense Σ:
// lnVol − ½·ln det Σ.
func (in *FullInstance) normalizedLogVol() (float64, error) {
	if len(in.coords) == 0 {
		return in.logVol, nil
	}
	ld, err := linalg.LogDetSPD(in.Sigma)
	if err != nil {
		// Conditioning can push tiny eigenvalues slightly negative; add a
		// whisper of ridge and retry once.
		ridged := in.Sigma.Clone()
		linalg.RegularizeSPD(ridged, 1e-10)
		ld, err = linalg.LogDetSPD(ridged)
		if err != nil {
			return 0, fmt.Errorf("dbdd: covariance not positive definite: %w", err)
		}
	}
	return in.logVol - 0.5*ld, nil
}

// EstimateBikz estimates the required BKZ block size, identically to the
// diagonal instance but with the dense covariance determinant.
func (in *FullInstance) EstimateBikz() (float64, error) {
	sp := obs.StartSpan("dbdd")
	defer sp.End()
	if in.dim < 3 {
		return 2, nil
	}
	nlv, err := in.normalizedLogVol()
	if err != nil {
		return 0, err
	}
	return estimateBikz(in.dim, nlv)
}
