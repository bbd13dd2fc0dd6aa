package lattice

import (
	"fmt"
	"math"
	"math/big"
)

// gsoFloat converts the exact GSO to float64 for enumeration.
func gsoFloat(b *Basis) (mu [][]float64, B []float64, err error) {
	muR, BR, err := b.gso()
	if err != nil {
		return nil, nil, err
	}
	n := b.NumRows()
	mu = make([][]float64, n)
	B = make([]float64, n)
	for i := 0; i < n; i++ {
		mu[i] = make([]float64, i)
		for j := 0; j < i; j++ {
			mu[i][j], _ = muR[i][j].Float64()
		}
		B[i], _ = BR[i].Float64()
	}
	return mu, B, nil
}

// enumerate searches for the shortest nonzero vector with squared norm
// below radiusSq in the projected sub-lattice [from, to) of the GSO.
// It returns the integer coefficients (w.r.t. basis rows from..to-1) of the
// best vector found, or nil when nothing beats the radius.
func enumerate(mu [][]float64, B []float64, from, to int, radiusSq float64) []int64 {
	n := to - from
	if n <= 0 {
		return nil
	}
	best := make([]int64, n)
	found := false
	bestSq := radiusSq

	x := make([]int64, n) // current coefficients (local indices)
	x0 := make([]int64, n)
	off := make([]int64, n) // current offset from x0 in zig-zag order
	dir := make([]int64, n) // first zig-zag direction (±1)
	centers := make([]float64, n)
	partial := make([]float64, n+1) // partial squared norms from level k..n-1

	// c_k = -sum_{j>k} x_j mu[from+j][from+k]
	computeCenter := func(k int) float64 {
		c := 0.0
		for j := k + 1; j < n; j++ {
			c -= float64(x[j]) * mu[from+j][from+k]
		}
		return c
	}

	enterLevel := func(k int) {
		centers[k] = computeCenter(k)
		x0[k] = int64(math.Round(centers[k]))
		off[k] = 0
		if centers[k] >= float64(x0[k]) {
			dir[k] = 1
		} else {
			dir[k] = -1
		}
		x[k] = x0[k]
	}

	// advance moves x[k] to the next candidate in order of increasing
	// distance from the center: x0, x0+δ, x0−δ, x0+2δ, x0−2δ, …
	advance := func(k int) {
		o, d := off[k], dir[k]
		switch {
		case o == 0:
			o = d
		case (o > 0) == (d > 0):
			o = -o
		default:
			o = -o + d
		}
		off[k] = o
		x[k] = x0[k] + o
	}

	k := n - 1
	enterLevel(k)
	for {
		d := float64(x[k]) - centers[k]
		newPartial := partial[k+1] + d*d*B[from+k]
		if newPartial < bestSq {
			if k == 0 {
				zero := true
				for _, v := range x {
					if v != 0 {
						zero = false
						break
					}
				}
				if !zero {
					bestSq = newPartial
					copy(best, x)
					found = true
				}
				advance(0)
				continue
			}
			partial[k] = newPartial
			k--
			enterLevel(k)
			continue
		}
		// The candidates at this level are exhausted (distance from the
		// center is monotone in the zig-zag order): backtrack.
		k++
		if k >= n {
			break
		}
		advance(k)
	}
	if !found {
		return nil
	}
	return best
}

// ShortestVector returns the exact shortest nonzero lattice vector (by
// enumeration after LLL). Intended for dimensions up to ~40.
func ShortestVector(b *Basis) ([]*big.Int, error) {
	work := b.Clone()
	if err := LLL(work, 0); err != nil {
		return nil, err
	}
	mu, B, err := gsoFloat(work)
	if err != nil {
		return nil, err
	}
	n := work.NumRows()
	// Initial radius: the first reduced vector (plus slack for float error).
	radius := B[0] * 1.0001
	coeffs := enumerate(mu, B, 0, n, radius)
	if coeffs == nil {
		// The first basis vector is already shortest.
		return work.Row(0), nil
	}
	return combineRows(work, coeffs, 0), nil
}

// combineRows returns sum_i coeffs[i] * row[from+i].
func combineRows(b *Basis, coeffs []int64, from int) []*big.Int {
	out := make([]*big.Int, b.NumCols())
	for j := range out {
		out[j] = new(big.Int)
	}
	tmp := new(big.Int)
	for i, c := range coeffs {
		if c == 0 {
			continue
		}
		bc := big.NewInt(c)
		for j := range out {
			tmp.Mul(bc, b.At(from+i, j))
			out[j].Add(out[j], tmp)
		}
	}
	return out
}

// BKZ runs block-Korkine-Zolotarev reduction with the given block size for
// the given number of tours (passes over the basis). Block size 2 is
// (essentially) LLL; larger blocks find shorter vectors. The implementation
// follows Schnorr-Euchner: enumerate each projected block, insert any
// improvement, and re-run LLL.
func BKZ(b *Basis, blockSize, tours int) error {
	n := b.NumRows()
	if blockSize < 2 {
		return fmt.Errorf("lattice: BKZ block size %d must be >= 2", blockSize)
	}
	if tours < 1 {
		return fmt.Errorf("lattice: BKZ needs at least 1 tour")
	}
	if err := LLL(b, 0); err != nil {
		return err
	}
	for tour := 0; tour < tours; tour++ {
		improved := false
		for j := 0; j < n-1; j++ {
			kEnd := j + blockSize
			if kEnd > n {
				kEnd = n
			}
			mu, B, err := gsoFloat(b)
			if err != nil {
				return err
			}
			radius := B[j] * 0.9999 // only accept strict improvements
			coeffs := enumerate(mu, B, j, kEnd, radius)
			if coeffs == nil {
				continue
			}
			// A shorter vector for the projected block exists; insert it at
			// position j and re-reduce to remove the linear dependence.
			v := combineRows(b, coeffs, j)
			if err := insertVector(b, v, j); err != nil {
				return err
			}
			if err := LLL(b, 0); err != nil {
				return err
			}
			improved = true
		}
		if !improved {
			break
		}
	}
	return nil
}

// insertVector places v as row j, shifting others down, then removes the
// resulting linear dependence by running the MLLL-style cleanup: we simply
// rebuild a basis of the same lattice from the n+1 generators using LLL on
// an extended matrix and dropping the zero row.
func insertVector(b *Basis, v []*big.Int, j int) error {
	n := b.NumRows()
	cols := b.NumCols()
	ext := NewBasisZero(n+1, cols)
	row := 0
	for i := 0; i < n+1; i++ {
		switch {
		case i == j:
			for c := 0; c < cols; c++ {
				ext.Set(i, c, v[c])
			}
		default:
			for c := 0; c < cols; c++ {
				ext.Set(i, c, b.At(row, c))
			}
			row++
		}
	}
	reduced, err := removeDependence(ext)
	if err != nil {
		return err
	}
	if reduced.NumRows() != n {
		return fmt.Errorf("lattice: insertion produced %d independent rows, want %d", reduced.NumRows(), n)
	}
	b.rows = reduced.rows
	return nil
}

// removeDependence reduces a generating set with one linear dependence to a
// proper basis: run exact GSO; when a zero GSO vector appears the
// corresponding row is an integer combination of earlier ones after LLL
// size-reduction, so LLL will drive it to the zero vector, which we drop.
func removeDependence(gens *Basis) (*Basis, error) {
	// LLL tolerant of dependence: we run the standard loop but treat a
	// zero row as removable.
	// Simplest correct approach: iterate LLL-like passes with exact GSO on
	// the nonzero prefix; the textbook trick is to run LLL on generators —
	// implemented here by catching the dependence error and eliminating.
	work := gens.Clone()
	for {
		if err := LLL(work, 0); err == nil {
			return work, nil
		}
		// Dependence: find a zero row (LLL reduces dependent rows toward
		// zero) or eliminate via exact elimination.
		removed := false
		for i := 0; i < work.NumRows(); i++ {
			if work.NormSq(i).Sign() == 0 {
				work.rows = append(work.rows[:i], work.rows[i+1:]...)
				removed = true
				break
			}
		}
		if !removed {
			// LLL failed before producing a zero row; fall back to exact
			// elimination of the dependence via Hermite-style reduction.
			var err2 error
			work, err2 = hermiteEliminate(work)
			if err2 != nil {
				return nil, err2
			}
		}
	}
}

// hermiteEliminate performs integer row reduction (HNF-flavoured) to drop
// one linearly dependent row from a generating set.
func hermiteEliminate(gens *Basis) (*Basis, error) {
	work := gens.Clone()
	rows := work.NumRows()
	cols := work.NumCols()
	rank := 0
	for c := 0; c < cols && rank < rows; c++ {
		// Reduce column c below row `rank` to zero by gcd steps.
		for {
			// Find the row (>= rank) with the smallest nonzero |entry|.
			pivot := -1
			for r := rank; r < rows; r++ {
				if work.At(r, c).Sign() == 0 {
					continue
				}
				if pivot < 0 {
					pivot = r
					continue
				}
				a := new(big.Int).Abs(work.At(r, c))
				p := new(big.Int).Abs(work.At(pivot, c))
				if a.Cmp(p) < 0 {
					pivot = r
				}
			}
			if pivot < 0 {
				break // column all zero below rank
			}
			work.swapRows(rank, pivot)
			done := true
			for r := rank + 1; r < rows; r++ {
				if work.At(r, c).Sign() == 0 {
					continue
				}
				q := new(big.Int).Quo(work.At(r, c), work.At(rank, c))
				work.subScaledRow(r, rank, q)
				if work.At(r, c).Sign() != 0 {
					done = false
				}
			}
			if done {
				rank++
				break
			}
		}
	}
	// Drop zero rows.
	var out [][]*big.Int
	for i := 0; i < rows; i++ {
		if work.NormSq(i).Sign() != 0 {
			out = append(out, work.rows[i])
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lattice: all generators were zero")
	}
	return &Basis{rows: out}, nil
}
