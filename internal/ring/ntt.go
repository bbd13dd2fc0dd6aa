package ring

import (
	"fmt"
	"math/bits"

	"reveal/internal/modular"
)

// nttTable holds one modulus's twiddle factors in bit-reversed order plus
// their Shoup preconditioners.
type nttTable struct {
	q           uint64
	psiPows     []uint64 // psi^bitrev(i), psi a primitive 2n-th root
	psiPowsPre  []uint64
	ipsiPows    []uint64 // psi^-bitrev(i)
	ipsiPowsPre []uint64
	nInv        uint64 // n^-1 mod q
	nInvPre     uint64
}

func newNTTTable(n int, q uint64) (nttTable, error) {
	psi, err := modular.MinimalPrimitiveNthRoot(uint64(2*n), q)
	if err != nil {
		return nttTable{}, err
	}
	psiInv, ok := modular.Inverse(psi, q)
	if !ok {
		return nttTable{}, fmt.Errorf("ring: psi not invertible mod %d", q)
	}
	nInv, ok := modular.Inverse(uint64(n), q)
	if !ok {
		return nttTable{}, fmt.Errorf("ring: n not invertible mod %d", q)
	}
	tbl := nttTable{
		q:           q,
		psiPows:     make([]uint64, n),
		psiPowsPre:  make([]uint64, n),
		ipsiPows:    make([]uint64, n),
		ipsiPowsPre: make([]uint64, n),
		nInv:        nInv,
		nInvPre:     modular.ShoupPrecon(nInv, q),
	}
	logN := bits.TrailingZeros(uint(n))
	cur, icur := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		r := BitReverse(uint32(i), logN)
		tbl.psiPows[r] = cur
		tbl.ipsiPows[r] = icur
		cur = modular.Mul(cur, psi, q)
		icur = modular.Mul(icur, psiInv, q)
	}
	for i := 0; i < n; i++ {
		tbl.psiPowsPre[i] = modular.ShoupPrecon(tbl.psiPows[i], q)
		tbl.ipsiPowsPre[i] = modular.ShoupPrecon(tbl.ipsiPows[i], q)
	}
	return tbl, nil
}

// BitReverse reverses the low `bits` bits of x — the index permutation the
// twiddle tables are stored in. It is exported for the table-layout
// property tests (bit reversal is an involution).
func BitReverse(x uint32, bits int) uint32 {
	var r uint32
	for i := 0; i < bits; i++ {
		r = (r << 1) | (x & 1)
		x >>= 1
	}
	return r
}

// forward is the negacyclic Cooley-Tukey NTT (natural order in,
// bit-reversed twiddles, natural order out — the Longa-Naehrig layout)
// with lazy reduction. Butterfly invariant: inputs < 4q, outputs < 4q
// (inputs arrive canonical, < q); with q < 2^61 the lazy sums stay below
// 2^63, so nothing overflows. A final pass reduces canonically, so the
// output equals the strict-reduction transform's bit for bit.
func (tbl *nttTable) forward(a []uint64) {
	n := len(a)
	q := tbl.q
	twoQ := 2 * q
	t := n
	for m := 1; m < n; m <<= 1 {
		t >>= 1
		for i := 0; i < m; i++ {
			j1 := 2 * i * t
			j2 := j1 + t
			w := tbl.psiPows[m+i]
			wPre := tbl.psiPowsPre[m+i]
			for k := j1; k < j2; k++ {
				u := a[k]
				if u >= twoQ {
					u -= twoQ
				}
				v := modular.MulShoupLazy(a[k+t], w, wPre, q)
				a[k] = u + v
				a[k+t] = u + twoQ - v
			}
		}
	}
	// Canonical reduction pass: values are < 4q here.
	for k := 0; k < n; k++ {
		x := a[k]
		if x >= twoQ {
			x -= twoQ
		}
		if x >= q {
			x -= q
		}
		a[k] = x
	}
}

// inverse is the lazy-reduction Gentleman-Sande inverse, including the
// psi^-1 twist and the 1/n scaling. Butterfly invariant: values < 2q; the
// final scaling reduces canonically.
func (tbl *nttTable) inverse(a []uint64) {
	n := len(a)
	q := tbl.q
	twoQ := 2 * q
	t := 1
	for m := n; m > 1; m >>= 1 {
		j1 := 0
		h := m >> 1
		for i := 0; i < h; i++ {
			j2 := j1 + t
			w := tbl.ipsiPows[h+i]
			wPre := tbl.ipsiPowsPre[h+i]
			for k := j1; k < j2; k++ {
				u := a[k]
				v := a[k+t]
				s := u + v
				if s >= twoQ {
					s -= twoQ
				}
				a[k] = s
				a[k+t] = modular.MulShoupLazy(u+twoQ-v, w, wPre, q)
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	// MulShoup accepts the lazy (< 2q) inputs and reduces canonically.
	for k := 0; k < n; k++ {
		a[k] = modular.MulShoup(a[k], tbl.nInv, tbl.nInvPre, q)
	}
}
