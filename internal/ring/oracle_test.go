package ring

import "reveal/internal/modular"

// Oracle is the strict-reduction ring arithmetic the tests compare every
// Context operation against: each butterfly fully reduces into [0, q) and
// each pointwise product divides through the 128-bit intermediate. It is
// deliberately simple — the implementation every committed golden vector
// and the selftest digest were pinned on, and the one Context's lazy
// kernels must equal byte for byte. It shares only the twiddle tables with
// the Context it wraps (the math/big cross-checks pin those); NewPoly, the
// CRT helpers and the automorphism come from that Context unchanged.
type Oracle struct {
	*Context
}

// NewOracle returns the strict-reduction arithmetic over c's ring.
func NewOracle(c *Context) *Oracle { return &Oracle{c} }

// NTT runs the negacyclic Cooley-Tukey NTT (natural order in, bit-reversed
// twiddles, natural order out), the Longa-Naehrig layout.
func (o *Oracle) NTT(p *Poly) {
	if p.InNTT {
		return
	}
	for j, a := range p.Coeffs {
		tbl := &o.tables[j]
		n, q := len(a), tbl.q
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
					v := modular.MulShoup(a[k+t], w, wPre, q)
					a[k] = modular.Add(u, v, q)
					a[k+t] = modular.Sub(u, v, q)
				}
			}
		}
	}
	p.InNTT = true
}

// INTT runs the Gentleman-Sande inverse, including the 1/n scaling and the
// psi^-1 twist (negacyclic).
func (o *Oracle) INTT(p *Poly) {
	if !p.InNTT {
		return
	}
	for j, a := range p.Coeffs {
		tbl := &o.tables[j]
		n, q := len(a), tbl.q
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
					a[k] = modular.Add(u, v, q)
					a[k+t] = modular.MulShoup(modular.Sub(u, v, q), w, wPre, q)
				}
				j1 += 2 * t
			}
			t <<= 1
		}
		for k := 0; k < n; k++ {
			a[k] = modular.MulShoup(a[k], tbl.nInv, tbl.nInvPre, q)
		}
	}
	p.InNTT = false
}

// pointwise sets out = f(a, b) residue by residue.
func (o *Oracle) pointwise(a, b, out *Poly, f func(x, y, q uint64) uint64) {
	for j, q := range o.Moduli {
		for i := range out.Coeffs[j] {
			out.Coeffs[j][i] = f(a.Coeffs[j][i], b.Coeffs[j][i], q)
		}
	}
	out.InNTT = a.InNTT
}

// Add sets out = a + b.
func (o *Oracle) Add(a, b, out *Poly) {
	o.checkSameDomain("Add", a, b)
	o.pointwise(a, b, out, modular.Add)
}

// Sub sets out = a - b.
func (o *Oracle) Sub(a, b, out *Poly) {
	o.checkSameDomain("Sub", a, b)
	o.pointwise(a, b, out, modular.Sub)
}

// Neg sets out = -a.
func (o *Oracle) Neg(a, out *Poly) {
	o.pointwise(a, a, out, func(x, _, q uint64) uint64 { return modular.Neg(x, q) })
}

// MulCoeffwise sets out = a ⊙ b through the 128-bit divide.
func (o *Oracle) MulCoeffwise(a, b, out *Poly) {
	o.checkSameDomain("MulCoeffwise", a, b)
	o.pointwise(a, b, out, modular.Mul)
}

// MulPoly sets out = a * b in R_q via the oracle's own transforms, leaving
// a and b untouched; out ends in coefficient representation.
func (o *Oracle) MulPoly(a, b, out *Poly) {
	an, bn := a.Clone(), b.Clone()
	o.NTT(an)
	o.NTT(bn)
	o.MulCoeffwise(an, bn, out)
	o.INTT(out)
}
