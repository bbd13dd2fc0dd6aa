package ring

import (
	"fmt"

	"reveal/internal/modular"
)

// Poly is an element of R_q in RNS representation: Coeffs[j][i] is the
// i-th coefficient modulo the j-th prime. InNTT marks the evaluation
// (NTT) domain.
type Poly struct {
	ctx    *Context
	Coeffs [][]uint64
	InNTT  bool
}

// Clone returns a deep copy of p.
func (p *Poly) Clone() *Poly {
	c := p.ctx.NewPoly()
	for j := range p.Coeffs {
		copy(c.Coeffs[j], p.Coeffs[j])
	}
	c.InNTT = p.InNTT
	return c
}

// Zero resets all coefficients to zero, staying in the current domain.
func (p *Poly) Zero() {
	for j := range p.Coeffs {
		for i := range p.Coeffs[j] {
			p.Coeffs[j][i] = 0
		}
	}
}

func (c *Context) checkSameDomain(op string, ps ...*Poly) {
	for _, p := range ps[1:] {
		if p.InNTT != ps[0].InNTT {
			panic(fmt.Sprintf("ring: %s: operands in different domains", op))
		}
	}
}

// Add sets out = a + b (component-wise, any domain, but both the same).
func (c *Context) Add(a, b, out *Poly) {
	c.checkSameDomain("Add", a, b)
	for j, q := range c.Moduli {
		aj, bj, oj := a.Coeffs[j], b.Coeffs[j], out.Coeffs[j]
		for i := range oj {
			oj[i] = modular.Add(aj[i], bj[i], q)
		}
	}
	out.InNTT = a.InNTT
}

// Sub sets out = a - b.
func (c *Context) Sub(a, b, out *Poly) {
	c.checkSameDomain("Sub", a, b)
	for j, q := range c.Moduli {
		aj, bj, oj := a.Coeffs[j], b.Coeffs[j], out.Coeffs[j]
		for i := range oj {
			oj[i] = modular.Sub(aj[i], bj[i], q)
		}
	}
	out.InNTT = a.InNTT
}

// Neg sets out = -a.
func (c *Context) Neg(a, out *Poly) {
	for j, q := range c.Moduli {
		aj, oj := a.Coeffs[j], out.Coeffs[j]
		for i := range oj {
			oj[i] = modular.Neg(aj[i], q)
		}
	}
	out.InNTT = a.InNTT
}

// MulCoeffwise sets out = a ⊙ b (component-wise product). For ring
// multiplication both operands must be in the NTT domain. The products go
// through each modulus's precomputed Barrett state, so the hot path has no
// hardware divide.
func (c *Context) MulCoeffwise(a, b, out *Poly) {
	c.checkSameDomain("MulCoeffwise", a, b)
	for j := range c.Moduli {
		br := &c.barrett[j]
		aj, bj, oj := a.Coeffs[j], b.Coeffs[j], out.Coeffs[j]
		for i := range oj {
			oj[i] = br.MulMod(aj[i], bj[i])
		}
	}
	out.InNTT = a.InNTT
}

// MulPoly sets out = a * b in R_q via NTT. Operands must be in coefficient
// representation; they are restored before returning. out ends in
// coefficient representation.
func (c *Context) MulPoly(a, b, out *Poly) {
	an := a.Clone()
	bn := b.Clone()
	c.NTT(an)
	c.NTT(bn)
	c.MulCoeffwise(an, bn, out)
	c.INTT(out)
}

// SetSigned fills p (coefficient domain) from centered signed coefficients;
// values[i] may be any int64 with |v| < min(q_j).
func (c *Context) SetSigned(p *Poly, values []int64) error {
	if len(values) != c.N {
		return fmt.Errorf("ring: got %d coefficients, want %d", len(values), c.N)
	}
	for j, q := range c.Moduli {
		for i, v := range values {
			p.Coeffs[j][i] = modular.FromCentered(v, q)
		}
	}
	p.InNTT = false
	return nil
}

// Automorphism sets out = p(x^g) in R_q for odd g (the Galois action
// underlying BFV slot rotations). Both polynomials must be in coefficient
// representation. Coefficient i of p lands at exponent i·g mod 2n, negated
// when the exponent wraps past n (x^n = -1).
func (c *Context) Automorphism(p *Poly, g uint64, out *Poly) error {
	if p.InNTT || out.InNTT {
		return fmt.Errorf("ring: Automorphism requires coefficient representation")
	}
	if g%2 == 0 {
		return fmt.Errorf("ring: Galois element %d must be odd", g)
	}
	if p == out {
		p = p.Clone()
	}
	twoN := uint64(2 * c.N)
	g %= twoN
	out.Zero()
	for j, q := range c.Moduli {
		pj, oj := p.Coeffs[j], out.Coeffs[j]
		for i := 0; i < c.N; i++ {
			e := (uint64(i) * g) % twoN
			v := pj[i]
			if e < uint64(c.N) {
				oj[e] = modular.Add(oj[e], v, q)
			} else {
				oj[e-uint64(c.N)] = modular.Sub(oj[e-uint64(c.N)], v, q)
			}
		}
	}
	out.InNTT = false
	return nil
}
