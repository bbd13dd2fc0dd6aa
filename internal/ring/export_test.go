package ring

import (
	"math/big"

	"reveal/internal/modular"
)

// Test accessors and helpers: scalar operations, norms, equality and the
// ladder constructors that only tests use. The programs build contexts
// through NewContext and LadderParams.

// AddScalar sets out = a + s (s added to the constant coefficient if in
// coefficient domain; to every slot if in NTT domain the caller is
// responsible for meaning). Here it adds s to every residue of coefficient
// 0 in coefficient representation.
func (c *Context) AddScalar(a *Poly, s uint64, out *Poly) {
	out.Copy(a)
	for j, q := range c.Moduli {
		out.Coeffs[j][0] = modular.Add(out.Coeffs[j][0], s%q, q)
	}
}

// InfNormCentered returns the infinity norm of p using the centered
// representation with respect to the full modulus Q. Only meaningful in
// coefficient representation; for multi-prime chains the coefficient is
// CRT-composed first.
func (c *Context) InfNormCentered(p *Poly) uint64 {
	if p.InNTT {
		panic("ring: InfNormCentered requires coefficient representation")
	}
	if len(c.Moduli) == 1 {
		q := c.Moduli[0]
		var max uint64
		for _, x := range p.Coeffs[0] {
			v := modular.CenteredRep(x, q)
			if v < 0 {
				v = -v
			}
			if uint64(v) > max {
				max = uint64(v)
			}
		}
		return max
	}
	half := c.BigQ()
	half.Rsh(half, 1)
	var max uint64
	v := new(big.Int)
	for i := 0; i < c.N; i++ {
		c.ComposeCRT(v, p, i)
		if v.Cmp(half) > 0 {
			v.Sub(c.bigQ, v)
		}
		if v.IsUint64() && v.Uint64() > max {
			max = v.Uint64()
		} else if !v.IsUint64() {
			max = ^uint64(0)
		}
	}
	return max
}

// MulScalar sets out = s * a for a scalar s (reduced per modulus).
func (c *Context) MulScalar(a *Poly, s uint64, out *Poly) {
	for j, q := range c.Moduli {
		sj := s % q
		for i, x := range a.Coeffs[j] {
			out.Coeffs[j][i] = modular.Mul(x, sj, q)
		}
	}
	out.InNTT = a.InNTT
}

// Copy overwrites p with the contents of src (same context required).
func (p *Poly) Copy(src *Poly) {
	for j := range p.Coeffs {
		copy(p.Coeffs[j], src.Coeffs[j])
	}
	p.InNTT = src.InNTT
}

// Equal reports whether p and other hold identical representations.
func (p *Poly) Equal(other *Poly) bool {
	if p.InNTT != other.InNTT || len(p.Coeffs) != len(other.Coeffs) {
		return false
	}
	for j := range p.Coeffs {
		if len(p.Coeffs[j]) != len(other.Coeffs[j]) {
			return false
		}
		for i := range p.Coeffs[j] {
			if p.Coeffs[j][i] != other.Coeffs[j][i] {
				return false
			}
		}
	}
	return true
}

// ParamsN1024 returns the paper's legacy configuration: n=1024 with the
// single 27-bit prime 132120577.
func ParamsN1024() *Parameters { return mustLadder(1024) }

// ParamsN2048 returns the SEAL default for n=2048: one 54-bit prime.
func ParamsN2048() *Parameters { return mustLadder(2048) }

// ParamsN4096 returns the SEAL default for n=4096: a 36+36+37-bit chain.
func ParamsN4096() *Parameters { return mustLadder(4096) }

// ParamsN8192 returns the SEAL default for n=8192: a 43+43+44+44+44-bit
// chain.
func ParamsN8192() *Parameters { return mustLadder(8192) }

// mustLadder panics on a ladder generation failure; the ladder entries are
// static configurations, so failure is a programming error.
func mustLadder(n int) *Parameters {
	p, err := LadderParams(n)
	if err != nil {
		panic(err)
	}
	return p
}
