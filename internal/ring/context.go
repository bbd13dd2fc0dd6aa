// Package ring implements the polynomial quotient ring R_q = Z_q[x]/(x^n+1)
// used by the BFV scheme: RNS (multi-prime) coefficient representation,
// negacyclic number-theoretic transforms, and the arithmetic the encryptor,
// decryptor and evaluator need. The coefficient layout follows SEAL:
// coefficient i of residue j lives at Coeffs[j][i].
//
// The kernels reduce lazily — a Harvey NTT whose butterflies keep residues
// in [0, 4q), Barrett pointwise products — and every value visible through
// a Poly is canonically reduced. The package tests compare each operation
// byte for byte against a strict-reduction oracle kept in its _test.go
// files, the implementation every golden vector was pinned on.
package ring

import (
	"fmt"
	"math/big"

	"reveal/internal/modular"
)

// Context holds precomputed state for R_q with a fixed degree n and a fixed
// chain of NTT-friendly prime moduli: per-modulus twiddle tables and
// Barrett constants, and the CRT reconstruction constants.
type Context struct {
	N       int      // polynomial degree, a power of two
	Moduli  []uint64 // coefficient modulus chain q_0 ... q_{k-1}
	tables  []nttTable
	barrett []modular.Barrett
	bigQ    *big.Int   // product of all moduli
	qiHat   []*big.Int // Q / q_i
	qiHatIn []uint64   // (Q/q_i)^-1 mod q_i
}

// NewContext validates the degree and moduli (see NewParameters) and builds
// a context. Each modulus must be prime, distinct, and ≡ 1 (mod 2n).
func NewContext(n int, moduli []uint64) (*Context, error) {
	params, err := NewParameters(n, moduli)
	if err != nil {
		return nil, err
	}
	ctx := &Context{
		N:      params.N,
		Moduli: params.Moduli,
		bigQ:   big.NewInt(1),
	}
	for _, q := range params.Moduli {
		tbl, err := newNTTTable(params.N, q)
		if err != nil {
			return nil, err
		}
		br, err := modular.NewBarrett(q)
		if err != nil {
			return nil, err
		}
		ctx.tables = append(ctx.tables, tbl)
		ctx.barrett = append(ctx.barrett, br)
		ctx.bigQ.Mul(ctx.bigQ, new(big.Int).SetUint64(q))
	}
	// CRT constants.
	for _, q := range params.Moduli {
		qi := new(big.Int).SetUint64(q)
		hat := new(big.Int).Quo(ctx.bigQ, qi)
		ctx.qiHat = append(ctx.qiHat, hat)
		hatMod := new(big.Int).Mod(hat, qi).Uint64()
		inv, ok := modular.Inverse(hatMod, q)
		if !ok {
			return nil, fmt.Errorf("ring: CRT constant not invertible mod %d", q)
		}
		ctx.qiHatIn = append(ctx.qiHatIn, inv)
	}
	return ctx, nil
}

// Level returns the number of moduli in the chain.
func (c *Context) Level() int { return len(c.Moduli) }

// BigQ returns the full coefficient modulus Q as a big integer (a copy).
func (c *Context) BigQ() *big.Int { return new(big.Int).Set(c.bigQ) }

// NewPoly allocates a zero polynomial in coefficient representation.
func (c *Context) NewPoly() *Poly {
	coeffs := make([][]uint64, len(c.Moduli))
	backing := make([]uint64, len(c.Moduli)*c.N)
	for j := range coeffs {
		coeffs[j], backing = backing[:c.N:c.N], backing[c.N:]
	}
	return &Poly{ctx: c, Coeffs: coeffs}
}

// NTT transforms p to the evaluation (NTT) domain in place.
func (c *Context) NTT(p *Poly) {
	if p.InNTT {
		return
	}
	for j := range p.Coeffs {
		c.tables[j].forward(p.Coeffs[j])
	}
	p.InNTT = true
}

// INTT transforms p back to the coefficient domain in place.
func (c *Context) INTT(p *Poly) {
	if !p.InNTT {
		return
	}
	for j := range p.Coeffs {
		c.tables[j].inverse(p.Coeffs[j])
	}
	p.InNTT = false
}

// ComposeCRT sets dst to coefficient i of p (which must be in coefficient
// representation) as an integer in [0, Q) and returns dst. A caller that
// reuses dst across coefficients allocates nothing under one modulus.
func (c *Context) ComposeCRT(dst *big.Int, p *Poly, i int) *big.Int {
	if len(c.Moduli) == 1 {
		// Q/q_0 = 1 and its inverse is 1: the value is the residue.
		return dst.SetUint64(p.Coeffs[0][i] % c.Moduli[0])
	}
	var term big.Int
	dst.SetUint64(0)
	for j, q := range c.Moduli {
		// dst += qiHat_j * ((x_j * qiHatInv_j) mod q_j)
		term.SetUint64(modular.Mul(p.Coeffs[j][i], c.qiHatIn[j], q))
		dst.Add(dst, term.Mul(&term, c.qiHat[j]))
	}
	return dst.Mod(dst, c.bigQ)
}

// SetCoeffBig sets coefficient i of p from a big integer (reduced mod each
// prime). p must be in coefficient representation.
func (c *Context) SetCoeffBig(p *Poly, i int, v *big.Int) {
	tmp := new(big.Int)
	for j, q := range c.Moduli {
		tmp.Mod(v, tmp.SetUint64(q))
		p.Coeffs[j][i] = tmp.Uint64()
	}
}
