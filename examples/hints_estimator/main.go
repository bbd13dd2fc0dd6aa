// Security estimation with the "LWE with side information" framework
// (Dachman-Soled et al., CRYPTO 2020): how much security SEAL-128 loses as
// side-channel hints accumulate — from nothing, through branch-only
// knowledge (Table IV), to the full per-coefficient hints (Table III).
package main

import (
	"fmt"
	"log"

	"reveal/internal/dbdd"
	"reveal/internal/experiments"
	"reveal/internal/sampler"
)

func main() {
	const (
		n     = 1024
		q     = 132120577
		sigma = 3.2
	)
	fmt.Printf("SEAL-128 smallest set: n=%d, q=%d, σ=%.1f\n\n", n, q, sigma)

	report := func(name string, in *dbdd.Instance) float64 {
		bikz, err := in.EstimateBikz()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-42s %8.2f bikz ≈ 2^%.1f\n", name, bikz, dbdd.BikzToBits(bikz))
		return bikz
	}
	// hinted integrates one ideal hint per coordinate of a simulated error
	// vector (what the device actually sampled): none, its sign or its value.
	hinted := func(hints string) *dbdd.Instance {
		in, err := experiments.IdealHints(n, q, sigma, hints, 42)
		if err != nil {
			log.Fatal(err)
		}
		return in
	}

	// 0. No side information.
	base := report("no hints (honest adversary)", hinted("none"))

	// 1. Branch-only: signs and zeroes (V1 alone, Table IV).
	signBikz := report("branch hints only (V1)", hinted("sign"))

	// 2. Partial value hints: half the coefficients known exactly.
	cn, err := sampler.NewClippedNormal(sigma, 12.8*sigma)
	if err != nil {
		log.Fatal(err)
	}
	errs, _ := cn.SamplePoly(sampler.NewXoshiro256(42), n)
	in := hinted("none")
	for i := 0; i < n/2; i++ {
		if err := in.PerfectHint(n+i, float64(errs[i])); err != nil {
			log.Fatal(err)
		}
	}
	report("half the coefficients known", in)

	// 3. Full hints (V1+V2+V3, Table III).
	fullBikz := report("all coefficients known (full attack)", hinted("full"))

	fmt.Printf("\nsecurity drop: %.2f -> %.2f bikz (signs) -> %.2f bikz (full)\n",
		base, signBikz, fullBikz)
	fmt.Println("paper:         382.25 -> 253.29 (signs) -> 12.2 (full)")
	fmt.Println("\nconclusion (matches the paper): signs alone cannot recover the")
	fmt.Println("message; combining the value and negation leakage breaks the scheme.")
}
