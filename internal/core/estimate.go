package core

import (
	"fmt"

	"reveal/internal/bfv"
	"reveal/internal/dbdd"
	"reveal/internal/obs"
)

// LWEInstanceForParams builds the DBDD instance of the c1 = p1·u + e2
// equation: n ternary secret coordinates (u, variance 2/3) and n Gaussian
// error coordinates (e2, variance σ²), modulus q — the instance of
// Table III ("smallest parameter set of SEAL-128").
func LWEInstanceForParams(params *bfv.Parameters) (*dbdd.Instance, error) {
	if len(params.Moduli) != 1 {
		return nil, fmt.Errorf("core: the security estimate targets the single-modulus paper configuration")
	}
	return dbdd.NewLWEInstance(params.N, params.N, float64(params.Moduli[0]),
		2.0/3.0, params.Sigma*params.Sigma)
}

// errorCoord maps error-polynomial coefficient i to its DBDD coordinate
// (errors follow the n secret coordinates).
func errorCoord(params *bfv.Parameters, i int) int { return params.N + i }

// EstimateFullHints integrates the attack's per-coefficient probability
// tables (Table II) as perfect/approximate hints and reports the security
// loss — the "attack with hints" row of Table III.
func EstimateFullHints(params *bfv.Parameters, res *AttackResult) (*dbdd.SecurityLoss, error) {
	baseline, err := LWEInstanceForParams(params)
	if err != nil {
		return nil, err
	}
	if len(res.Probs) != params.N {
		return nil, fmt.Errorf("core: attack covered %d coefficients, want %d", len(res.Probs), params.N)
	}
	return dbdd.CompareWithHints(baseline, func(in *dbdd.Instance) error {
		sp := obs.StartSpan("hints")
		sp.AddItems(len(res.Probs))
		defer sp.End()
		for i, post := range res.Probs {
			h := dbdd.HintFromProbabilities(post.Labels, post.P)
			if err := in.IntegrateCoefficientHint(errorCoord(params, i), h); err != nil {
				return err
			}
		}
		return nil
	})
}

// EstimateSignOnly integrates only the branch information (sign and
// zero-ness) — the "only branch vulnerability" scenario of Table IV.
func EstimateSignOnly(params *bfv.Parameters, res *AttackResult) (*dbdd.SecurityLoss, error) {
	baseline, err := LWEInstanceForParams(params)
	if err != nil {
		return nil, err
	}
	if len(res.Signs) != params.N {
		return nil, fmt.Errorf("core: attack covered %d coefficients, want %d", len(res.Signs), params.N)
	}
	return dbdd.CompareWithHints(baseline, func(in *dbdd.Instance) error {
		sp := obs.StartSpan("hints")
		sp.AddItems(len(res.Signs))
		defer sp.End()
		for i, s := range res.Signs {
			if err := in.SignHint(errorCoord(params, i), s); err != nil {
				return err
			}
		}
		return nil
	})
}

// SignOnlyWithGuess reproduces the last three rows of Table IV: after the
// sign hints, the framework guesses the most confident remaining
// coordinate, reporting the new bikz and the guess's success probability.
func SignOnlyWithGuess(params *bfv.Parameters, res *AttackResult) (bikz float64, guess *dbdd.GuessResult, err error) {
	baseline, err := LWEInstanceForParams(params)
	if err != nil {
		return 0, nil, err
	}
	for i, s := range res.Signs {
		if err := baseline.SignHint(errorCoord(params, i), s); err != nil {
			return 0, nil, err
		}
	}
	// Guess among the measured error coordinates, as the framework does.
	guess, err = baseline.GuessBestCoordinateIn(params.N, 2*params.N)
	if err != nil {
		return 0, nil, err
	}
	bikz, err = baseline.EstimateBikz()
	if err != nil {
		return 0, nil, err
	}
	return bikz, guess, nil
}
