package main

import (
	"fmt"
	"io"
	"strings"

	"reveal/internal/experiments"
)

// claimRegistry is the set of claims `revealctl experiments` measures. The
// command's tests swap it for a registry whose shape fails.
var claimRegistry = experiments.Claims

// runExperiments implements `revealctl experiments`: it measures every
// claim, prints EXPERIMENTS.md's tables to stdout and fails when a shape
// predicate does not hold. It takes no flags: every claim fixes its own
// seeds.
func runExperiments(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		return fmt.Errorf("experiments takes no flags or arguments, got %q", args)
	}
	results, err := experiments.RunClaims(claimRegistry())
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, experiments.Render(results))
	var failed []string
	for _, r := range results {
		for _, f := range r.Failed {
			failed = append(failed, fmt.Sprintf("claim %s: %s", r.Claim.ID, f))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d shape predicates do not hold:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}
