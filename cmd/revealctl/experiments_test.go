package main

import (
	"bytes"
	"strings"
	"testing"

	"reveal/internal/experiments"
)

func TestExperimentsPrintsTheRendering(t *testing.T) {
	var out bytes.Buffer
	if err := runExperiments(nil, &out); err != nil {
		t.Fatal(err)
	}
	results, err := experiments.RunClaims(experiments.Claims())
	if err != nil {
		t.Fatal(err)
	}
	if want := experiments.Render(results); out.String() != want {
		t.Fatalf("experiments printed\n%s\nwant the rendering\n%s", out.String(), want)
	}
}

func TestExperimentsFailsOnAFailedShape(t *testing.T) {
	saved := claimRegistry
	defer func() { claimRegistry = saved }()
	claimRegistry = func() []experiments.Claim {
		var fig3 experiments.Claim
		for _, c := range experiments.Claims() {
			if c.ID == "fig3" {
				fig3 = c
			}
		}
		fig3.Shapes = append(fig3.Shapes, experiments.Shape{
			Text: "forced to fail", Holds: func(experiments.Values) bool { return false },
		})
		return []experiments.Claim{fig3}
	}
	var out bytes.Buffer
	err := runExperiments(nil, &out)
	if err == nil || !strings.Contains(err.Error(), "claim fig3: forced to fail") {
		t.Fatalf("got %v, want the failed fig3 shape", err)
	}
	if !strings.Contains(out.String(), "**no**: forced to fail") {
		t.Errorf("the printed claims table does not show the failure:\n%s", out.String())
	}
}

func TestExperimentsTakesNoArguments(t *testing.T) {
	if err := runExperiments([]string{"table3"}, &bytes.Buffer{}); err == nil {
		t.Fatal("a positional argument was accepted")
	}
}
