package experiments

import (
	"slices"
	"strings"
	"testing"

	"reveal/internal/core"
	"reveal/internal/dbdd"
)

// smallConfig profiles at 30 traces per value, below the claims' 40, and
// attacks one encryption.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.ProfileTracesPerValue = 30
	cfg.AttackEncryptions = 1
	return cfg
}

// shapesHold fails t for each shape of claim id that v does not have: the
// tests below check that the paper's shapes hold beyond the claims' seeds
// and scales.
func shapesHold(t *testing.T, id string, v Values) {
	t.Helper()
	claims := Claims()
	i := slices.IndexFunc(claims, func(c Claim) bool { return c.ID == id })
	if i < 0 {
		t.Fatalf("no claim %q", id)
	}
	for _, s := range claims[i].Shapes {
		if !s.Holds(v) {
			t.Errorf("%s: shape does not hold: %s (measured %v)", id, s.Text, v)
		}
	}
}

func TestTables1Through4(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment pipeline")
	}
	s, err := NewSession(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	t1, err := s.RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	shapesHold(t, "table1", table1Values(t1))
	if !strings.Contains(FormatTable1(t1, -7, 7), "Table I") {
		t.Error("Table I formatting broken")
	}
	t4, err := signOnlyValues(s.Params, t1.LastOutcome.E2)
	if err != nil {
		t.Fatal(err)
	}
	shapesHold(t, "table4-attacked", t4)

	// Tables II and III need the measurement quality the paper reports
	// (posteriors ≈ 1, its Table II): the low-noise session.
	sLN, t1LN, err := firstAttack(true)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := table2Values(t1LN)
	if err != nil {
		t.Fatal(err)
	}
	shapesHold(t, "table2", t2)
	t3, err := core.EstimateFullHints(sLN.Params, t1LN.LastOutcome.E2)
	if err != nil {
		t.Fatal(err)
	}
	shapesHold(t, "table3-attacked", lossValues(t3))
	if t4["hinted_bikz"] <= t3.HintedBikz {
		t.Error("sign-only hints must leave more hardness than full hints")
	}
}

func TestFig3(t *testing.T) {
	v, err := fig3Values(77)
	if err != nil {
		t.Fatal(err)
	}
	shapesHold(t, "fig3", v)
	if v["samples"] == 0 || v["positive_len"] == 0 || v["zero_len"] == 0 {
		t.Fatalf("empty figure series: %v", v)
	}
	// Zero runs the shortest branch body: the negative sub-trace must not
	// fall far below it.
	if v["negative_len"] <= v["zero_len"]-12 {
		t.Error("negative branch sub-trace suspiciously short")
	}
}

func TestRunCrossDevice(t *testing.T) {
	v, err := crossDevice(smallConfig(), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	shapesHold(t, "cross-device", v)
}

func TestSecuritySweep(t *testing.T) {
	degrees := []int{1024, 2048, 4096}
	v, err := sweep(degrees, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 3*len(degrees) {
		t.Fatalf("values=%d want %d", len(v), 3*len(degrees))
	}
	for _, n := range degrees {
		full, sign, none := v[sweepKey("full", n)], v[sweepKey("sign", n)], v[sweepKey("none", n)]
		if full >= sign || sign >= none {
			t.Errorf("n=%d: want full (%.1f) < sign (%.1f) < no hints (%.1f)", n, full, sign, none)
		}
		// Full hints break every parameter set (the paper's "applicable to
		// all security levels" claim): error coordinates all eliminated.
		if bits := dbdd.BikzToBits(full); bits > 40 {
			t.Errorf("n=%d: full-hints security %.1f bits — not a break", n, bits)
		}
	}
}

func TestRunTimingVariance(t *testing.T) {
	res, err := RunTimingVariance(128, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lengths) != 127 {
		t.Fatalf("lengths=%d want 127", len(res.Lengths))
	}
	// §III-C: the duration must actually vary (rejection sampling).
	if res.DistinctN < 3 {
		t.Errorf("only %d distinct segment lengths — no time variance?", res.DistinctN)
	}
	if res.Min >= res.Max {
		t.Error("min/max wrong")
	}
	if res.Mean < float64(res.Min) || res.Mean > float64(res.Max) {
		t.Error("mean outside [min,max]")
	}
}
