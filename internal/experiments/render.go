package experiments

import (
	"fmt"
	"strings"
)

// table is one of EXPERIMENTS.md's measured tables: the "## " heading of
// the section it sits in, then its header row and body rows.
type table struct {
	heading string
	rows    [][]string
}

// lines renders t as markdown table lines.
func (t table) lines() []string {
	out := make([]string, 0, len(t.rows)+1)
	for i, r := range t.rows {
		out = append(out, "| "+strings.Join(r, " | ")+" |")
		if i == 0 {
			out = append(out, strings.Repeat("|---", len(r))+"|")
		}
	}
	return out
}

// Render lays results out as EXPERIMENTS.md's measured tables, each under
// its section heading and separated by a blank line.
func Render(results []Result) string {
	var b strings.Builder
	for i, t := range tables(results) {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.heading + "\n\n")
		for _, l := range t.lines() {
			b.WriteString(l + "\n")
		}
	}
	return b.String()
}

// tables builds every measured table from results. A claim missing from
// results reads as zeros.
func tables(results []Result) []table {
	byID := map[string]Result{}
	for _, r := range results {
		byID[r.Claim.ID] = r
	}
	v := func(id, name string) float64 { return byID[id].Values[name] }
	pct := func(id string, names ...string) string {
		cells := make([]string, len(names))
		for i, n := range names {
			cells[i] = fmt.Sprintf("%.2f%%", 100*v(id, n))
		}
		return strings.Join(cells, " / ")
	}
	f := func(format, id, name string) string { return fmt.Sprintf(format, v(id, name)) }
	paper := func(id string) string { return byID[id].Claim.Paper }
	bikzRows := func(ideal, attacked string, rows [][3]string) [][]string {
		out := make([][]string, len(rows))
		for i, r := range rows {
			out[i] = []string{r[0], r[1], f("%.2f", ideal, r[2]), f("%.2f", attacked, r[2])}
		}
		return out
	}

	t3 := table{"## Table III — cost of the attack with/without hints (SEAL-128)", append([][]string{
		{"row", "paper", "measured (ideal hints)", "measured (attacked hints)"},
	}, bikzRows("table3-ideal", "table3-attacked", [][3]string{
		{"without hints (bikz)", "382.25", "baseline_bikz"},
		{"with hints (bikz)", "12.2", "hinted_bikz"},
		{"without hints (bits)", "128", "baseline_bits"},
		{"with hints (bits)", "4.4", "hinted_bits"},
	})...)}
	t4 := table{"## Table IV — branch-only adversary (SEAL-128)", append(append([][]string{
		{"row", "paper", "measured (ideal hints)", "measured (attacked hints)"},
	}, bikzRows("table4-ideal", "table4-attacked", [][3]string{
		{"without hints (bikz)", "382.25", "baseline_bikz"},
		{"with hints (bikz)", "253.29", "hinted_bikz"},
		{"with hints & guesses (bikz)", "252.83", "guess_bikz"},
	})...), [][]string{
		{"number of guesses", "1", "1", "1"},
		{"success probability", "20%", pct("table4-ideal", "guess_success"), pct("table4-attacked", "guess_success")},
	}...)}

	claims := table{"## Claims and their shape predicates", [][]string{{"claim", "paper", "shape predicates", "holds"}}}
	for _, r := range results {
		shapes := make([]string, len(r.Claim.Shapes))
		for i, s := range r.Claim.Shapes {
			shapes[i] = s.Text
		}
		holds := "yes"
		if len(r.Failed) > 0 {
			holds = "**no**: " + strings.Join(r.Failed, "; ")
		}
		claims.rows = append(claims.rows, []string{"`" + r.Claim.ID + "`", r.Claim.Paper, strings.Join(shapes, "; "), holds})
	}

	return []table{
		{"## Table I — template-attack success percentages", [][]string{
			{"quantity", "paper", "measured (default device)"},
			{"sign recovery", "100%", pct("table1", "sign_acc")},
			{"zero recovery", "100%", pct("table1", "zero_acc")},
			{"negative diag. (−1..−7 avg)", "≈ 70% (95.7, 92.5, 60.7, 91, 54.9, 54.2, 41.2)", pct("table1", "neg_acc")},
			{"positive diag. (1..7 avg)", "≈ 22% (31.8 … 16)", pct("table1", "pos_acc")},
			{"all values", "—", pct("table1", "value_acc")},
			{"coefficients attacked", "25,000 measurements", f("%.0f", "table1", "coefficients")},
		}},
		{"## Table II — guessing probabilities of selected measurements", [][]string{
			{"quantity", "paper", "measured (low-noise device)"},
			{"posterior on the true value, mean over secrets −2..2", "≈ 1 (up to float precision, e.g. 1 − 2.7·10⁻¹⁰)", f("%.6f", "table2", "mean_truth_posterior")},
			{"posterior on the true value, smallest row", "≈ 1", f("%.6f", "table2", "min_truth_posterior")},
			{"centered column, largest distance to the secret", "0 (equals the secret)", f("%.2g", "table2", "max_centered_error")},
			{"variance column, largest", "≈ 0 (e.g. 2.7·10⁻¹⁰)", f("%.2g", "table2", "max_variance")},
		}},
		t3,
		t4,
		{"## Fig. 3 — trace portion and branch sub-traces", [][]string{
			{"quantity", "paper", "measured (default device)"},
			{"peaks over 3 samplings + sentinel", "one per sampling", f("%.0f", "fig3", "peaks")},
			{"trace portion (samples)", "—", f("%.0f", "fig3", "samples")},
			{"branch sub-traces, noise > 0 / < 0 / = 0 (samples)", "one per branch", fmt.Sprintf("%.0f / %.0f / %.0f",
				v("fig3", "positive_len"), v("fig3", "negative_len"), v("fig3", "zero_len"))},
			{"branch sub-trace pairs that differ", "all (V1 is visible)", f("%.0f of 3", "fig3", "distinct_branch_pairs")},
			{"segment length over 255 samplings, min / mean / max", "time-variant (§III-C)", fmt.Sprintf("%.0f / %.1f / %.0f",
				v("timing", "min"), v("timing", "mean"), v("timing", "max"))},
			{"distinct segment lengths", "—", f("%.0f", "timing", "distinct")},
		}},
		{"## Headline result — single-trace plaintext recovery", [][]string{
			{"quantity", "paper", "measured (low-noise device)"},
			{"plaintexts recovered bit for bit, one trace each", "security ≈ 2^4.4 (estimated)", fmt.Sprintf("%.0f of %.0f",
				v("headline", "recovered"), v("headline", "messages"))},
			{"e2 value accuracy per message", "—", pct("headline", "value_acc_0", "value_acc_1")},
			{"verification trials per message", "—", fmt.Sprintf("%.0f / %.0f", v("headline", "trials_0"), v("headline", "trials_1"))},
		}},
		{"## Ablations (DESIGN.md §5)", [][]string{
			{"ablation", "paper", "measured"},
			{"V2-only vs V2+V3", "the negation (V3) disambiguates Hamming-weight collisions (§IV-B)",
				"positives " + pct("table1", "pos_acc") + " vs negatives " + pct("table1", "neg_acc")},
			{"POIs 4 / 12 / 28", paper("ablation-poi"), pct("ablation-poi", "poi4_acc", "poi12_acc", "poi28_acc")},
			{"noise σ 0.002 / 0.015 / 0.05", paper("ablation-noise"),
				"values " + pct("ablation-noise", "acc_0.002", "acc_0.015", "acc_0.05") +
					"; signs " + pct("ablation-noise", "sign_acc_0.002", "sign_acc_0.015", "sign_acc_0.05")},
			{"shuffling countermeasure", paper("ablation-shuffling"),
				"positional " + pct("ablation-shuffling", "positional_acc") + " vs multiset " + pct("ablation-shuffling", "multiset_acc")},
			{"SEAL v3.6-style branch-free kernel", paper("ablation-patched"),
				"sign accuracy " + pct("ablation-patched", "sign_acc") + f(" (%.0f of 1 traces segmented)", "ablation-patched", "segmented")},
		}},
		{"## Extensions beyond the paper's evaluation", [][]string{
			{"experiment", "paper's claim", "measured"},
			{"parameter sweep (n = 1024…32768)", paper("sweep"), fmt.Sprintf("full hints %.2f → %.2f bikz; sign hints %.2f → %.2f bikz",
				v("sweep", sweepKey("full", 1024)), v("sweep", sweepKey("full", 32768)),
				v("sweep", sweepKey("sign", 1024)), v("sweep", sweepKey("sign", 32768)))},
			{"decryption-side multi-trace CPA", paper("decryption-cpa"), "key recovery " + pct("decryption-cpa", "key_recovery") + " from 150 traces"},
			{"cross-device portability", paper("cross-device"),
				"value accuracy same-device " + pct("cross-device", "same_value_acc") + " vs sibling " + pct("cross-device", "cross_value_acc")},
			{"TVLA leakage assessment", paper("tvla"), fmt.Sprintf("max \\|t\\| %.2f vulnerable, %.2f branch-free (threshold 4.5)",
				v("tvla", "max_t"), v("tvla", "max_t_branchless"))},
			{"masking study", paper("masking"),
				"masked kernel: sign " + pct("masking", "sign_acc") + " vs value " + pct("masking", "value_acc")},
			{"second-order TVLA of the masked kernel", paper("second-order"), fmt.Sprintf("max \\|t\\| %.2f first-order, %.2f second-order",
				v("second-order", "first_order_max_t"), v("second-order", "second_order_max_t"))},
			{"learning curve (10 / 40 / 120 traces per value)", paper("profiling-size"),
				"value accuracy " + pct("profiling-size", "acc_10", "acc_40", "acc_120")},
		}},
		claims,
	}
}
