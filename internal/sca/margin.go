package sca

// TopMargin returns P(top1) − P(top2) of one posterior probability table,
// given as its probabilities in any order — the per-measurement confidence
// signal the campaign results aggregate (mean margin drops before accuracy
// does). ok is false for an empty table, which contributes nothing to an
// aggregate.
func TopMargin(p []float64) (margin float64, ok bool) {
	if len(p) == 0 {
		return 0, false
	}
	var top1, top2 float64
	for _, q := range p {
		if q > top1 {
			top1, top2 = q, top1
		} else if q > top2 {
			top2 = q
		}
	}
	return top1 - top2, true
}
