package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"testing"

	"reveal/internal/dbdd"
	"reveal/internal/obs"
)

// posteriorOf is the dense form of a posterior table in map form.
func posteriorOf(m map[int]float64) Posterior {
	labels := make([]int, 0, len(m))
	for v := range m {
		labels = append(labels, v)
	}
	sort.Ints(labels)
	p := make([]float64, len(labels))
	for k, v := range labels {
		p[k] = m[v]
	}
	return Posterior{Labels: labels, P: p}
}

// posteriorMap is the map form of a dense posterior table.
func posteriorMap(p Posterior) map[int]float64 {
	m := make(map[int]float64, len(p.Labels))
	for k, v := range p.Labels {
		m[v] = p.P[k]
	}
	return m
}

// oracleDigest is the digest as encoding/json computed it before tables
// had a direct writer: the result marshaled with every table in map form.
func oracleDigest(r *AttackResult) (string, error) {
	var probs []map[int]float64
	if r.Probs != nil {
		probs = make([]map[int]float64, len(r.Probs))
		for i, p := range r.Probs {
			probs[i] = posteriorMap(p)
		}
	}
	data, err := json.Marshal(struct {
		Values []int             `json:"values"`
		Signs  []int             `json:"signs"`
		Probs  []map[int]float64 `json:"probs"`
	}{r.Values, r.Signs, probs})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// digestInput decodes fuzz bytes into a result around post. The two low
// base-3 digits of shape pick, for the values and signs and for the
// tables, nil, empty or filled; filled tables repeat post, so its key
// order is reused, around an empty table, which needs its own.
func digestInput(data []byte, post Posterior, lo int64, shape uint64) *AttackResult {
	r := &AttackResult{}
	switch shape % 3 {
	case 1:
		r.Values, r.Signs = []int{}, []int{}
	case 2:
		r.Values, r.Signs = []int{int(lo)}, []int{int(lo % 2)}
		for _, b := range data[:min(len(data), 32)] {
			r.Values = append(r.Values, int(int8(b)))
			r.Signs = append(r.Signs, int(b%3)-1)
		}
	}
	switch shape / 3 % 3 {
	case 1:
		r.Probs = []Posterior{}
	case 2:
		r.Probs = []Posterior{post, post, {}, post}
	}
	return r
}

// The oracles below are the map-form posterior consumers that ran in
// production before posteriors went dense: dbdd.HintFromProbabilities with
// its label-window walk, obs.PosteriorStats' entropy and rank with its
// per-call key sort, and the top-two margin over map iteration order.
// FuzzDensePosterior holds the dense functions to them bit for bit.

// oracleWindow is the label span oracleLabelWindow files directly.
const oracleWindow = 128

// oracleLabelWindow walks a map in ascending label order without sorting:
// each entry is filed under its label modulo oracleWindow, which is
// collision-free when all labels lie within oracleWindow consecutive
// values; wider tables fall back to scanning the map for each successor.
type oracleLabelWindow struct {
	lo, hi int
	p      [oracleWindow]float64
	has    [oracleWindow]bool
}

func (w *oracleLabelWindow) fill(probs map[int]float64) {
	w.lo, w.hi = math.MaxInt, math.MinInt
	for v, p := range probs {
		w.p[v&(oracleWindow-1)], w.has[v&(oracleWindow-1)] = p, true
		w.lo, w.hi = min(w.lo, v), max(w.hi, v)
	}
}

func (w *oracleLabelWindow) ascending(probs map[int]float64, fn func(v int, p float64)) {
	if len(probs) == 0 {
		return
	}
	if uint64(w.hi)-uint64(w.lo) < oracleWindow {
		for v := w.lo; ; v++ {
			if i := v & (oracleWindow - 1); w.has[i] {
				fn(v, w.p[i])
			}
			if v == w.hi {
				return
			}
		}
	}
	for v := w.lo; ; {
		fn(v, probs[v])
		if v == w.hi {
			return
		}
		next := w.hi
		for l := range probs {
			if l > v && l < next {
				next = l
			}
		}
		v = next
	}
}

func oracleHint(probs map[int]float64) dbdd.CoefficientHint {
	var w oracleLabelWindow
	w.fill(probs)
	var mean, total float64
	w.ascending(probs, func(v int, p float64) {
		mean += float64(v) * p
		total += p
	})
	if total > 0 {
		mean /= total
	}
	var variance float64
	w.ascending(probs, func(v int, p float64) {
		d := float64(v) - mean
		variance += p * d * d
	})
	if total > 0 {
		variance /= total
	}
	return dbdd.CoefficientHint{Mean: mean, Variance: variance}
}

func oraclePosteriorStats(probs map[int]float64, trueValue int) (entropyBits float64, rank int) {
	keys := make([]int, 0, len(probs))
	for k := range probs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	pTrue, hasTrue := probs[trueValue]
	rank = 1
	for _, k := range keys {
		p := probs[k]
		if p > 0 {
			entropyBits -= p * math.Log2(p)
		}
		if hasTrue && p > pTrue {
			rank++
		}
	}
	if !hasTrue {
		rank = len(probs) + 1
	}
	return entropyBits, rank
}

func oracleTopMargin(probs map[int]float64) (margin float64, ok bool) {
	if len(probs) == 0 {
		return 0, false
	}
	var top1, top2 float64
	for _, p := range probs {
		if p > top1 {
			top1, top2 = p, top1
		} else if p > top2 {
			top2 = p
		}
	}
	return top1 - top2, true
}

// densePosterior decodes fuzz bytes into an ascending label set starting
// at lo and its probabilities: each byte pair is a label step of 1–256
// (so tables often span more than the oracle's 128-label window) and a
// probability drawn from zeros of both signs, subnormals, NaN, infinities,
// negatives, values at both bounds of JSON's exponent form and ordinary
// values. Tables stop at 64 labels (the attack's
// have 29): the oracle's wide-table walk is quadratic.
func densePosterior(data []byte, lo int64) Posterior {
	post := Posterior{Labels: []int{}, P: []float64{}}
	v := int(lo)
	for i := 0; i+1 < min(len(data), 128); i += 2 {
		if len(post.Labels) > 0 {
			next := v + 1 + int(data[i])
			if next < v {
				break // past the top of int
			}
			v = next
		}
		b := data[i+1]
		var p float64
		switch b % 8 {
		case 0:
			p = 0
		case 1:
			p = math.Copysign(0, -1)
		case 2:
			p = math.Float64frombits(uint64(b) << 40) // subnormal
		case 3:
			p = math.NaN()
		case 4:
			p = math.Inf(1 - 2*int(b>>7))
		case 5:
			p = -float64(b) / 255
		case 6:
			// Around JSON's exponent-form bounds: 1e-7 down to 4e-10
			// (e-07 is written e-7), or 6.7e20 up to 1.27e21.
			p = float64(b) / 255 * 1e-7
			if b>>7 == 1 {
				p = float64(b) * 5e18
			}
		default:
			p = float64(b) / 255
		}
		post.Labels = append(post.Labels, v)
		post.P = append(post.P, p)
	}
	return post
}

// sameBits reports Float64bits equality, except that any NaN matches any
// NaN: Go leaves NaN payloads unspecified, and two code shapes may order
// the operands of one commutative operation differently, so a NaN result
// can carry either input's payload.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// FuzzDensePosterior: every dense posterior consumer equals its map-form
// oracle to the bit — hint mean and variance, journal margin, entropy and
// rank, campaign margin — and a dense table's JSON is byte-identical to
// its map's, alone, in a slice and indented, and decodes back to the bit.
// A result's digest equals the SHA-256 of its encoding/json form with nil,
// empty and filled values, signs and tables.
func FuzzDensePosterior(f *testing.F) {
	f.Add([]byte{0, 200, 0, 100, 0, 50}, int64(-1), int64(0), false)
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7}, int64(-3), int64(0), false)
	f.Add([]byte{90, 255, 90, 128, 90, 64}, int64(-100), int64(80), true)
	f.Add([]byte{255, 9, 255, 17, 0, 130}, int64(math.MaxInt64-300), int64(7), true)
	f.Add([]byte{0, 254}, int64(math.MinInt64), int64(math.MinInt64), false)
	f.Add([]byte{}, int64(0), int64(0), false)
	f.Add([]byte{0, 6, 0, 14, 3, 126, 0, 198, 9, 254, 0, 7}, int64(-2), int64(3), true)
	f.Fuzz(func(t *testing.T, data []byte, lo, sel int64, member bool) {
		post := densePosterior(data, lo)
		m := posteriorMap(post)
		if len(m) != len(post.Labels) {
			t.Fatalf("labels %v are not strictly ascending", post.Labels)
		}
		trueValue := int(sel)
		if member && len(post.Labels) > 0 {
			trueValue = post.Labels[int(uint64(sel)%uint64(len(post.Labels)))]
		}

		got, want := dbdd.HintFromProbabilities(post.Labels, post.P), oracleHint(m)
		if !sameBits(got.Mean, want.Mean) || !sameBits(got.Variance, want.Variance) {
			t.Fatalf("hint %+v, oracle %+v", got, want)
		}
		gt, gok := obs.TopMargin(post.P)
		wt, wok := oracleTopMargin(m)
		if !sameBits(gt, wt) || gok != wok {
			t.Fatalf("top margin (%v, %v), oracle (%v, %v)", gt, gok, wt, wok)
		}
		gm, ge, gr := obs.PosteriorStats(post.Labels, post.P, trueValue)
		we, wr := oraclePosteriorStats(m, trueValue)
		if !sameBits(gm, wt) || !sameBits(ge, we) || gr != wr {
			t.Fatalf("stats (%v, %v, %d), oracle (%v, %v, %d)", gm, ge, gr, wt, we, wr)
		}
		if got, want := post.At(trueValue), m[trueValue]; !sameBits(got, want) {
			t.Fatalf("At(%d) = %v, map holds %v", trueValue, got, want)
		}

		gotJSON, gotErr := json.Marshal(post)
		wantJSON, wantErr := json.Marshal(m)
		if (gotErr == nil) != (wantErr == nil) || string(gotJSON) != string(wantJSON) {
			t.Fatalf("JSON %s (%v), map JSON %s (%v)", gotJSON, gotErr, wantJSON, wantErr)
		}
		for shape := uint64(0); shape < 9; shape++ {
			res := digestInput(data, post, lo, shape)
			got, gotErr := res.Digest()
			want, wantErr := oracleDigest(res)
			if (gotErr == nil) != (wantErr == nil) || got != want {
				t.Fatalf("shape %d: digest %.12s (%v), encoding/json digest %.12s (%v)", shape, got, gotErr, want, wantErr)
			}
		}
		if wantErr != nil {
			return // NaN and infinities have no JSON form
		}
		var back Posterior
		if err := json.Unmarshal(gotJSON, &back); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(back.Labels, post.Labels) || !slices.EqualFunc(back.P, post.P, sameBits) {
			t.Fatalf("JSON %s decoded to %+v, want %+v", gotJSON, back, post)
		}
		gotJSON, _ = json.MarshalIndent([]Posterior{post, post}, "", "  ")
		wantJSON, _ = json.MarshalIndent([]map[int]float64{m, m}, "", "  ")
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("indented JSON %s, map JSON %s", gotJSON, wantJSON)
		}
	})
}
