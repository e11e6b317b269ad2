package main

import (
	"math"
	"slices"
)

// quantileSorted is the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between closest ranks; NaN when empty.
func quantileSorted[T int64 | float64](s []T, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return float64(s[len(s)-1])
	}
	frac := pos - float64(lo)
	return float64(s[lo]) + frac*(float64(s[lo+1])-float64(s[lo]))
}

// median sorts a copy, so callers keep their order (reps stay in run
// order for the printed report).
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantileSorted(s, 0.5)
}

// tailLadder is the percentiles a report may quote, ascending.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie above a percentile before it is
// quoted: below that the "percentile" is a handful of outliers.
const minBeyond = 10

// supportedTail is the highest percentile of tailLadder with at least
// minBeyond of n samples beyond it; 0 when even the median has fewer.
func supportedTail(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= minBeyond-1e-9 { // 1-0.9999 is not exactly 1e-4
			best = q
		}
	}
	return best
}

// sample is one phase's value of a metric (at reference speed where the
// metric is CPU-bound, reference.go; raw is the value as measured), the
// phase's disturbance score (the clock ticks the hypervisor stole from it,
// phase.go) and the number of measurements behind the value.
type sample struct {
	v, raw, stolen float64
	n              int
}

// lateScore is the score of a phase whose own load generator fell behind
// its schedule: worse than any steal count.
var lateScore = math.Inf(1)

// A phase is calm when its score is within calmFactor times the score of
// the calmAnchor-th calmest phase, plus calmSlack ticks (2 % of a
// one-second phase on two processors). Anchoring on the third
// calmest keeps at least three phases and ignores a lucky lowest; the
// factor keeps every phase on a host that is quiet throughout (scores of
// one-second phases differ by less than 2x then) and drops the disturbed
// ones when the host is quiet only part of the time (their scores are
// 5-20x a calm phase's).
const (
	calmAnchor = 3
	calmFactor = 2
	calmSlack  = 4
)

// calm returns the calm phases, in phase order.
func calm(s []sample) []sample {
	limit := math.Inf(1)
	if len(s) >= calmAnchor {
		scores := make([]float64, len(s))
		for i, x := range s {
			scores[i] = x.stolen
		}
		slices.Sort(scores)
		limit = calmFactor*scores[calmAnchor-1] + calmSlack
	}
	var out []sample
	for _, x := range s {
		if x.stolen <= limit {
			out = append(out, x)
		}
	}
	return out
}

// crossing estimates the highest rate that meets the SLO from an up-down
// staircase: rates[i] is the rate of rung i and passes[i] whether it met
// the SLO, each rung one step above the one before if that passed and one
// below if it failed. From the first rung whose outcome differs from the
// first rung's the staircase walks back and forth across the crossing, and
// the estimate is the geometric mean of the rates from there on. One rung
// the host disturbed costs one step, which the next calm rung takes back.
// bracketed is false when every rung had the same outcome: the last rate
// is then a bound, not a crossing.
func crossing(rates []float64, passes []bool) (rate float64, bracketed bool) {
	for i := range rates {
		if passes[i] == passes[0] {
			continue
		}
		sum := 0.0
		for _, r := range rates[i:] {
			sum += math.Log(r)
		}
		return math.Exp(sum / float64(len(rates)-i)), true
	}
	return rates[len(rates)-1], false
}
