package main

import (
	"math"
	"slices"
)

// summary is one metric's distribution over the runs or pairs of a
// workload: the median with its quartiles and sample count. A metric with no
// valid sample has a nil Median.
type summary struct {
	Unit   string    `json:"unit"`
	Median *float64  `json:"median"`
	Q1     *float64  `json:"q1"`
	Q3     *float64  `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, N: len(xs), Values: xs}
	if len(xs) == 0 {
		return s
	}
	m := median(xs)
	q1, q3 := quartiles(xs)
	s.Median, s.Q1, s.Q3 = &m, &q1, &q3
	return s
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs, the mean of the two middle values
// when len(xs) is even, and NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spread printed here is the spread an outside check computes from
// the same values. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile returns the q-quantile of xs by linear interpolation between
// order statistics, and whether it is reportable: a median needs one sample,
// and a tail percentile needs at least ten samples beyond it (a p95 needs
// 200, a p99 1000), so a tail is never read off a handful of values.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	if q > 0.5 && math.Floor((1-q)*float64(n)+1e-9) < 10 {
		return 0, false
	}
	s := sorted(xs)
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return s[n-1], true
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// bound is how far an end-to-end metric's median may worsen before the
// change counts as a regression: by more than Rel of the old median and by
// more than Abs in the metric's unit, whichever allowance is larger. Every
// end-to-end metric here is lower-is-better.
type bound struct {
	Rel float64
	Abs float64
}

// allowance returns the largest worsening of base the bound tolerates.
func (b bound) allowance(base float64) float64 {
	return math.Max(b.Rel*math.Abs(base), b.Abs)
}

// verdict classifies the move of one metric from set a to set b.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge applies the bound to two summaries of the same metric. A median
// that worsened by more than the allowance is worse. One that improved by
// more than the allowance and by more than a's own quartile spread is
// improved. Otherwise the change is unchanged, unless either side's spread
// is wider than the allowance: then it is unresolved, except when every
// value of b is at or below every value of a.
func (b bound) judge(a, c summary) verdict {
	if a.Median == nil || c.Median == nil {
		return unresolved
	}
	am, cm := *a.Median, *c.Median
	allow := b.allowance(am)
	d := cm - am
	switch {
	case d > allow:
		return worse
	case -d > allow && -d > *a.Q3-*a.Q1:
		return improved
	case math.Max(*a.Q3-*a.Q1, *c.Q3-*c.Q1) <= allow:
		return unchanged
	case slices.Max(c.Values) <= slices.Min(a.Values):
		return unchanged
	default:
		return unresolved
	}
}
