package main

import (
	"math"
	"sort"
)

// summary describes a sample the way the README promises every timing
// is reported: median, quartiles, extremes and the sample count.
type summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// quantile returns the p-quantile (0 <= p <= 1) of an ascending sample
// by linear interpolation between order statistics at position
// p*(n+1)-1, clamped to the extremes.  This is the "exclusive" method
// of Python's statistics.quantiles, which the acceptance rule for this
// benchmark is written in, so a spread computed here matches one
// computed there for samples of three or more.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{}
	}
	return summary{
		N: len(s), Min: s[0], Max: s[len(s)-1],
		Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75),
	}
}

func median(values []float64) float64 { return summarize(values).Median }

// spread is the interquartile distance as a share of the median — the
// quantity the regression bounds are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
