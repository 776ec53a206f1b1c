package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates at position q*(n+1) of the sorted sample, clamped
// to its ends: the method of Python's statistics.quantiles, which the
// acceptance rule for this benchmark's spreads is written in.
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q*float64(len(s)+1) - 1
	lo := int(math.Floor(pos))
	switch {
	case lo < 0:
		return s[0]
	case lo >= len(s)-1:
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// percentile is nearest-rank, like stats.Histogram: used for latencies
// inside one pass, where every value reported was really observed.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// sample is a metric's values over the passes of one run.
type sample struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newSample(unit string, values []float64) sample {
	return sample{Unit: unit, Median: median(values), Q1: quantile(values, 0.25), Q3: quantile(values, 0.75),
		N: len(values), Values: values}
}
