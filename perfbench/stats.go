package main

import (
	"math"
	"sort"
)

// sample is one latency observation carrying a weight (the rows or deltas it
// stands for), so a percentile can be taken over rows rather than frames.
type sample struct {
	v float64
	w float64
}

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between closest ranks, the same rule as statistics.quantiles' inclusive
// method. It returns 0 for no values.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// weightedQuantile returns the smallest value v such that samples at or
// below v carry at least a q share of the total weight.
func weightedQuantile(ss []sample, q float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	s := append([]sample(nil), ss...)
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	var total float64
	for _, x := range s {
		total += x.w
	}
	var acc float64
	for _, x := range s {
		acc += x.w
		if acc >= q*total {
			return x.v
		}
	}
	return s[len(s)-1].v
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
