package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method), so the A/A
// table reads exactly as the driver's acceptance check does. It needs at
// least two values; with fewer every cut is the single value (or 0).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(k int) float64 {
		j := k * (n + 1) / 4 // 1-based lower neighbour, clamped like Python's
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle of v (mean of the two middle values when even).
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// spread is the inter-quartile distance as a share of the median: the
// figure the driver holds against each metric's bound.
func spread(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// percentile is the nearest-rank q-quantile of an ascending slice.
func percentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailRank is the 1-based rank of the highest order statistic, capped at
// the nearest-rank p99, that still has at least ten of n samples beyond it
// (the choosing-metrics rule). A sample too small for any tail falls back
// to its median.
func tailRank(n int) int {
	switch {
	case n >= 1000:
		return int(math.Ceil(0.99 * float64(n)))
	case n > 20:
		return n - 10
	}
	return int(math.Ceil(0.5 * float64(n)))
}

// tail reports the supported tail percentile of v: its value, the
// quantile it stands at, the sample count and how many samples lie beyond.
func tail(v []float64) (val, q float64, n, beyond int) {
	s := sorted(v)
	n = len(s)
	if n == 0 {
		return 0, 0, 0, 0
	}
	k := tailRank(n)
	return s[k-1], float64(k) / float64(n), n, n - k
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}
