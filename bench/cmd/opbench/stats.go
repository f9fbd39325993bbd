package main

import (
	"math"
	"sort"
)

// sortedCopy returns vals sorted ascending without touching the input.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest value with at least p% of the sample
// at or below it. Nearest-rank never interpolates, so every reported
// latency is one that a request really had. An empty sample reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median of an unsorted sample; the mean of the two middle values when
// the count is even, 0 when it is empty.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailPercentile picks the highest percentile of 50, 90, 99, 99.9 and
// 99.99 that still has at least ten samples beyond it in a sample of n,
// so a reported tail never rests on a handful of requests. It falls
// back to the median for tiny samples.
func tailPercentile(n int) float64 {
	best := 50.0
	// The share beyond each candidate is 1/den; ten samples beyond it
	// need n >= 10*den. Integer arithmetic, so n = 100 really is enough
	// for p90.
	for _, c := range []struct {
		p   float64
		den int
	}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}} {
		if n >= 10*c.den {
			best = c.p
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile with
// the exclusive method of Python's statistics.quantiles(values, n=4),
// which is what the acceptance driver computes its spreads with. Fewer
// than two values have no spread: all three read as the single value.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise floor a delta has to clear before it means anything.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// selfTime is a span's duration minus the part of it that its children
// cover. Children are clipped to the parent and overlapping children
// are counted once, so concurrent children cannot push self time below
// zero.
func selfTime(start, end int64, children [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := c[0], c[1]
		if s < start {
			s = start
		}
		if e > end {
			e = end
		}
		if e > s {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	covered, cursor := int64(0), start
	for _, c := range clipped {
		if c[1] <= cursor {
			continue
		}
		if c[0] > cursor {
			cursor = c[0]
		}
		covered += c[1] - cursor
		cursor = c[1]
	}
	return end - start - covered
}
