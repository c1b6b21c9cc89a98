package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q ≤ 1) of ascending durations
// read from a clock that ticks in whole nanoseconds. The sample at the
// nearest rank ⌈q·n⌉ reads v when the true duration lay in [v, v+1), so
// the estimate is placed inside that nanosecond by the rank's position
// among the samples that read v (the grouped-data quantile). For
// microsecond calls this is v + ½ ns; for a 0.1 µs heuristic decision,
// where thousands of samples share each reading, it resolves what a bare
// rank would round to the same integer on every run. It is 0 for no
// samples.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := rank(n, q)
	v := sorted[r-1]
	lo := sort.SearchFloat64s(sorted, v)                                       // samples below v
	hi := lo + sort.Search(n-lo, func(i int) bool { return sorted[lo+i] > v }) // samples up to v
	return v + (float64(r-lo)-0.5)/float64(hi-lo)
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond counts the samples strictly above the q-quantile's rank.
// A percentile is only reported as a metric when at least ten samples
// lie beyond it; with fewer, one slow call moves it.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs. It is 0 for no
// samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method:
// position i·(n+1)/4 with linear interpolation), so a spread printed
// here is the spread the acceptance procedure computes. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}
