package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. xs
// need not be sorted; it is not modified. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle sample, or the mean of the two middle samples
// for an even count. An empty input yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles with the same
// "exclusive" interpolation as Python's statistics.quantiles(xs, n=4), so
// spreads printed here match the ones computed from the same values there.
// One sample is its own quartiles; none yields zeros.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// windowMedian splits samples by window index and returns the median over
// windows of each window's p-th percentile. Windows with no samples are
// skipped, so a stall that empties a window cannot hide behind a zero.
func windowMedian(samples []float64, window []int, p float64) float64 {
	byWin := map[int][]float64{}
	for i, x := range samples {
		byWin[window[i]] = append(byWin[window[i]], x)
	}
	per := make([]float64, 0, len(byWin))
	for _, xs := range byWin {
		per = append(per, percentile(xs, p))
	}
	return median(per)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
