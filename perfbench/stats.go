package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
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

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how the benchmark's spread is judged. With fewer than two
// values both quartiles are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
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

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
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

// tailPercentile is the highest of the usual reporting percentiles that
// still has at least ten samples above it, so a tail figure never rests
// on a handful of values. It returns 50 when no higher one qualifies.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// timing summarises a latency sample as the benchmark reports timings:
// a median, the highest percentile with ten samples beyond it, and the
// sample count.
type timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_percentile"`
	Tail  float64 `json:"tail"`
	P99   float64 `json:"p99"`
	Unit  string  `json:"unit"`
}

func summarize(xs []float64, unit string) timing {
	tp := tailPercentile(len(xs))
	return timing{N: len(xs), P50: median(xs), TailP: tp, Tail: percentile(xs, tp), P99: percentile(xs, 99), Unit: unit}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// workCount is how many units of work, each of nominal length unit on
// the reference machine, fit in budget (at least min). A run does a
// fixed amount of work for a given --seconds: a slower program takes
// longer over it, and every figure of the run, peak memory included,
// describes the same work.
func workCount(budget, unit time.Duration, min int) int {
	if n := int(budget / unit); n > min {
		return n
	}
	return min
}
