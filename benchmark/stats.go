package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianBy maps xs to numbers and returns their median.
func medianBy[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

// quartiles returns the cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive"
// method), so -repeat computes spreads the way the acceptance pipeline
// does. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailLadder is the fixed set of percentiles a latency report may
// name; tailPercentile picks the highest one the sample supports.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that has
// at least ten samples beyond it in a sample of n — the rule every
// latency line of the rig follows. A sample under 20 supports only the
// median.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-6 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of an ascending
// sample.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx])
}

// latSummary is one latency sample reduced to what the rig reports:
// the median, p99 when at least 1000 samples back it, and the highest
// supported percentile with its rank.
type latSummary struct {
	n      int
	p50    float64 // ns
	p99    float64 // ns; NaN under 1000 samples
	tailP  float64 // which percentile tail is
	tailNs float64
}

// p99MinSamples is the sample count below which a metric named p99 is
// not reported.
const p99MinSamples = 1000

// summarize sorts lat in place and reduces it.
func summarize(lat []int64) latSummary {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	s := latSummary{n: len(lat), p50: percentile(lat, 50), p99: math.NaN()}
	if len(lat) >= p99MinSamples {
		s.p99 = percentile(lat, 99)
	}
	s.tailP = tailPercentile(len(lat))
	s.tailNs = percentile(lat, s.tailP)
	return s
}
