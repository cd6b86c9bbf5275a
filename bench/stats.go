package main

import (
	"math"
	"sort"
)

// median returns the 0.5 quantile of xs (NaN for an empty sample).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidates tailQuantile picks from, highest
// first.
var tailPercentiles = []int{999, 990, 900} // per mille

// tailQuantile reports the highest percentile of xs that still has at
// least ten samples beyond it, and which percentile that was (0.5 when
// the sample is too small for any tail). A p99 of 100 samples rests on
// one observation; ten beyond it is the floor for a tail figure that
// repeats from run to run.
func tailQuantile(xs []float64) (value, q float64) {
	for _, pm := range tailPercentiles {
		if len(xs)*(1000-pm)/1000 >= 10 {
			q = float64(pm) / 1000
			return quantile(xs, q), q
		}
	}
	return median(xs), 0.5
}
